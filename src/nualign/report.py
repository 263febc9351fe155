"""Alignment report documents: versioned JSON, deterministic bytes.

A report round-trips: loading it reconstructs the alignment (moves with
their events, bindings and the full order closure), and re-serializing
the reconstruction yields the identical document.

The document ``build_report`` makes holds JSON values, but its ``order``
is the alignment's ``Poset``.  The bytes are those of
``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline, with the
order listed as its closed ``[i, j]`` pairs row by row.  ``dumps_report``
lays out the two largest values, the order and the moves, from fixed
templates in time linear in its output: one string join per row of the
order, and per move a template each for the move, its event, a resource
entry and a binding entry.  The other values go through the encoder.
"""

from __future__ import annotations

import json
import math
from itertools import chain, compress

from .align import Alignment, CostTable, Move, move_cost
from .eventlog import Event
from .poset import CycleError, Multiset, Poset, set_bits
from .rcnu import RcNuNet, case_of_mode

SCHEMA = "nualign-report"
SCHEMA_VERSION = "1.0"


class ReportError(ValueError):
    pass


def _event_to_json(event: Event):
    roles = dict(event.roles)
    return {
        "index": event.index,
        "activity": event.activity,
        "timestamp": event.timestamp,
        "case": event.case,
        "resources": [
            {"role": roles.get(inst, "?"), "instance": inst, "count": n}
            for inst, n in sorted(event.resources.items())
        ],
    }


def _move_case(net: RcNuNet, move: Move):
    if move.event is not None:
        return move.event.case
    try:
        return case_of_mode(net, move.transition, move.binding())
    except (KeyError, ValueError):
        return None


def build_report(alignment: Alignment, mode: str,
                 costs: CostTable = CostTable(), *, net: RcNuNet,
                 violations=(), warnings=()) -> dict:
    moves = []
    per_case = {}
    for i, mv in enumerate(alignment.moves):
        cost = move_cost(mv, costs)
        case = _move_case(net, mv)
        if case is not None:
            per_case[case] = per_case.get(case, 0) + cost
        moves.append({
            "index": i,
            "kind": mv.kind,
            "activity": mv.label,
            "case": case,
            "transition": mv.transition,
            "bindings": {k: v for k, v in mv.mode},
            "event": _event_to_json(mv.event) if mv.event is not None else None,
            "cost": cost,
        })
    deviations = sum(
        1 for mv in alignment.moves
        if mv.kind == "log" or (mv.kind == "model" and mv.label is not None)
    )
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "mode": mode,
        "costs": {"sync": costs.sync, "tau": costs.tau, "visible": costs.visible},
        "total_cost": alignment.cost(costs),
        "deviation_moves": deviations,
        "per_case_cost": dict(sorted(per_case.items())),
        "moves": moves,
        "order": alignment.order,
        "violations": list(violations),
        "warnings": list(warnings),
    }


def violation_entry(realignment, comp, costs: CostTable) -> dict:
    """Report entry for one realigned region: its lower bound is the
    members no member precedes, its upper bound the members that precede
    no member, read off the region's ``after`` and ``before`` masks."""
    def describe(mask):
        return [{"kind": comp.moves[i].kind, "activity": comp.moves[i].label,
                 "case": comp.case_of[i]} for i in set_bits(mask)]

    region = sum(1 << i for i in realignment.region)
    return {
        "interval_lower": describe(region & ~realignment.after),
        "interval_upper": describe(region & ~realignment.before),
        "moves_replaced": len(realignment.region),
        "realignment_cost": realignment.alignment.cost(costs),
        "fallback": realignment.fallback,
    }


_NULL = type(None)


def report_field(doc: dict, key, kinds, where: str):
    """``doc[key]`` when it is there with its type among ``kinds`` (exact
    JSON types, so ``bool`` is no ``int``); anything else raises
    ReportError naming the field."""
    if key not in doc:
        raise ReportError(f"{where} lacks {key!r}")
    value = doc[key]
    if type(value) not in kinds:
        names = " or ".join("null" if k is _NULL else k.__name__ for k in kinds)
        raise ReportError(f"{where}'s {key!r} must be {names}, not {type(value).__name__}")
    return value


def report_moves(doc: dict) -> list:
    """The report's ``moves``: a list of objects, each with a log, model or
    sync ``kind``; anything else raises ReportError."""
    moves = report_field(doc, "moves", (list,), "report")
    for i, entry in enumerate(moves):
        if type(entry) is not dict:
            raise ReportError(f"move {i} must be an object, not {type(entry).__name__}")
        kind = report_field(entry, "kind", (str,), f"move {i}")
        if kind not in ("log", "model", "sync"):
            raise ReportError(f"move {i}'s 'kind' must be log, model or sync, not {kind!r}")
    return moves


def report_order(doc: dict, elements) -> Poset:
    """The report's ``order`` over ``elements``: the ``Poset`` a built
    document holds, or a loaded document's pairs closed; a malformed,
    outside or cyclic pair raises ReportError."""
    if type(doc.get("order")) is Poset:
        return doc["order"]
    order = report_field(doc, "order", (list,), "report")
    _order_ints(order)
    try:
        return Poset(elements, [tuple(p) for p in order])
    except KeyError:
        pair = next(p for p in order if any(x not in elements for x in p))
        raise ReportError(f"order pair {pair} names a move outside the "
                          f"{len(elements)} moves") from None
    except CycleError as exc:
        raise ReportError(f"order pairs are cyclic: {exc}") from None


def _event_from_json(doc, where: str) -> Event:
    resources = report_field(doc, "resources", (list,), where)
    for k, entry in enumerate(resources):
        resource = f"{where}'s resource {k}"
        if type(entry) is not dict:
            raise ReportError(f"{resource} must be an object")
        report_field(entry, "instance", (str,), resource)
        if report_field(entry, "count", (int,), resource) < 1:
            raise ReportError(f"{resource}'s 'count' must be at least 1")
        report_field(entry, "role", (str,), resource)
    # the log parser refuses a non-finite timestamp, and the writer lays
    # timestamps out by ``float.__repr__``, which the encoder does only for
    # finite ones
    timestamp = float(report_field(doc, "timestamp", (int, float), where))
    if not math.isfinite(timestamp):
        raise ReportError(f"{where}'s 'timestamp' must be finite")
    return Event(report_field(doc, "index", (int,), where),
                 report_field(doc, "activity", (str,), where),
                 timestamp,
                 report_field(doc, "case", (str,), where),
                 Multiset({entry["instance"]: entry["count"] for entry in resources}),
                 tuple(sorted((entry["instance"], entry["role"]) for entry in resources)))


def report_to_alignment(doc: dict) -> Alignment:
    """The alignment a report document describes; a document that is not
    a well-formed report raises ReportError naming what is wrong."""
    if type(doc) is not dict or doc.get("schema") != SCHEMA:
        raise ReportError(f"not a {SCHEMA} document")
    major = str(doc.get("schema_version", "")).split(".")[0]
    if major != SCHEMA_VERSION.split(".")[0]:
        raise ReportError(f"unsupported schema_version {doc.get('schema_version')!r}")
    moves = []
    for i, entry in enumerate(report_moves(doc)):
        where = f"move {i}"
        event = report_field(entry, "event", (dict, _NULL), where)
        bindings = report_field(entry, "bindings", (dict,), where)
        if set(map(type, bindings.values())) - {str}:
            raise ReportError(f"{where}'s 'bindings' must map names to strings")
        moves.append(Move(
            entry["kind"],
            event=None if event is None else _event_from_json(event, f"{where}'s event"),
            transition=report_field(entry, "transition", (str, _NULL), where),
            mode=tuple(sorted(bindings.items())),
            label=report_field(entry, "activity", (str, _NULL), where),
        ))
    return Alignment(tuple(moves), report_order(doc, range(len(moves))))


def _order_ints(order) -> None:
    """Raises ReportError unless ``order`` is a list of [i, j] lists of two
    ints."""
    if type(order) is not list:
        raise ReportError("order must be a list of [i, j] pairs")
    if set(map(type, order)) - {list} or set(map(len, order)) - {2}:
        raise ReportError("order pairs must be [i, j] lists")
    if set(map(type, chain.from_iterable(order))) - {int}:
        raise ReportError("order pairs must hold two ints")


#: ``bin``'s digits as 0/1 bytes, to pick a row's set bits by ``compress``
_BITS = bytes.maketrans(b"01", b"\0\1")


def _order_text(order: Poset) -> list:
    """Pieces of ``order``'s closed pairs, row by row, as ``json.dumps``
    lays out a top-level list of [i, j] lists: each pair is its row's
    head, ``",\n    [\n      i,\n      "``, and the cell ``"j\n    ]"``."""
    cells = [f"{j}\n    ]" for j in range(len(order))]
    pieces = ["["]
    for i, row in enumerate(order.rows()):
        if row:
            head = ",\n    [\n      %d,\n      " % i
            pieces += [head, head.join(compress(cells, bin(row)[:1:-1].encode().translate(_BITS)))]
    if len(pieces) == 1:
        return ["[]"]
    pieces[1] = pieces[1][1:]       # the first pair follows the bracket
    pieces.append("\n  ]")
    return pieces


#: a move, an event, a resource entry and a binding entry as
#: ``json.dumps(indent=2, sort_keys=True)`` lays them out inside the
#: top-level ``moves`` list
_MOVE = ('    {\n      "activity": %s,\n      "bindings": %s,\n      "case": %s,\n'
         '      "cost": %d,\n      "event": %s,\n      "index": %d,\n'
         '      "kind": %s,\n      "transition": %s\n    }')
_EVENT = ('{\n        "activity": %s,\n        "case": %s,\n        "index": %d,\n'
          '        "resources": %s,\n        "timestamp": %r\n      }')
_RESOURCE = ('          {\n            "count": %d,\n            "instance": %s,\n'
             '            "role": %s\n          }')
_BINDING = '        %s: %s'

_str = json.encoder.encode_basestring_ascii


def _text(value) -> str:
    """A string or None as the encoder writes it."""
    return "null" if value is None else _str(value)


def _move_text(move: dict) -> str:
    bindings = "{}"
    if move["bindings"]:
        bindings = "{\n%s\n      }" % ",\n".join(
            [_BINDING % (_str(k), _str(v)) for k, v in sorted(move["bindings"].items())])
    event = move["event"]
    if event is None:
        event = "null"
    else:
        resources = "[]"
        if event["resources"]:
            resources = "[\n%s\n        ]" % ",\n".join(
                [_RESOURCE % (r["count"], _str(r["instance"]), _str(r["role"]))
                 for r in event["resources"]])
        event = _EVENT % (_str(event["activity"]), _str(event["case"]), event["index"],
                          resources, event["timestamp"])
    return _MOVE % (_text(move["activity"]), bindings, _text(move["case"]), move["cost"],
                    event, move["index"], _str(move["kind"]), _text(move["transition"]))


def dumps_report(doc: dict) -> str:
    """The report's bytes, as text: see the module docstring."""
    # the pieces are joined once, so the order's text is copied only once
    parts = ["{"]
    for key in sorted(doc):
        parts += ["\n  " if len(parts) == 1 else ",\n  ", json.dumps(key), ": "]
        if key == "order":
            parts += _order_text(doc[key])
        elif key == "moves" and doc[key]:
            parts += ["[\n", ",\n".join(map(_move_text, doc[key])), "\n  ]"]
        else:
            # JSON strings escape newlines, so every raw newline starts an
            # indented line, shifted one level under the top-level key
            parts.append(json.dumps(doc[key], indent=2, sort_keys=True)
                         .replace("\n", "\n  "))
    parts.append("\n}\n")
    return "".join(parts)


def load_report(path) -> dict:
    """The JSON document at ``path``; a file that is not UTF-8 JSON raises
    ReportError naming the path."""
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ReportError(f"{path}: invalid JSON: {exc}") from exc
