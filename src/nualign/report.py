"""Alignment report documents: versioned JSON, deterministic bytes.

A report round-trips: loading it reconstructs the alignment (moves with
their events, bindings and the full order closure), and re-serializing
the reconstruction yields the identical document.

The bytes are those of ``json.dumps(doc, indent=2, sort_keys=True)`` plus
a newline.  ``dumps_report`` writes the closed order, by far the largest
value, from one fixed template per pair instead of through the encoder.
"""

from __future__ import annotations

import json
from itertools import chain, compress, count

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


#: ``bin``'s digits as 0/1 bytes: the order lists a row's set bits by ``compress``
_BITS = bytes.maketrans(b"01", b"\0\1")


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
        "order": [[i, j] for i, row in enumerate(alignment.order.rows())
                  for j in compress(count(), bin(row)[:1:-1].encode().translate(_BITS))],
        "violations": list(violations),
        "warnings": list(warnings),
    }


def violation_entry(realignment, comp, order: Poset, costs: CostTable) -> dict:
    """Report entry for one realigned region of the adjusted ``order``: its
    lower bound is the members no member precedes, its upper bound the
    members that precede no member."""
    def describe(mask):
        return [{"kind": comp.moves[i].kind, "activity": comp.moves[i].label,
                 "case": comp.case_of[i]} for i in set_bits(mask)]

    rows = order.rows()
    region = sum(1 << i for i in realignment.region)
    follows = 0
    upper = 0
    for i in realignment.region:
        follows |= rows[i]
        if not rows[i] & region:
            upper |= 1 << i
    return {
        "interval_lower": describe(region & ~follows),
        "interval_upper": describe(upper),
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
    """The report's ``order`` over ``elements``; a malformed, outside or
    cyclic pair raises ReportError."""
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
    return Event(report_field(doc, "index", (int,), where),
                 report_field(doc, "activity", (str,), where),
                 float(report_field(doc, "timestamp", (int, float), where)),
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
        moves.append(Move(
            entry["kind"],
            event=None if event is None else _event_from_json(event, f"{where}'s event"),
            transition=report_field(entry, "transition", (str, _NULL), where),
            mode=tuple(sorted(report_field(entry, "bindings", (dict,), where).items())),
            label=report_field(entry, "activity", (str, _NULL), where),
        ))
    return Alignment(tuple(moves), report_order(doc, range(len(moves))))


#: one order pair as ``json.dumps(indent=2)`` lays it out inside a
#: top-level value
_PAIR = "    [\n      %d,\n      %d\n    ]"


def _order_ints(order) -> tuple:
    """The ints of ``order``, a list of [i, j] lists of two ints, flattened;
    anything else raises ReportError."""
    if type(order) is not list:
        raise ReportError("order must be a list of [i, j] pairs")
    if set(map(type, order)) - {list} or set(map(len, order)) - {2}:
        raise ReportError("order pairs must be [i, j] lists")
    flat = tuple(chain.from_iterable(order))
    if set(map(type, flat)) - {int}:
        raise ReportError("order pairs must hold two ints")
    return flat


def _order_pieces(order) -> list:
    """Pieces of ``order`` laid out as ``json.dumps(indent=2)`` lays out a
    top-level value, for a list of two-int pairs; anything else raises
    ReportError."""
    flat = _order_ints(order)
    if not order:
        return ["[]"]
    return ["[\n", ",\n".join([_PAIR] * len(order)) % flat, "\n  ]"]


def dumps_report(doc: dict) -> str:
    # the pieces are joined once, so the order's text is copied only once
    parts = ["{"]
    for key in sorted(doc):
        parts += ["\n  " if len(parts) == 1 else ",\n  ", json.dumps(key), ": "]
        if key == "order":
            parts += _order_pieces(doc[key])
        else:
            # JSON strings escape newlines, so every raw newline starts an
            # indented line, shifted one level under the top-level key
            parts.append(json.dumps(doc[key], indent=2, sort_keys=True)
                         .replace("\n", "\n  "))
    parts.append("\n}\n")
    return "".join(parts)


def load_report(path) -> dict:
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except json.JSONDecodeError as exc:
            raise ReportError(f"{path}: invalid JSON: {exc}") from exc
