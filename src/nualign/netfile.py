"""JSON net format: roles, places, transitions, arcs, markings.

Term encoding in inscriptions: ``"eps"`` is the plain color, ``"nu"`` (or
``"nu:<name>"``) a fresh-name variable, anything else a variable name.
Marking tokens use ``"eps"`` or concrete identifiers.

Loading validates the structural restrictions by default and fails with
the full violation report when they do not hold.
"""

from __future__ import annotations

import json

from .poset import Multiset
from .rcnu import (
    EPS,
    ColoredMarking,
    Nu,
    RcNuNet,
    Role,
    Var,
    validate_structure,
)


class NetFileError(ValueError):
    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


def _term_from_json(text, field):
    if not isinstance(text, str) or not text:
        raise NetFileError(f"bad {field} term {text!r}")
    if text == "eps":
        return EPS
    if text == "nu":
        return Nu("nu")
    if text.startswith("nu:"):
        return Nu(text[3:])
    return Var(text)


def _term_to_json(term):
    if term is EPS:
        return "eps"
    if isinstance(term, Nu):
        return "nu" if term.name == "nu" else f"nu:{term.name}"
    if isinstance(term, Var):
        return term.name
    raise NetFileError(f"constant inscription {term!r} not representable")


def _count(entry, key, where):
    """``entry[key]``, 1 where absent: a JSON integer of at least 1 (a
    ``bool`` is no integer here), else NetFileError naming the field."""
    value = entry.get(key, 1)
    if type(value) is not int or value < 1:
        raise NetFileError(f"{where}: {key!r} must be an integer of at least 1, not {value!r}")
    return value


def _token_from_json(entry):
    case = entry.get("case", "eps")
    resource = entry.get("resource", "eps")
    return (None if case == "eps" else case,
            None if resource == "eps" else resource)


def _token_to_json(tok, count):
    c, r = tok
    return {"case": c if c is not None else "eps",
            "resource": r if r is not None else "eps",
            "count": count}


def _marking_from_json(doc, field):
    try:
        tokens = {}
        for place, entries in (doc or {}).items():
            counts = {}
            for entry in entries:
                tok = _token_from_json(entry)
                counts[tok] = counts.get(tok, 0) + _count(entry, "count", f"place {place!r}")
            tokens[place] = Multiset(counts)
        return ColoredMarking(tokens)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise NetFileError(f"malformed {field} marking: {exc}") from exc


def _marking_to_json(marking: ColoredMarking):
    out = {}
    for place in sorted(marking.places()):
        out[place] = [
            _token_to_json(tok, n)
            for tok, n in sorted(
                marking.get(place).items(),
                key=lambda kv: (str(kv[0][0]), str(kv[0][1])),
            )
        ]
    return out


#: the keys ``net_to_dict`` writes; every net document has the first two
NET_KEYS = ("places", "transitions", "roles", "arcs", "initial", "final")


def net_from_dict(doc: dict, validate: bool = True) -> RcNuNet:
    if not isinstance(doc, dict):
        raise NetFileError(f"net document must be a JSON object, got {type(doc).__name__}")
    unknown = sorted(set(doc).difference(NET_KEYS))
    missing = [key for key in NET_KEYS[:2] if key not in doc]
    if unknown or missing:
        raise NetFileError(f"unknown net document keys: {', '.join(unknown)}" if unknown
                           else f"net document lacks {' and '.join(missing)}")
    try:
        roles = []
        for role_doc in doc.get("roles", []):
            instances = Multiset({
                inst["id"]: _count(inst, "capacity", f"instance {inst['id']!r}")
                for inst in role_doc["instances"]
            })
            roles.append(Role(role_doc["name"], instances,
                              role_doc["available_place"], role_doc["busy_place"]))
        production = [
            p["id"] for p in doc.get("places", [])
            if p.get("kind", "production") == "production"
        ]
        labels = {}
        transitions = []
        for t in doc.get("transitions", []):
            transitions.append(t["id"])
            labels[t["id"]] = t.get("label")
        flow = {}
        for arc in doc.get("arcs", []):
            key = (arc["source"], arc["target"])
            counts = {}
            for ins in arc.get("inscriptions", []):
                pair = (_term_from_json(ins.get("case", "eps"), "case"),
                        _term_from_json(ins.get("resource", "eps"), "resource"))
                counts[pair] = counts.get(pair, 0) + _count(ins, "count", f"arc {key}")
            if key in flow:
                raise NetFileError(f"duplicate arc {key}")
            flow[key] = Multiset(counts)
        initial = _marking_from_json(doc.get("initial"), "initial")
        final = _marking_from_json(doc.get("final"), "final")
        net = RcNuNet(production, roles, transitions, labels, flow, initial, final)
    except NetFileError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise NetFileError(f"malformed net document: {exc}") from exc
    if validate:
        violations = validate_structure(net)
        if violations:
            raise NetFileError(
                "net fails structural validation:\n"
                + "\n".join(str(v) for v in violations),
                violations,
            )
    return net


def net_to_dict(net: RcNuNet) -> dict:
    places = [{"id": p, "kind": "production"} for p in net.production_places]
    for role in net.roles:
        places.append({"id": role.available_place, "kind": "resource_available",
                       "role": role.name})
        places.append({"id": role.busy_place, "kind": "resource_busy",
                       "role": role.name})
    arcs = []
    for (src, tgt), pairs in sorted(net.flow.items()):
        arcs.append({
            "source": src,
            "target": tgt,
            "inscriptions": [
                {"case": _term_to_json(c), "resource": _term_to_json(r), "count": n}
                for (c, r), n in sorted(
                    pairs.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
                )
            ],
        })
    return {
        "roles": [
            {
                "name": role.name,
                "instances": [
                    {"id": inst, "capacity": n}
                    for inst, n in sorted(role.instances.items())
                ],
                "available_place": role.available_place,
                "busy_place": role.busy_place,
            }
            for role in net.roles
        ],
        "places": places,
        "transitions": [
            {"id": t, "label": net.labels[t]} for t in net.transitions
        ],
        "arcs": arcs,
        "initial": _marking_to_json(net.initial),
        "final": _marking_to_json(net.final),
    }


def load_net(path, validate: bool = True) -> RcNuNet:
    with open(path, encoding="utf-8") as handle:
        try:
            doc = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise NetFileError(f"{path}: invalid JSON: {exc}") from exc
    return net_from_dict(doc, validate)


def save_net(net: RcNuNet, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(net_to_dict(net), handle, indent=2, sort_keys=True)
        handle.write("\n")
