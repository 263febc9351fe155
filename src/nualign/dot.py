"""GraphViz DOT rendering for nets, logs and alignment reports.

Output is fully deterministic (sorted iteration only, no timestamps), so
repeated exports are byte-identical -- golden-file friendly.

Alignment moves follow the usual color convention: green synchronous,
purple model, yellow log moves.  Resource places are tinted per role.
"""

from __future__ import annotations

from .eventlog import EventLog
from .poset import Poset
from .rcnu import EPS, Nu, RcNuNet, Var

MOVE_COLORS = {"sync": "palegreen", "model": "plum", "log": "khaki"}

ROLE_TINTS = ["lightblue", "lightsalmon", "palegoldenrod", "lightpink",
              "paleturquoise", "thistle"]


def _quote(text) -> str:
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _term(term) -> str:
    if term is EPS:
        return "."
    if isinstance(term, Var):
        return f"?{term.name}"
    if isinstance(term, Nu):
        return f"nu:{term.name}"
    return str(term)


def _inscriptions(pairs) -> str:
    parts = []
    for (c, r), n in sorted(pairs.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        body = f"({_term(c)},{_term(r)})"
        parts.append(f"{n}*{body}" if n > 1 else body)
    return " ".join(parts)


def net_to_dot(net) -> str:
    lines = ["digraph net {", "  rankdir=LR;"]
    role_tint = {}
    if isinstance(net, RcNuNet):
        for i, role in enumerate(net.roles):
            role_tint[role.name] = ROLE_TINTS[i % len(ROLE_TINTS)]
    for p in net.places:
        attrs = ["shape=circle"]
        if isinstance(net, RcNuNet) and net.place_kind(p) != "production":
            role = net.place_role(p)
            tint = role_tint[role.name]
            attrs.append(f"style=filled fillcolor={_quote(tint)}")
            if net.place_kind(p) == "busy":
                attrs.append("peripheries=2")
        lines.append(f"  {_quote(p)} [{' '.join(attrs)} label={_quote(p)}];")
    for t in net.transitions:
        label = net.labels.get(t)
        if label is None:
            lines.append(
                f"  {_quote(t)} [shape=box style=filled fillcolor=gray25 "
                f"fontcolor=white label={_quote(t)}];"
            )
        else:
            lines.append(f"  {_quote(t)} [shape=box label={_quote(label)}];")
    for (src, tgt) in sorted(net.flow, key=lambda k: (str(k[0]), str(k[1]))):
        label = _inscriptions(net.flow[(src, tgt)])
        attr = f" [label={_quote(label)}]" if label else ""
        lines.append(f"  {_quote(src)} -> {_quote(tgt)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def log_to_dot(log: EventLog) -> str:
    lines = ["digraph log {", "  rankdir=LR;", "  node [shape=box];"]
    for e in log.events:
        label = f"{e.case}: {e.activity} @ {e.timestamp:g}"
        if e.resources:
            res = " ".join(
                f"{inst}" + (f"*{n}" if n > 1 else "")
                for inst, n in sorted(e.resources.items())
            )
            label += f"\\n[{res}]"
        lines.append(f"  e{e.index} [label={_quote(label)}];")
    for e1, e2 in log.covering_pairs():
        style = "" if e1.case == e2.case else " [style=dashed]"
        lines.append(f"  e{e1.index} -> e{e2.index}{style};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def report_to_dot(doc: dict) -> str:
    """Move poset of a report; edges are the transitive reduction."""
    lines = ["digraph alignment {", "  rankdir=LR;"]
    moves = doc["moves"]
    for entry in moves:
        i = entry["index"]
        kind = entry["kind"]
        color = MOVE_COLORS[kind]
        bits = [kind]
        if entry["activity"]:
            bits.append(entry["activity"])
        if entry["case"]:
            bits.append(f"[{entry['case']}]")
        label = " ".join(bits)
        lines.append(
            f"  m{i} [shape=box style=filled fillcolor={_quote(color)} "
            f"label={_quote(label)}];"
        )
    order = Poset([m["index"] for m in moves], [tuple(p) for p in doc["order"]])
    for i, j in sorted(order.covering_pairs()):
        lines.append(f"  m{i} -> m{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
