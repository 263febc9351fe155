"""GraphViz DOT rendering for nets, logs and alignment reports.

Output is fully deterministic (sorted iteration only, no timestamps), so
repeated exports are byte-identical -- golden-file friendly.

Alignment moves follow the usual color convention: green synchronous,
purple model, yellow log moves.  Resource places are tinted per role.
"""

from __future__ import annotations

from .eventlog import EventLog, _format_timestamp
from .rcnu import EPS, Nu, RcNuNet, Var
from .report import report_field, report_moves, report_order

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


def net_to_dot(net: RcNuNet) -> str:
    lines = ["digraph net {", "  rankdir=LR;"]
    role_tint = {role.name: ROLE_TINTS[i % len(ROLE_TINTS)]
                 for i, role in enumerate(net.roles)}
    for p in net.places:
        attrs = ["shape=circle"]
        if net.place_kind(p) != "production":
            tint = role_tint[net.place_role(p).name]
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
        label = f"{e.case}: {e.activity} @ {_format_timestamp(e.timestamp)}"
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
    """Move poset of a report; edges are the transitive reduction.  A move
    or order of the wrong shape raises ``report.ReportError``."""
    lines = ["digraph alignment {", "  rankdir=LR;"]
    indexes = []
    for k, entry in enumerate(report_moves(doc)):
        where = f"move {k}"
        i = report_field(entry, "index", (int,), where)
        kind = entry["kind"]
        color = MOVE_COLORS[kind]
        activity = report_field(entry, "activity", (str, type(None)), where)
        case = report_field(entry, "case", (str, type(None)), where)
        bits = [kind]
        if activity:
            bits.append(activity)
        if case:
            bits.append(f"[{case}]")
        label = " ".join(bits)
        lines.append(
            f"  m{i} [shape=box style=filled fillcolor={_quote(color)} "
            f"label={_quote(label)}];"
        )
        indexes.append(i)
    for i, j in sorted(report_order(doc, indexes).covering_pairs()):
        lines.append(f"  m{i} -> m{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
