"""Report checks that do not use the aligner.

They read the report JSON and the log CSV the aligner was given, and
recompute what they compare from those two files alone.
"""

from __future__ import annotations

import csv

#: move costs of the CLI default cost table
SYNC, TAU, VISIBLE = 0, 1, 10_000


def read_log(path) -> list:
    """(row, case, activity, timestamp) per data row; row counts from 0."""
    with open(path, encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        next(reader)
        return [(k, case, activity, float(ts))
                for k, (case, activity, ts, _res) in enumerate(reader)]


def log_order(events) -> list:
    """Generating pairs of the log order: each case's chain by (timestamp,
    row), plus every cross-case pair with a strictly earlier timestamp."""
    pairs = []
    by_case = {}
    for e in events:
        by_case.setdefault(e[1], []).append(e)
    for trace in by_case.values():
        trace.sort(key=lambda e: (e[3], e[0]))
        pairs += [(a[0], b[0]) for a, b in zip(trace, trace[1:])]
    for a in events:
        for b in events:
            if a[1] != b[1] and a[3] < b[3]:
                pairs.append((a[0], b[0]))
    return pairs


def move_cost(move) -> int:
    if move["kind"] == "sync":
        return SYNC
    if move["kind"] == "log":
        return VISIBLE
    return TAU if move["activity"] is None else VISIBLE


def check_report(report, events, mode, optimum=None) -> list:
    """Problems found in one report; empty when it passes.

    ``optimum`` is the analytic optimum when the log has one: the exact
    engine must reach it, the approximation must not beat it and must
    reach it when it repaired nothing.
    """
    problems = []
    if report.get("mode") != mode:
        problems.append(f"mode {report.get('mode')!r}, expected {mode!r}")
    moves = report["moves"]
    carrier = {}
    for k, move in enumerate(moves):
        if move["kind"] not in ("sync", "log", "model"):
            problems.append(f"move {k}: unknown kind {move['kind']!r}")
        if move["kind"] == "model":
            continue
        row = move["event"]["index"]
        if row in carrier:
            problems.append(f"event {row} carried by moves {carrier[row]} and {k}")
        carrier[row] = k
        if 0 <= row < len(events):
            _, case, activity, _ = events[row]
            if (move["event"]["case"], move["event"]["activity"]) != (case, activity):
                problems.append(f"move {k} carries a different event than row {row}")
    if sorted(carrier) != list(range(len(events))):
        problems.append(
            f"moves carry events {sorted(carrier)[:5]}..., "
            f"not each of the {len(events)} log events once"
        )
        return problems

    order = {tuple(pair) for pair in report["order"]}
    for a, b in log_order(events):
        if (carrier[a], carrier[b]) not in order:
            problems.append(f"log order {a} < {b} missing from the report's order")
            break

    cost = sum(move_cost(m) for m in moves)
    if report["total_cost"] != cost:
        problems.append(f"total_cost {report['total_cost']} != recomputed {cost}")
    if optimum is not None:
        problems += check_against(report, optimum, "the analytic optimum")
    return problems


def check_against(report, optimum, what) -> list:
    """Exact reaches ``optimum``; approx is at least it, and equal to it
    when the report lists no violations."""
    cost = report["total_cost"]
    if report["mode"] == "exact" and cost != optimum:
        return [f"exact cost {cost} != {what} {optimum}"]
    if cost < optimum:
        return [f"approx cost {cost} below {what} {optimum}"]
    if not report["violations"] and cost != optimum:
        return [f"approx cost {cost} != {what} {optimum} with no violations"]
    return []
