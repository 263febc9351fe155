"""Seeded inputs of the four workloads.

Every workload is a list of ``Operation``s: one ``nualign align`` call
each, on a net from ``nets.py`` and a log generated here.  The same seed
gives the same logs.  The package's own simulator and example logs are not
used, so changing them does not change what is measured.

Timestamps are integers.  Within a case the aligner orders events by
(timestamp, row); across cases only a strictly earlier timestamp orders
two events.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: cost of one visible (log or model) move, the CLI default
VISIBLE = 10_000

#: node budget of every search, the budget of the reference measurements
NODE_BUDGET = 10_000

#: order-program budget of the kept failing operation
FAILING_ILP_BUDGET = 2_000

#: clinic activities in trace order, with the resource each records
CLINIC_TRACE = (
    ("i_s", "g:g1"), ("i_p", "g:g1"), ("o_p", ""),
    ("o_so", "s:s1"), ("o_c", "s:s1"), ("d_c", ""),
)

#: events missing from the ``wide`` log, one per seeded case: each inner
#: event, whose absence costs one visible model move; a fixed mix keeps
#: the per-case searches, and so the work, the same for every seed
WIDE_MISSING = ("i_p", "o_p", "o_so", "o_c", "i_p", "o_so")

#: timestamp units per clinic case window; windows do not overlap
WINDOW = 1000


@dataclass(frozen=True)
class Operation:
    name: str                       # file stem of the log and the report
    net: str                        # key of ``nets.NETS``
    rows: tuple                     # (case, activity, timestamp, resources)
    mode: str = "approx"            # "approx" or "exact"
    optimum: int | None = None      # analytic optimum, when known
    ilp_budget: int | None = None   # ``--ilp-budget``, when bounded
    expect_failure: bool = False    # the kept operation that fails today
    compare_exact: bool = False     # check against the exact engine

    def argv(self, net_path, log_path, out_path, mode=None) -> list:
        argv = ["align", str(net_path), str(log_path),
                "--mode", mode or self.mode,
                "--node-budget", str(NODE_BUDGET),
                "--out", str(out_path)]
        if self.ilp_budget is not None:
            argv += ["--ilp-budget", str(self.ilp_budget)]
        return argv


def csv_text(rows) -> str:
    lines = ["case,activity,timestamp,resources"]
    lines += [f"{c},{a},{t},{r}" for c, a, t, r in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Clinic logs
# ---------------------------------------------------------------------------

def clinic_rows(rng, n_cases, overlap_at=None, missing=None) -> tuple:
    """Rows of ``n_cases`` full clinic cases (six events each) in disjoint
    time windows.

    ``overlap_at=k`` forces one surgeon overlap: case ``k + 2`` records its
    intake, preparation and surgery claim while case ``k + 1`` still holds
    the surgeon.  ``missing`` maps a 0-based case number to an inner
    activity left out of that case.  The optimum is then ``VISIBLE`` per
    missing event plus ``2 * VISIBLE`` for the overlap, as long as no
    missing event lies in the overlapping pair.
    """
    missing = dict(missing or {})
    if overlap_at is not None and {overlap_at, overlap_at + 1} & set(missing):
        raise ValueError("missing events inside the overlapping pair")
    stamps = []
    for k in range(n_cases):
        base = k * WINDOW
        if overlap_at is not None and k == overlap_at:
            stamps.append(sorted(rng.sample(range(base + 1, base + 400), 4))
                          + sorted(rng.sample(range(base + 600, base + WINDOW), 2)))
        elif overlap_at is not None and k == overlap_at + 1:
            claim, release = stamps[k - 1][3], stamps[k - 1][4]
            stamps.append(sorted(rng.sample(range(claim + 1, release), 4))
                          + sorted(rng.sample(range(base + 1, base + WINDOW), 2)))
        else:
            stamps.append(sorted(rng.sample(range(base + 1, base + WINDOW), 6)))
    rows = []
    for k in range(n_cases):
        for (activity, res), ts in zip(CLINIC_TRACE, stamps[k]):
            if missing.get(k) != activity:
                rows.append((f"c{k + 1}", activity, ts, res))
    rows.sort(key=lambda row: row[2])
    return tuple(rows)


def clinic_optimum(overlaps: int, missing: int) -> int:
    return VISIBLE * (2 * overlaps + missing)


def contention(seed) -> list:
    """17 cases, one forced surgeon overlap in the middle."""
    rng = random.Random(f"contention:{seed}")
    n = 17
    rows = clinic_rows(rng, n, overlap_at=n // 2)
    return [Operation("contention", "clinic", rows, optimum=clinic_optimum(1, 0))]


def wide(seed) -> list:
    """24 contention-free cases; six seeded cases each lack one inner event."""
    rng = random.Random(f"wide:{seed}")
    n = 24
    missing = dict(zip(rng.sample(range(n), len(WIDE_MISSING)), WIDE_MISSING))
    rows = clinic_rows(rng, n, missing=missing)
    return [Operation("wide", "clinic", rows,
                      optimum=clinic_optimum(0, len(WIDE_MISSING)))]


def exact(seed) -> list:
    """4 cases with one forced overlap, aligned by the exact engine."""
    rng = random.Random(f"exact:{seed}")
    n = 4
    rows = clinic_rows(rng, n, overlap_at=n // 2)
    return [Operation("exact", "clinic", rows, mode="exact",
                      optimum=clinic_optimum(1, 0))]


# ---------------------------------------------------------------------------
# Small logs of the batch workload
# ---------------------------------------------------------------------------

# A step is (activity, role, effect): "claim" holds an instance until the
# case's matching "release"; "use" needs a free instance for an instant.

def _hospital_path(rng):
    intake = rng.random() < 0.6
    operation = rng.choice(("closed", "open", "none") if intake else ("closed", "open"))
    steps = []
    if intake:
        steps += [("i_s", "g", "claim"), ("i_p", "g", "release")]
    if operation == "closed":
        steps += [("o_p", None, None), ("o_sc", "s", "use")]
    elif operation == "open":
        steps += [("o_p", None, None), ("o_so", "s", "claim"), ("o_c", "s", "release")]
    return steps


def _claim_release_path(rng):
    return [("claim", "r", "claim"), ("release", "r", "release")]


def _operation_path(rng):
    if rng.random() < 0.5:
        branch = rng.sample([("o_a", None, None), ("o_sc", "s", "use")], 2)
        return [("o_p", None, None)] + branch
    branch = rng.sample([("o_a", None, None), ("o_so", "s", "claim")], 2)
    return [("o_p", None, None)] + branch + [("o_c", "s", "release")]


#: net key -> (role -> instances, case path generator)
BATCH_NETS = {
    "hospital": ({"g": ("g1",), "s": ("s1",)}, _hospital_path),
    "claim_release": ({"r": ("x", "y")}, _claim_release_path),
    "operation": ({"s": ("x", "y")}, _operation_path),
}

#: deviation mix: (dropped events, swapped resources, relaxed capacity)
DEVIATIONS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1))

BATCH_LOGS = 60


def schedule(rng, roles, paths, extra_capacity=0):
    """Interleave the cases' paths under the instances' capacities (plus
    ``extra_capacity`` per instance) and stamp them; a cross-case step may
    share the previous step's timestamp, which leaves the two unordered."""
    free = {inst: 1 + extra_capacity for insts in roles.values() for inst in insts}
    held = {}
    position = [0] * len(paths)
    rows = []
    clock = 0
    while True:
        ready = []
        for c, path in enumerate(paths):
            if position[c] == len(path):
                continue
            activity, role, effect = path[position[c]]
            if effect in ("claim", "use") and not any(free[i] for i in roles[role]):
                continue
            ready.append(c)
        if not ready:
            break
        c = rng.choice(ready)
        activity, role, effect = paths[c][position[c]]
        position[c] += 1
        inst = None
        if effect in ("claim", "use"):
            inst = rng.choice([i for i in roles[role] if free[i]])
            if effect == "claim":
                free[inst] -= 1
                held[(c, role)] = inst
        elif effect == "release":
            inst = held.pop((c, role))
            free[inst] += 1
        case = f"c{c + 1}"
        if not (rows and rows[-1][0] != case and rng.random() < 0.25):
            clock += 1
        rows.append((case, activity, clock, f"{role}:{inst}" if inst else ""))
    if any(p != len(path) for p, path in zip(position, paths)):
        raise RuntimeError("schedule deadlocked")
    return rows


def deviate(rng, roles, rows, drop, swap):
    rows = list(rows)
    for _ in range(drop):
        rows.pop(rng.randrange(len(rows)))
    for _ in range(swap):
        candidates = [
            k for k, row in enumerate(rows)
            if row[3] and len(roles[row[3].split(":")[0]]) > 1
        ]
        if candidates:
            k = rng.choice(candidates)
            case, activity, ts, res = rows[k]
            role, inst = res.split(":")
            other = rng.choice([i for i in roles[role] if i != inst])
            rows[k] = (case, activity, ts, f"{role}:{other}")
    return rows


def batch_log(rng, net, n_cases, deviation) -> tuple:
    roles, path = BATCH_NETS[net]
    drop, swap, relax = deviation
    rows = schedule(rng, roles, [path(rng) for _ in range(n_cases)], relax)
    return tuple(deviate(rng, roles, rows, drop, swap))


def failing_operation() -> Operation:
    """Five contention-free clinic cases; ``c1`` lacks its last event.  The
    order program exhausts its budget on this log (see README)."""
    rows = tuple(
        (f"c{k + 1}", activity, k * 10 + stamp, res)
        for k in range(5)
        for (activity, res), stamp in zip(CLINIC_TRACE, (1, 2, 3, 4, 6, 8))
        if (k, activity) != (0, "d_c")
    )
    return Operation("kept_failure", "clinic", rows,
                     optimum=clinic_optimum(0, 1),
                     ilp_budget=FAILING_ILP_BUDGET, expect_failure=True)


def restamp(rng, rows):
    """The same rows under a seeded, strictly increasing map of their
    timestamps: every order between events, ties included, is kept."""
    stamps = sorted({row[2] for row in rows})
    new, clock = {}, 0
    for ts in stamps:
        clock += rng.randint(1, 9)
        new[ts] = clock
    return tuple((case, activity, new[ts], res) for case, activity, ts, res in rows)


def batch(seed) -> list:
    """60 logs of 2-3 cases on three nets with the deviation mix, plus the
    kept failing operation.

    The logs' structure (paths, interleavings, deviations) comes from one
    fixed generator; the seed moves only their timestamps.  Structures
    drawn per seed made the summed cost spread by about 10 % between
    seeds, which would hide any change to the approximation's quality.
    """
    structure = random.Random("batch")
    stamps = random.Random(f"batch:{seed}")
    nets = list(BATCH_NETS)
    ops = []
    for i in range(BATCH_LOGS):
        net = nets[i % len(nets)]
        rows = batch_log(structure, net, 2 + i % 2, DEVIATIONS[i % len(DEVIATIONS)])
        ops.append(Operation(f"b{i:03d}_{net}", net, restamp(stamps, rows),
                             compare_exact=True))
    ops.append(failing_operation())
    return ops


WORKLOADS = {
    "contention": contention,
    "wide": wide,
    "exact": exact,
    "batch": batch,
}
