"""Exact 0/1 integer programming by depth-first branch and bound.

Instances are small but not tiny (the free variables are the cross-case
order pairs of a composed alignment), so exactness and determinism beat
LP-relaxation sophistication while the implementation still has to avoid
quadratic per-node work: rows are indexed by variable (watch lists), the
assignment lives in a single trailed array, and each row keeps running
lower/upper bounds that are updated incrementally.

Constraints are linear rows ``coeffs . x (<=|==) bound``.  Rows can also
be generated lazily: a callback inspects complete candidate assignments
and returns violated rows, which are added as cuts (used for the cubic
family of transitivity constraints, where eagerly materializing every
triple would dominate build time).
"""

from __future__ import annotations

from dataclasses import dataclass, field


class InfeasibleError(RuntimeError):
    """Search exhausted with no feasible leaf."""


class IlpBudgetError(RuntimeError):
    def __init__(self, nodes, incumbent):
        super().__init__(f"node budget exhausted after {nodes} nodes")
        self.nodes = nodes
        self.incumbent = incumbent


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple          # ((var, coefficient), ...) sorted by var
    op: str                # "<=" or "=="
    bound: int
    label: str = ""

    def lhs(self, assignment):
        return sum(c * assignment[v] for v, c in self.coeffs)

    def holds(self, assignment):
        value = self.lhs(assignment)
        return value == self.bound if self.op == "==" else value <= self.bound


def constraint(coeffs: dict, op: str, bound: int, label: str = "") -> Constraint:
    if op not in ("<=", "=="):
        raise ValueError(f"unsupported comparator {op!r}")
    items = tuple(sorted((v, int(c)) for v, c in coeffs.items() if c))
    return Constraint(items, op, int(bound), label)


@dataclass
class BinaryProgram:
    n_vars: int
    objective: dict = field(default_factory=dict)   # var -> integer coefficient
    constant: int = 0
    constraints: list = field(default_factory=list)
    fixings: dict = field(default_factory=dict)     # var -> 0/1
    preferred: dict = field(default_factory=dict)   # var -> value to try first
    warm_starts: list = field(default_factory=list) # known-feasible assignments
    lazy_rows: object = None   # callable(assignment) -> [Constraint] violated
    branch_order: list = None  # optional static variable order for branching

    def objective_value(self, assignment):
        return self.constant + sum(
            c * assignment[v] for v, c in self.objective.items()
        )


def check_feasible(program: BinaryProgram, assignment):
    """Verify fixings, every materialized row, and the lazy family.

    Returns (True, None) or (False, label of the first violated row).
    """
    if len(assignment) != program.n_vars:
        return False, f"assignment length {len(assignment)} != {program.n_vars}"
    if any(v not in (0, 1) for v in assignment):
        return False, "assignment is not 0/1"
    for var, value in sorted(program.fixings.items()):
        if assignment[var] != value:
            return False, f"fixing x{var}={value}"
    for row in program.constraints:
        if not row.holds(assignment):
            return False, row.label or f"row {row.coeffs}"
    if program.lazy_rows is not None:
        violated = program.lazy_rows(assignment)
        if violated:
            return False, violated[0].label or "lazy row"
    return True, None


class _Engine:
    """Trailed assignment, watch lists, incremental row bounds.

    Variables fixed by the program are folded into row constants and never
    watched.  Every other variable of a row is watched, also one that is
    already assigned when the row is installed (a lazy cut added at a
    leaf), so undoing the assignment restores the row exactly.
    """

    def __init__(self, program: BinaryProgram):
        self.program = program
        n = program.n_vars
        self.assignment = [None] * n
        for var, value in program.fixings.items():
            self.assignment[var] = value
        self.trail = []
        self.watch = [[] for _ in range(n)]
        self.rows = []          # [active coeff-list, op, bound, label]
        self.row_lo = []        # achievable minimum of the lhs
        self.row_hi = []        # achievable maximum
        self.row_maxabs = []    # largest |coefficient| among active vars
        # objective lower bound, maintained incrementally
        self.obj_lb = program.constant
        self.obj_coeff = [0] * n
        for v, c in program.objective.items():
            self.obj_coeff[v] = c
            val = self.assignment[v]
            self.obj_lb += min(0, c) if val is None else c * val
        for row in program.constraints:
            self.add_row(row)

    def add_row(self, row: Constraint):
        """Install a row; its bounds reflect the current assignment."""
        idx = len(self.rows)
        fixings = self.program.fixings
        active = []
        lo = hi = 0
        maxabs = 0
        for v, c in row.coeffs:
            if v in fixings:
                lo += c * fixings[v]
                hi += c * fixings[v]
                continue
            lo += min(0, c)
            hi += max(0, c)
            active.append((v, c))
            maxabs = max(maxabs, abs(c))
            # deltas applied to (lo, hi) when v is set to 1 or 0
            entry = (idx, c - min(0, c), c - max(0, c), -min(0, c), -max(0, c))
            self.watch[v].append(entry)
            val = self.assignment[v]
            if val is not None:
                lo += entry[1] if val else entry[3]
                hi += entry[2] if val else entry[4]
        self.rows.append((active, row.op, row.bound, row.label))
        self.row_lo.append(lo)
        self.row_hi.append(hi)
        self.row_maxabs.append(maxabs)
        return idx

    def row_conflict(self, idx):
        _, op, bound, _ = self.rows[idx]
        if self.row_lo[idx] > bound:
            return True
        if op == "==" and self.row_hi[idx] < bound:
            return True
        return False

    def assign(self, var, value):
        """Set a variable; returns False on immediate row conflict.

        All watched rows are updated even on conflict, so undo stays exact.
        """
        self.assignment[var] = value
        self.trail.append(var)
        c = self.obj_coeff[var]
        self.obj_lb += c * value - min(0, c)
        ok = True
        row_lo, row_hi = self.row_lo, self.row_hi
        rows = self.rows
        if value:
            for idx, dlo1, dhi1, _, _ in self.watch[var]:
                lo = row_lo[idx] = row_lo[idx] + dlo1
                row_hi[idx] += dhi1
                if ok:
                    _, op, bound, _ = rows[idx]
                    if lo > bound or (op == "==" and row_hi[idx] < bound):
                        ok = False
        else:
            for idx, _, _, dlo0, dhi0 in self.watch[var]:
                lo = row_lo[idx] = row_lo[idx] + dlo0
                row_hi[idx] += dhi0
                if ok:
                    _, op, bound, _ = rows[idx]
                    if lo > bound or (op == "==" and row_hi[idx] < bound):
                        ok = False
        return ok

    def undo_to(self, mark):
        while len(self.trail) > mark:
            var = self.trail.pop()
            value = self.assignment[var]
            self.assignment[var] = None
            c = self.obj_coeff[var]
            self.obj_lb -= c * value - min(0, c)
            row_lo, row_hi = self.row_lo, self.row_hi
            if value:
                for idx, dlo1, dhi1, _, _ in self.watch[var]:
                    row_lo[idx] -= dlo1
                    row_hi[idx] -= dhi1
            else:
                for idx, _, _, dlo0, dhi0 in self.watch[var]:
                    row_lo[idx] -= dlo0
                    row_hi[idx] -= dhi0

    def propagate(self, queue):
        """Unit-style propagation from the queued variables; False on conflict."""
        while queue:
            var = queue.pop()
            for entry in self.watch[var]:
                idx = entry[0]
                lo = self.row_lo[idx]
                hi = self.row_hi[idx]
                # a settled row (every variable with a nonzero coefficient
                # is set) can force nothing, and assign() already reported
                # any conflict it has (a tight cardinality row forces all
                # its free variables, and each would rescan it otherwise)
                if lo == hi:
                    continue
                if self.row_conflict(idx):
                    return False
                coeffs, op, bound, _ = self.rows[idx]
                maxabs = self.row_maxabs[idx]
                # nothing can be forced while every coefficient fits the slack
                if bound - lo >= maxabs and (op == "<=" or hi - bound >= maxabs):
                    continue
                for v, c in coeffs:
                    if self.assignment[v] is not None:
                        continue
                    forced = None
                    if c > 0 and lo + c > bound:
                        forced = 0
                    elif c < 0 and lo - c > bound:
                        forced = 1
                    if forced is None and op == "==":
                        if c > 0 and hi - c < bound:
                            forced = 1
                        elif c < 0 and hi + c < bound:
                            forced = 0
                    if forced is not None:
                        if not self.assign(v, forced):
                            return False
                        queue.append(v)
                        lo = self.row_lo[idx]
                        hi = self.row_hi[idx]
        return True

    def all_rows_hold(self):
        return not any(self.row_conflict(i) for i in range(len(self.rows)))

    def propagate_all(self):
        """One full sweep followed by queue propagation (root node)."""
        queue = []
        for idx in range(len(self.rows)):
            if self.row_conflict(idx):
                return False
            coeffs, op, bound, _ = self.rows[idx]
            lo = self.row_lo[idx]
            hi = self.row_hi[idx]
            for v, c in coeffs:
                if self.assignment[v] is not None:
                    continue
                forced = None
                if c > 0 and lo + c > bound:
                    forced = 0
                elif c < 0 and lo - c > bound:
                    forced = 1
                if forced is None and op == "==":
                    if c > 0 and hi - c < bound:
                        forced = 1
                    elif c < 0 and hi + c < bound:
                        forced = 0
                if forced is not None:
                    if not self.assign(v, forced):
                        return False
                    queue.append(v)
                    lo = self.row_lo[idx]
                    hi = self.row_hi[idx]
        return self.propagate(queue)


def solve(program: BinaryProgram, node_budget: int = 1_000_000):
    """Provably optimal 0/1 assignment, or raises InfeasibleError.

    Deterministic: branches on the lowest-index free variable, preferred
    value first.  Raises IlpBudgetError (carrying the best incumbent) when
    the budget runs out before optimality is proven.
    """
    n = program.n_vars
    engine = _Engine(program)
    best_assignment = None
    best_value = None

    for warm in program.warm_starts:
        ok, _ = check_feasible(program, warm)
        if ok:
            value = program.objective_value(warm)
            if best_value is None or value < best_value:
                best_assignment = list(warm)
                best_value = value

    # fixings were folded into the rows at engine construction; apply the
    # root implications they trigger
    if not engine.propagate_all():
        raise InfeasibleError("fixings conflict with constraints")

    nodes = 0
    # stack frames: (trail mark, branch var, remaining values, search hint)
    stack = []
    if program.branch_order is not None:
        order = list(program.branch_order)
        present = set(order)
        order.extend(v for v in range(n) if v not in present)
    else:
        order = list(range(n))

    def next_free(hint):
        for pos in range(hint, n):
            v = order[pos]
            if engine.assignment[v] is None:
                return pos
        return None

    def open_node(hint):
        """Bound, pick a branch variable, push a frame; True if leaf handled."""
        nonlocal best_assignment, best_value, nodes
        nodes += 1
        if nodes > node_budget:
            raise IlpBudgetError(
                nodes,
                None if best_assignment is None
                else (tuple(best_assignment), best_value),
            )
        if best_value is not None and engine.obj_lb >= best_value:
            return True
        pos = next_free(hint)
        if pos is None:
            candidate = list(engine.assignment)
            if engine.all_rows_hold():
                violated = (
                    program.lazy_rows(candidate) if program.lazy_rows else []
                )
                if violated:
                    for row in violated:
                        engine.add_row(row)
                    return True  # leaf closed; the cuts persist
                value = program.objective_value(candidate)
                if best_value is None or value < best_value:
                    best_assignment = candidate
                    best_value = value
            return True
        var = order[pos]
        first = program.preferred.get(var, 0)
        stack.append([engine.trail_mark(), var, [first, 1 - first], pos])
        return False

    engine.trail_mark = lambda: len(engine.trail)

    root_mark = len(engine.trail)
    done = open_node(0)
    while stack:
        frame = stack[-1]
        mark, var, values, hint = frame
        engine.undo_to(mark)
        if not values:
            stack.pop()
            continue
        value = values.pop(0)
        if not engine.assign(var, value) or not engine.propagate([var]):
            continue
        open_node(hint)

    engine.undo_to(root_mark)
    if best_assignment is None:
        raise InfeasibleError("no feasible assignment")
    return tuple(best_assignment), best_value


def dump_lp(program: BinaryProgram) -> str:
    """Plain-text rendering of the instance, exact integers."""
    lines = []
    obj = " + ".join(
        f"{c} x{v}" for v, c in sorted(program.objective.items()) if c
    )
    const = f" + {program.constant}" if program.constant else ""
    lines.append(f"min {obj or '0'}{const}")
    for var, value in sorted(program.fixings.items()):
        lines.append(f"x{var} = {value}  ; fixing")
    for row in program.constraints:
        body = " + ".join(f"{c} x{v}" for v, c in row.coeffs).replace("+ -", "- ")
        label = f"  ; {row.label}" if row.label else ""
        lines.append(f"{body or '0'} {row.op} {row.bound}{label}")
    return "\n".join(lines) + "\n"
