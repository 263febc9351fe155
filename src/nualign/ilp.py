"""Exact 0/1 integer programming by depth-first branch and bound.

Instances are small but not tiny (the free variables are the cross-case
order pairs of a composed alignment), so exactness and determinism beat
LP-relaxation sophistication while the implementation still has to avoid
quadratic per-node work: rows are indexed by variable (watch lists), the
assignment lives in a single trailed array, and each row keeps running
lower/upper bounds that are updated incrementally.

Constraints are linear rows ``coeffs . x <= bound``.  An order program
(``BinaryProgram.order = n``: variable ``a*n + b`` is 1 iff a comes
before b) is kept a strict partial order by propagation, not by the cubic
family of transitivity rows (Groetschel, Juenger and Reinelt, Oper. Res.
32(6), 1984): each pair set, fixings included, forces what antisymmetry
and transitivity imply from the pairs set to 1.  A pair or triple that
breaks the order conflicts when its last variable is propagated, so a
leaf needs no check.

A program may carry a cap row that is minimised before the objective:
the solver raises the cap's bound one step at a time and returns the
optimum at the first bound that admits a feasible assignment.  Every
level runs on the same engine, so rows are installed and the root is
propagated once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .poset import set_bits


class InfeasibleError(RuntimeError):
    """Search exhausted with no feasible leaf."""


class IlpBudgetError(RuntimeError):
    def __init__(self, nodes, incumbent):
        super().__init__(f"node budget exhausted after {nodes} nodes")
        self.nodes = nodes
        self.incumbent = incumbent


@dataclass
class NodeBudget:
    """Branch-and-bound nodes that several solves draw from together."""

    limit: int
    used: int = 0

    def __post_init__(self):
        if self.limit < 0:
            raise ValueError(f"limit must be nonnegative, got {self.limit}")


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple          # ((var, coefficient), ...) sorted by var
    bound: int
    label: str = ""


def constraint(coeffs: dict, bound: int, label: str = "") -> Constraint:
    items = tuple(sorted((v, int(c)) for v, c in coeffs.items() if c))
    return Constraint(items, int(bound), label)


@dataclass
class BinaryProgram:
    n_vars: int
    objective: dict = field(default_factory=dict)   # var -> integer coefficient
    constraints: list = field(default_factory=list)
    fixings: dict = field(default_factory=dict)     # var -> 0/1
    preferred: dict = field(default_factory=dict)   # var -> value to try first
    order: int = 0             # n > 0: the n*n variables are pairs of an order
    branch_order: list = None  # optional static variable order for branching
    cap: Constraint = None     # row whose bound solve() raises until feasible


class _Engine:
    """Trailed assignment, watch lists, incremental row bounds, and an
    order program's pairs set to 1 as bit rows.

    Variables fixed by the program are folded into row constants and never
    watched.  Every other variable of a row is watched, also one that is
    already assigned when the row is installed (the cap, after root
    propagation), so undoing the assignment restores the row exactly.
    """

    def __init__(self, program: BinaryProgram):
        self.program = program
        n = program.n_vars
        self.n = program.order
        self.after = [0] * self.n       # bit b of after[a] and bit a of
        self.before = [0] * self.n      # before[b] while (a, b) holds 1
        self.assignment = [None] * n
        for var, value in program.fixings.items():
            self.assignment[var] = value
            if self.n and value:
                self._toggle(var)
        self.trail = []
        self.watch = [[] for _ in range(n)]
        self.rows = []          # [active coeff-list, bound, label]
        self.row_lo = []        # achievable minimum of the lhs
        self.row_hi = []        # achievable maximum
        self.row_maxabs = []    # largest |coefficient| among active vars
        # objective lower bound, maintained incrementally
        self.obj_lb = 0
        self.obj_coeff = [0] * n
        for v, c in program.objective.items():
            self.obj_coeff[v] = c
            val = self.assignment[v]
            self.obj_lb += min(0, c) if val is None else c * val
        for row in program.constraints:
            self.add_row(row)

    def _toggle(self, var):
        a, b = divmod(var, self.n)
        self.after[a] ^= 1 << b
        self.before[b] ^= 1 << a

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
        self.rows.append((active, row.bound, row.label))
        self.row_lo.append(lo)
        self.row_hi.append(hi)
        self.row_maxabs.append(maxabs)
        return idx

    def assign(self, var, value):
        """Set a variable; returns False on immediate row conflict.

        All watched rows are updated even on conflict, so undo stays exact.
        """
        self.assignment[var] = value
        self.trail.append(var)
        if self.n and value:
            self._toggle(var)
        c = self.obj_coeff[var]
        self.obj_lb += c * value - min(0, c)
        ok = True
        row_lo, row_hi = self.row_lo, self.row_hi
        rows = self.rows
        if value:
            for idx, dlo1, dhi1, _, _ in self.watch[var]:
                lo = row_lo[idx] = row_lo[idx] + dlo1
                row_hi[idx] += dhi1
                if ok and lo > rows[idx][1]:
                    ok = False
        else:
            for idx, _, _, dlo0, dhi0 in self.watch[var]:
                lo = row_lo[idx] = row_lo[idx] + dlo0
                row_hi[idx] += dhi0
                if ok and lo > rows[idx][1]:
                    ok = False
        return ok

    def undo_to(self, mark):
        while len(self.trail) > mark:
            var = self.trail.pop()
            value = self.assignment[var]
            self.assignment[var] = None
            if self.n and value:
                self._toggle(var)
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
                # nothing can be forced while every coefficient fits the
                # slack; a conflicting row never fits, and _force_row
                # reports it
                if self.rows[idx][1] - lo >= self.row_maxabs[idx]:
                    continue
                if not self._force_row(idx, queue):
                    return False
            if self.n and not self._force_order(var, queue):
                return False
        return True

    def _force_order(self, var, queue):
        """Assign the pairs that pair ``var`` = (a, b) forces, queueing each;
        False on conflict.  a before b puts b not before a, a before all
        after b and all before a before b; a not before b puts nothing after
        a before b, and a before nothing before b."""
        n = self.n
        a, b = divmod(var, n)
        if self.assignment[var]:
            forced = [(b * n + a, 0)] + [(a * n + k, 1) for k in set_bits(self.after[b])]
            forced += [(k * n + b, 1) for k in set_bits(self.before[a])]
        else:
            forced = [(k * n + b, 0) for k in set_bits(self.after[a])]
            forced += [(a * n + k, 0) for k in set_bits(self.before[b])]
        for v, value in forced:
            held = self.assignment[v]
            if held is None:
                if not self.assign(v, value):
                    return False
                queue.append(v)
            elif held != value:
                return False
        return True

    def _force_row(self, idx, queue):
        """Assign every variable row ``idx`` forces, queueing each; False on conflict."""
        coeffs, bound, _ = self.rows[idx]
        lo = self.row_lo[idx]
        if lo > bound:
            return False
        for v, c in coeffs:
            if self.assignment[v] is not None:
                continue
            if c > 0 and lo + c > bound:
                forced = 0
            elif c < 0 and lo - c > bound:
                forced = 1
            else:
                continue
            if not self.assign(v, forced):
                return False
            queue.append(v)
            lo = self.row_lo[idx]
        return True

    def propagate_all(self):
        """One full sweep followed by queue propagation (root node); an
        order program's fixings are queued like assignments."""
        queue = list(self.program.fixings) if self.n else []
        for idx in range(len(self.rows)):
            if not self._force_row(idx, queue):
                return False
        return self.propagate(queue)

    def set_bound(self, idx, bound):
        """Give row ``idx`` a new bound and propagate it; False on conflict."""
        coeffs, _, label = self.rows[idx]
        self.rows[idx] = (coeffs, bound, label)
        queue = []
        return self._force_row(idx, queue) and self.propagate(queue)


def solve(program: BinaryProgram, node_budget: int | NodeBudget = 1_000_000):
    """Provably optimal 0/1 assignment, or raises InfeasibleError.

    Deterministic: branches on the first free variable of the branch order,
    preferred value first.  With a cap row, the optimum at the first
    feasible cap bound (see the module docstring).  ``node_budget`` counts
    the nodes of every level, and a ``NodeBudget`` also those of earlier
    solves that drew from it; IlpBudgetError (carrying the best incumbent
    and the nodes counted) is raised when it runs out before optimality is
    proven.
    """
    budget = (node_budget if isinstance(node_budget, NodeBudget)
              else NodeBudget(node_budget))
    n = program.n_vars
    engine = _Engine(program)
    cap = program.cap

    # fixings were folded into the rows at engine construction; apply the
    # root implications they trigger
    if not engine.propagate_all():
        raise InfeasibleError("fixings conflict with constraints")

    if program.branch_order is not None:
        order = list(program.branch_order)
        present = set(order)
        order.extend(v for v in range(n) if v not in present)
    else:
        order = list(range(n))

    best_assignment = None
    best_value = None
    # stack frames: (trail mark, branch var, remaining values, search hint)
    stack = []

    def next_free(hint):
        for pos in range(hint, n):
            v = order[pos]
            if engine.assignment[v] is None:
                return pos
        return None

    def open_node(hint):
        """Bound, then close the leaf or push a frame for the next variable."""
        nonlocal best_assignment, best_value
        budget.used += 1
        if budget.used > budget.limit:
            raise IlpBudgetError(
                budget.used,
                None if best_assignment is None
                else (tuple(best_assignment), best_value),
            )
        if best_value is not None and engine.obj_lb >= best_value:
            return
        pos = next_free(hint)
        if pos is None:
            # every variable is set and every row holds, so the bound is
            # the value, which the bound check above found strictly better
            best_assignment = list(engine.assignment)
            best_value = engine.obj_lb
            return
        var = order[pos]
        first = program.preferred.get(var, 0)
        stack.append([len(engine.trail), var, [first, 1 - first], pos])

    root_mark = len(engine.trail)
    cap_row = None if cap is None else engine.add_row(cap)
    bound = None if cap is None else cap.bound
    while True:
        if cap is None or engine.set_bound(cap_row, bound):
            open_node(0)
        while stack:
            mark, var, values, hint = stack[-1]
            engine.undo_to(mark)
            if not values:
                stack.pop()
                continue
            value = values.pop(0)
            if not engine.assign(var, value) or not engine.propagate([var]):
                continue
            open_node(hint)
        engine.undo_to(root_mark)
        if best_assignment is not None:
            return tuple(best_assignment), best_value
        # past the row's largest lhs a higher bound changes nothing
        if cap is None or bound >= engine.row_hi[cap_row]:
            raise InfeasibleError("no feasible assignment")
        bound += 1
