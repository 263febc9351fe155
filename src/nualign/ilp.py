"""Exact 0/1 integer programming by depth-first branch and bound.

Instances are small but not tiny (the free variables are the cross-case
order pairs of a composed alignment), so exactness and determinism beat
LP-relaxation sophistication while the implementation still has to avoid
quadratic per-node work: rows are indexed by variable (watch lists) and
the assignment lives in a single trailed array.

Every row ``coeffs . x <= bound`` is a cover (ValueError for any other):
its coefficients are negative, so the variables set to 1 must weigh at
least ``-bound``, each weighing ``-c``.  A row keeps one slack, the weight
of its variables not set to 0 less that need.  Only a zero can break a
cover, so only zeros are watched (Moskewicz et al., "Chaff", DAC 2001): a
zero lowers its rows' slacks, a negative slack is a conflict, and a free
variable heavier than its row's slack is set to 1.  The objective is
nonnegative (ValueError otherwise), so its lower bound is the value of
the variables set to 1.

An order program (``BinaryProgram.order = n``: variable ``a*n + b`` is 1
iff a comes before b) is kept a strict partial order by propagation, not
by the cubic family of transitivity rows (Groetschel, Juenger and
Reinelt, Oper. Res. 32(6), 1984): each pair set, fixings included, forces
what antisymmetry and transitivity imply from the pairs set to 1.  A pair
or triple that breaks the order conflicts when its last variable is
propagated, so a leaf needs no check.

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
        super().__init__(f"order-program budget exhausted after {nodes} branch-and-bound nodes")
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
    """Trailed assignment, cover rows with one slack each, and an order
    program's pairs set to 1 as bit rows.

    Variables fixed by the program are folded into row slacks and never
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
        self.watch = [[] for _ in range(n)]     # (row, weight) per row of a variable
        self.rows = []          # a row's free (variable, weight) pairs
        self.slack = []         # weight of its variables not set to 0, less its need
        self.heaviest = []      # its largest free weight
        self.obj_coeff = [0] * n
        for v, c in program.objective.items():
            if c < 0:
                raise ValueError(f"objective coefficient {c} of x{v} is negative")
            self.obj_coeff[v] = c
        # objective lower bound: the value of the variables set to 1
        self.obj_lb = sum(self.obj_coeff[v] for v, value in program.fixings.items() if value)
        for row in program.constraints:
            self.add_row(row)

    def _toggle(self, var):
        a, b = divmod(var, self.n)
        self.after[a] ^= 1 << b
        self.before[b] ^= 1 << a

    def add_row(self, row: Constraint):
        """Install a cover row; its slack reflects the current assignment."""
        idx = len(self.rows)
        free = []
        slack = row.bound
        for v, c in row.coeffs:
            if c > 0:
                raise ValueError(f"row {row.label!r} has coefficient {c} on x{v}: "
                                 f"the solver takes cover rows only")
            if self.assignment[v] != 0:
                slack -= c
            if v not in self.program.fixings:
                free.append((v, -c))
                self.watch[v].append((idx, -c))
        self.rows.append(free)
        self.slack.append(slack)
        self.heaviest.append(max((w for _, w in free), default=0))
        return idx

    def assign(self, var, value):
        """Set a variable; returns False when a zero breaks a row.

        A one reads no row.  A zero lowers the slack of every watched row,
        even on conflict, so undo stays exact.
        """
        self.assignment[var] = value
        self.trail.append(var)
        if value:
            self.obj_lb += self.obj_coeff[var]
            if self.n:
                self._toggle(var)
            return True
        slack = self.slack
        ok = True
        for idx, weight in self.watch[var]:
            slack[idx] -= weight
            if slack[idx] < 0:
                ok = False
        return ok

    def undo_to(self, mark):
        slack = self.slack
        while len(self.trail) > mark:
            var = self.trail.pop()
            if self.assignment[var]:
                self.obj_lb -= self.obj_coeff[var]
                if self.n:
                    self._toggle(var)
            else:
                for idx, weight in self.watch[var]:
                    slack[idx] += weight
            self.assignment[var] = None

    def propagate(self, queue):
        """Unit-style propagation from the queued variables; False on conflict.

        Only a zero lowers a slack, so only zeros re-read their rows.
        """
        slack, heaviest = self.slack, self.heaviest
        while queue:
            var = queue.pop()
            if not self.assignment[var]:
                for idx, _ in self.watch[var]:
                    # nothing is forced while every weight fits the slack;
                    # a broken row never fits, and _force_row reports it
                    if slack[idx] < heaviest[idx] and not self._force_row(idx, queue):
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
        """Set to 1 every free variable of row ``idx`` heavier than its
        slack, queueing each; False if the row is broken."""
        slack = self.slack[idx]
        if slack < 0:
            return False
        for v, weight in self.rows[idx]:
            if weight > slack and self.assignment[v] is None:
                self.assign(v, 1)
                queue.append(v)
        return True

    def propagate_all(self):
        """One full sweep followed by queue propagation (root node); an
        order program's fixings are queued like assignments."""
        queue = list(self.program.fixings) if self.n else []
        for idx in range(len(self.rows)):
            if not self._force_row(idx, queue):
                return False
        return self.propagate(queue)

    def propagate_row(self, idx):
        """Force row ``idx`` and propagate what it sets; False on conflict."""
        queue = []
        return self._force_row(idx, queue) and self.propagate(queue)


def solve(program: BinaryProgram, budget: NodeBudget):
    """Provably optimal 0/1 assignment, or raises InfeasibleError.

    Deterministic: branches on the first free variable of the branch order,
    preferred value first.  With a cap row, the optimum at the first
    feasible cap bound (see the module docstring).  ``budget`` counts the
    nodes of every level and of earlier solves that drew from it;
    IlpBudgetError (carrying the best incumbent and the nodes counted) is
    raised when it runs out before optimality is proven.  Raises
    ValueError for a row that is not a cover or a negative objective
    coefficient.
    """
    n = program.n_vars
    engine = _Engine(program)
    cap = program.cap

    # fixings were folded into the row slacks at engine construction; apply
    # the root implications they trigger
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
    if cap is not None:
        cap_row = engine.add_row(cap)
        # once its slack covers the weight of its variables free at the
        # root, no assignment breaks the cap, and a higher bound changes
        # nothing
        loose = sum(w for v, w in engine.rows[cap_row] if engine.assignment[v] is None)
    while True:
        if cap is None or engine.propagate_row(cap_row):
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
        if cap is None or engine.slack[cap_row] >= loose:
            raise InfeasibleError("no feasible assignment")
        engine.slack[cap_row] += 1
