"""Approximated complete-log alignment by composition and local repair.

Pipeline: align each case in isolation, union the per-case alignments
under the log's chronology, then let a 0/1 program adjust the cross-case
order so every resource capacity is respected.  Reversed order pairs mark
regions that cannot merely be rescheduled; each such region, a convex set
of moves, is re-aligned locally and substituted back.  The local
search is exact between the region's boundary markings, projected onto the
region's own cases: other cases' production tokens are dropped, every
resource token stays (see ``realign_interval``).  The result is always a
valid alignment, with cost at least the exact optimum.

The order program is local to the contention.  R is the composed order;
when it breaks no capacity row it is the optimum and no program is built.
Otherwise each group of contending cases gets the full program restricted
to its moves, every pair with a move outside the group keeping R's value,
and widens until that lifted order holds (see ``adjust_order``).

Every order is read as reachability rows (bit j of row i: move i before
move j): R's, a group's (R's restricted to its moves) and a changed one
(R's with the changed bits written in, and in its predecessor rows
transposed).  Every capacity row is summed by one evaluator,
``CapacityRows.total``, validity's linear bound ``align.least_left`` on its
instance's availability token: at R to find the contending cases, and at
every lifted order to check it.  The program over the 0/1 order variables
X_ij of a group's moves:

- same-case entries are fixed to R: individual alignments are preserved;
- removing a pair forces the reverse pair (a reversal); a cap row bounds
  the number of reversals, and the solver raises it from none to the first
  level that admits an order, so reversals are minimised first;
- the objective counts the cross-case pairs absent from R that an order
  adds (the infinitesimal tie-breaker of the underlying scheme); every
  order feasible at the first level reverses the same number of pairs, so
  no weight need rank reversals above additions;
- transitivity closes the order: antisymmetry rows, one witness row per
  transitively implied pair of R, and lazy cuts for every other triple;
- per move and resource instance the move takes, what it takes, plus the
  net claims of the net claimers not ordered after the move, minus the
  net releases of the net releasers ordered before it, fits the capacity.

The composed alignment is violating exactly when the optimum needs a
reversal, so the violation decision reads the first feasible reversal
level instead of enumerating the doubly-exponential permutation space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .align import (
    Alignment,
    CostTable,
    DEFAULT_COSTS,
    DEFAULT_NODE_BUDGET,
    Move,
    SearchBudgetError,
    SoundnessError,
    align_case,
    build_sync_product,
    case_spaces,
    effect_masks,
    is_valid_alignment,
    least_left,
    optimal_alignment,
    sync_warnings,
    token_counts,
    token_use,
)
from .eventlog import EventLog
from .ilp import BinaryProgram, NodeBudget, constraint, solve
from .lognet import build_log_net
from .poset import CycleError, Poset, set_bits
from .rcnu import ColoredMarking, FiringError, RcNuNet, scale_cases


DEFAULT_ILP_BUDGET = 2_000_000      # order-program nodes of one run, by default


class CompositionError(RuntimeError):
    pass


@dataclass
class ComposedAlignment:
    """Union of per-case alignments, ordered by their own orders plus the
    log order on event-carrying moves."""

    moves: tuple
    order: Poset            # over move indices, held as its reachability rows
    case_of: tuple          # per move, the owning case id

    def __len__(self):
        return len(self.moves)


def align_cases(net: RcNuNet, log: EventLog,
                costs: CostTable = DEFAULT_COSTS,
                node_budget: int = DEFAULT_NODE_BUDGET) -> dict:
    """Optimal alignment of each case's trace against the single-case model:
    ``align_case`` on the space of each variant's first case in id order
    (``case_spaces``); the variant's other cases get its moves with the k-th
    event replaced by their own k-th event and its case id by theirs."""
    out = {}
    for c, rep, space in case_spaces(net, log):
        out[c] = (align_case(space, costs, node_budget) if space is not None
                  else _renamed(out[rep], log, rep, c))
    return out


def _renamed(alignment: Alignment, log: EventLog, rep, case) -> Alignment:
    """``alignment`` of case ``rep`` moved to ``case``: each event to the
    event at its trace position, and ``rep`` in every mode to ``case``."""
    events = dict(zip(log.trace(rep), log.trace(case)))
    moves = [
        replace(mv, event=events.get(mv.event),
                mode=tuple((v, case if x == rep else x) for v, x in mv.mode))
        for mv in alignment.moves
    ]
    return Alignment(moves, alignment.order)


def compose(per_case: dict, log: EventLog) -> ComposedAlignment:
    """Union of the per-case alignments, cases in id order.

    Move ``i`` of case ``c`` gets composed index ``base + i``, where
    ``base`` counts the moves of the cases before ``c``, and keeps its
    case's order, its rows shifted by ``base``.  Each covering pair of the
    log, restricted to the event-carrying moves, sets one bit across cases.
    """
    if set(per_case) != set(log.cases()):
        raise CompositionError(
            f"per-case keys {sorted(per_case)} != log cases {log.cases()}"
        )
    cases = sorted(per_case)
    moves, rows = _place([(per_case[c].moves, per_case[c].order.rows(), 0, 0)
                          for c in cases])
    case_of = [c for c in cases for _ in per_case[c].moves]
    move_of_event = {}
    for idx, mv in enumerate(moves):
        if mv.kind != "model":
            move_of_event[mv.event] = idx
    for e1, e2 in log.restrict(move_of_event).covering_pairs():
        rows[move_of_event[e1]] |= 1 << move_of_event[e2]
    try:
        order = Poset.of_rows(range(len(moves)), rows)
    except CycleError as exc:
        raise CompositionError(f"composed order is cyclic: {exc}") from None
    return ComposedAlignment(tuple(moves), order, tuple(case_of))


def _place(blocks) -> tuple:
    """The moves and rows, not closed, of ``blocks`` laid out in turn.  A
    block ``(moves, rows, preceding, following)`` keeps its rows, shifted
    to its positions, after the earlier positions in ``preceding`` and
    before those in ``following``."""
    moves = []
    rows = []
    for block_moves, block_rows, preceding, following in blocks:
        base = len(moves)
        block = ((1 << len(block_moves)) - 1) << base
        for p in set_bits(preceding):
            rows[p] |= block
        moves.extend(block_moves)
        rows.extend(row << base | following for row in block_rows)
    return moves, rows


# ---------------------------------------------------------------------------
# The order-adjustment program
# ---------------------------------------------------------------------------

@dataclass
class CapacityRows:
    """The capacity rows of the composed moves: per resource instance, the
    ``effect_masks`` of its availability token, and the rows' sites.

    Computed once per ``adjust_order`` and shared by the contending-case
    finder, every program built and the lift check.  A row is read under
    an order's rows ``after`` (bit j of ``after[i]`` set iff move i is
    before move j) and predecessor rows ``before`` (bit j of ``before[i]``
    set iff move j is before move i): R's own, or R's with a program's
    changed pairs written in (``_with_changes``).
    """

    instances: tuple        # resource instance ids, fixed order
    capacities: tuple
    effects: list           # per instance index, its availability token's effect masks
    sites: dict             # per row, (its move, its instance's index) -> what the move takes

    def total(self, site, after, before) -> int:
        """The left side of the row at ``site``: what its move takes, less
        ``least_left`` of its instance's availability token."""
        return self.sites[site] - least_left(self.effects[site[1]], site[0], after, before)

    def broken(self, after, before) -> list:
        """The sites whose rows break under ``after`` and ``before``."""
        return [s for s in self.sites if self.total(s, after, before) > self.capacities[s[1]]]

    def named_cases(self, comp: ComposedAlignment, sites, after, before) -> set:
        """The cases the rows at ``sites`` name under ``after`` and
        ``before``: the case of each row's own move, and every case whose
        net claim in the row, ``least_left`` over its own moves negated, is
        positive."""
        named = set()
        for i, k in sites:
            named.add(comp.case_of[i])
            owned = {}      # per case, its moves with a net effect on the token
            for j in set_bits(sum(self.effects[k].values())):
                owned[comp.case_of[j]] = owned.get(comp.case_of[j], 0) | 1 << j
            named.update(c for c, mask in owned.items() if least_left(
                {e: m & mask for e, m in self.effects[k].items()}, i, after, before) < 0)
        return named


def capacity_rows(net: RcNuNet, tokens: dict) -> CapacityRows:
    """The capacity rows of the moves of the ``token_use`` table ``tokens``.

    The row ``const_vio[i,inst]`` at site ``(i, inst)`` is validity's linear
    bound on ``inst``'s availability token: what ``i`` takes, less
    ``least_left``, fits the capacity (``CapacityRows.total``).  The
    capacity plus ``least_left`` is at most what any linearization leaves
    before ``i``, so the rows are sufficient.  A row exists only where it
    can break, at a move that takes ``inst`` and exceeds the capacity with
    no order: an order only drops net consumers from ``least_left`` and
    adds net producers.
    """
    instances = sorted(net.resource_instances().support())
    capacities = tuple(net.resource_instances().count(r) for r in instances)
    effects = [{} for _ in instances]
    sites = {}
    for (p, (_, r)), moved in tokens.items():
        if r is not None and net.place_kind(p) == "resource":
            k = instances.index(r)
            effects[k] = effect_masks(moved)
            for i, (taken, _) in moved.items():
                unordered = {i: 0}          # i's rows in the empty order
                if taken and taken - least_left(effects[k], i, unordered, unordered) > capacities[k]:
                    sites[i, k] = taken
    return CapacityRows(tuple(instances), capacities, effects, dict(sorted(sites.items())))


@dataclass
class IlpInstance:
    moves: tuple            # the composed move at each program position
    R: tuple                # per position a, its row: bit b set iff a before b in R
    program: BinaryProgram = None

    @property
    def n(self) -> int:
        return len(self.moves)

    def var(self, a, b) -> int:
        return a * self.n + b

    def changes(self, assignment) -> dict:
        """The composed pairs whose value ``assignment`` changes from R,
        ``(i, j) -> 0/1``."""
        out = {}
        for v, value in enumerate(assignment):
            a, b = divmod(v, self.n)
            if value != self.R[a] >> b & 1:
                out[self.moves[a], self.moves[b]] = value
        return out


def build_ilp(comp: ComposedAlignment, use: CapacityRows, cases=None) -> IlpInstance:
    """The order-adjustment program of the composed alignment restricted to
    the moves of ``cases`` (all cases when None: the full program).

    The program is exactly the full program of the composition that has
    only those cases' moves: its variables are the ordered pairs among
    them, ``IlpInstance.var`` over their positions, and its rows mention no
    other move.  Row labels name the composed moves.  ``use`` is the
    composed order's ``capacity_rows``.  The group's order is read as R's
    rows restricted to its moves, and its predecessor rows.

    Minimum reversals first, then additions: the program's cap row bounds
    the number of kept pairs of R that flip, starting at none, and the
    solver raises it until the program is feasible.  At that first feasible
    level every feasible order flips exactly that many pairs (one flipping
    fewer would be feasible a level lower), so the objective need only
    count the added pairs: coefficient 1 on each cross-case pair that R
    leaves unordered both ways.  The cap lets propagation fix every other
    kept pair the moment one flips, which collapses the search tree that a
    single flat solve would explore.

    Transitivity is enforced by the antisymmetry rows, one witness row per
    transitively implied kept pair, and lazy cuts for every other triple,
    added when a complete candidate breaks one (the separation scheme of
    Groetschel, Juenger and Reinelt's cutting-plane algorithm for linear
    ordering, Oper. Res. 32(6), 1984).  How many triples are rows up front
    does not change the answer: at the first feasible reversal level the
    solver returns the first optimal leaf of its fixed branch order, and
    rows or cuts only prune subtrees that hold no feasible leaf.
    """
    moves = tuple(i for i in range(len(comp.moves))
                  if cases is None or comp.case_of[i] in cases)
    n = len(moves)
    order = comp.order.restrict(moves)
    R = order.rows()
    below = order.predecessor_rows()
    inst = IlpInstance(moves, R)
    var = inst.var

    objective = {}
    fixings = {}
    preferred = {}
    case_of = [comp.case_of[mv] for mv in moves]
    for i in range(n):
        for j in range(n):
            v = var(i, j)
            bit = R[i] >> j & 1
            preferred[v] = bit
            if case_of[i] == case_of[j]:
                fixings[v] = bit
            elif not (bit or below[i] >> j & 1):
                objective[v] = 1

    rows = []
    # removing an ordered pair flips it: X_ij + X_ji >= 1 where R_ij = 1
    for i in range(n):
        for j in set_bits(R[i]):
            rows.append(constraint(
                {var(i, j): -1, var(j, i): -1}, -1,
                f"const_rev_rem[{moves[i]},{moves[j]}]",
            ))
    # antisymmetry (transitivity row with k = i)
    for i in range(n):
        for j in range(i + 1, n):
            rows.append(constraint(
                {var(i, j): 1, var(j, i): 1}, 1,
                f"const_trans_clos[{moves[i]},{moves[j]},{moves[i]}]",
            ))
    # the capacity rows of these moves alone (see ``capacity_rows``), where
    # they exceed the capacity with no order: a net consumer j of the
    # token counts unless X_mj, a net producer only if X_jm
    position = {m: a for a, m in enumerate(moves)}
    local = sum(1 << m for m in moves)
    for (m, k), taken in use.sites.items():
        if local >> m & 1:
            effects = {e: mask & local for e, mask in use.effects[k].items()}
            unordered = {m: 0}          # m's rows in the empty order
            unfit = taken - least_left(effects, m, unordered, unordered) - use.capacities[k]
            if unfit > 0:
                a = position[m]
                coeffs = {var(a, position[j]) if e < 0 else var(position[j], a): -abs(e)
                          for e, mask in effects.items() for j in set_bits(mask & ~(1 << m))}
                rows.append(constraint(coeffs, -unfit, f"const_vio[{m},{use.instances[k]}]"))

    def transitivity(i, j, k):
        return constraint({var(i, j): 1, var(j, k): 1, var(i, k): -1}, 1,
                          f"const_trans_clos[{moves[i]},{moves[j]},{moves[k]}]")

    def lazy_transitivity(assignment):
        # the candidate's rows, diagonal cleared: i before j before k, and
        # i not before k
        after = [sum(1 << j for j, x in enumerate(assignment[i * n:(i + 1) * n]) if x)
                 & ~(1 << i) for i in range(n)]
        return [transitivity(i, j, k)
                for i in range(n) for j in set_bits(after[i])
                for k in set_bits(after[j] & ~after[i] & ~(1 << i))]

    # one witness transitivity row per transitively implied kept pair, the
    # lowest move between them, so flipping an implied pair conflicts the
    # moment its impliers are set
    kept = []               # (span, variable) per kept pair the program leaves free
    for i in range(n):
        for j in set_bits(R[i]):
            v = var(i, j)
            if v not in fixings:
                between = R[i] & below[j]
                if between:
                    rows.append(transitivity(i, (between & -between).bit_length() - 1, j))
                kept.append((between.bit_count(), v))

    # branch kept pairs by ascending span: direct (reduction) pairs are the
    # meaningful reversal candidates and get the expensive early flips,
    # implied pairs die instantly on their witness row; then the additions,
    # and (``solve`` appends them) the reversed pairs in index order
    keep_vars = [v for _, v in sorted(kept)]
    reversal_cap = constraint({v: -1 for v in keep_vars}, -len(keep_vars),
                              "reversal_cap")
    inst.program = BinaryProgram(
        n_vars=n * n,
        objective=objective,
        constraints=rows,
        fixings=fixings,
        preferred=preferred,
        lazy_rows=lazy_transitivity,
        branch_order=keep_vars + sorted(objective),
        cap=reversal_cap,
    )
    return inst


@dataclass(frozen=True)
class OrderSolution:
    changes: dict            # composed pairs (i, j) -> 0/1 whose value differs from R
    reversals: list          # (i, j) pairs newly ordered i before j, reversing j<i
    additions: list          # (i, j) pairs newly ordered with no prior relation
    x_order: Poset           # the adjusted order over move indices
    regions: list            # per realignment region, (members, before mask, after mask)
    free_cases: tuple        # sorted ids of the cases whose pairs were variables
    widenings: int           # widening steps before every lifted order held

    @property
    def violating(self) -> bool:
        return bool(self.reversals)


def contending_groups(comp: ComposedAlignment, use: CapacityRows, below) -> list:
    """The case sets of the capacity rows R breaks, merged where they meet;
    ``below`` is R's ``predecessor_rows``.

    A broken row's cases are the case of its own move and every case whose
    net claim in it, counted at R, is positive (``named_cases``).  Rows
    whose case sets share a case fall into one group; the groups are
    disjoint, sorted by their smallest case id, and empty when R fits.
    """
    after = comp.order.rows()
    groups = []
    for site in use.broken(after, below):
        cases = use.named_cases(comp, [site], after, below)
        for other in [g for g in groups if g & cases]:
            cases |= other
            groups.remove(other)
        groups.append(cases)
    return sorted((frozenset(g) for g in groups), key=min)


def _with_changes(rows, changes) -> list:
    """``rows`` with bit j of row i set to ``value`` for every ``(i, j) ->
    value`` of ``changes``; not closed."""
    out = list(rows)
    for (i, j), value in changes.items():
        out[i] = out[i] & ~(1 << j) | value << j
    return out


def _lift_failures(comp: ComposedAlignment, use: CapacityRows, inst: IlpInstance,
                   changes: dict, below) -> set:
    """The outside cases named by the full-program rows that the lift of a
    local program's order breaks.

    The lift is R with the program's pairs set as in ``changes`` (composed
    pair -> value): R's rows with the changed pairs written in, and R's
    predecessor rows ``below`` with each written in transposed.  Two kinds
    of rows can break there: a capacity row at one of the program's moves,
    whose terms for outside moves the program left out, and a transitivity
    triple with exactly one move outside the program, through a changed
    pair.  Every other row is a row of the program, or reads only pairs the
    lift keeps at R (a capacity row at an outside move: R breaks it only if
    its move belongs to another group, which settles it).  A broken
    capacity row names the cases with positive net claim in it at the
    lift, a broken triple the case of its outside move: one R puts after
    ``b`` but not ``a`` or before ``a`` but not ``b`` when ``(a, b)`` is
    set to 1, between them when it is set to 0.  The program's own cases
    are dropped from the names, so program moves there name nothing.
    """
    after = comp.order.rows()
    lifted = _with_changes(after, changes)
    lifted_below = _with_changes(below, {(j, i): v for (i, j), v in changes.items()})
    local = sum(1 << i for i in inst.moves)
    failing = [s for s in use.broken(lifted, lifted_below) if local >> s[0] & 1]
    named = use.named_cases(comp, failing, lifted, lifted_below)
    for (a, b), value in changes.items():
        if value:
            broken = after[b] & ~after[a] | below[a] & ~below[b]
        else:
            broken = after[a] & below[b]
        named.update(comp.case_of[o] for o in set_bits(broken))
    named.difference_update(comp.case_of[i] for i in inst.moves)
    if failing and not named:
        labels = [f"const_vio[{i},{use.instances[k]}]" for i, k in failing]
        raise SoundnessError(
            f"capacity rows {labels} fail at the lifted order without any "
            f"outside case claiming"
        )
    return named


def solve_and_extract(comp: ComposedAlignment, use: CapacityRows, groups, below,
                      node_budget: int = DEFAULT_ILP_BUDGET) -> OrderSolution:
    """Solve the local order program of every group of contending cases
    (see ``adjust_order``), widening a group until its lifted order holds,
    and extract the adjusted order.  ``below`` is R's ``predecessor_rows``.
    ``node_budget`` counts the nodes of every program solved, across
    groups, widening steps and reversal levels."""
    budget = NodeBudget(node_budget)
    pending = list(groups)
    solved = {}              # case set -> its changed pairs
    widenings = 0
    while pending:
        cases = pending.pop(0)
        inst = build_ilp(comp, use, cases)
        changes = inst.changes(solve(inst.program, budget)[0])
        named = _lift_failures(comp, use, inst, changes, below)
        if not named:
            solved[cases] = changes
            continue
        # a wider group absorbs every group it meets, solved ones included
        widenings += 1
        wider = cases | named
        for other in [g for g in pending + list(solved) if g & wider]:
            wider |= other
            if other in solved:
                del solved[other]
            else:
                pending.remove(other)
        pending.insert(0, wider)

    changes = {}
    for group_changes in solved.values():
        changes.update(group_changes)
    return extract_solution(comp, changes, tuple(sorted(set().union(*solved))), widenings)


def extract_solution(comp: ComposedAlignment, changes,
                     free_cases=(), widenings=0) -> OrderSolution:
    """Reversals, additions and realignment regions of an adjusted order:
    R with the composed pairs of ``changes`` (``(i, j) -> 0/1``, each
    differing from R) set to their value.

    Each reversal ``(i, j)`` disturbs the stretch of R from ``j`` to ``i``.
    The disturbed moves fall into the weakly connected components of
    comparability in the adjusted order, and each component ``C`` gives the
    region ``(C | up(C)) & (C | down(C))``, its convex hull: the moves
    above some member or in ``C``, and below some member or in ``C``.
    That is the interval from ``C``'s minimal to its maximal members, since
    every member lies above some minimal member and below some maximal
    one.  Regions come in the order of their components' smallest moves,
    each ``(members, down(C), up(C))``: its sorted move indices and the
    masks of the moves before, and after, some member (every member lies
    in ``C`` or between two of its members).  Boundary markings,
    substitution and report all read this one neighbourhood.
    """
    n = len(comp.moves)
    R_rows = comp.order.rows()
    reversals = []
    additions = []
    for (i, j), value in sorted(changes.items()):
        if value:
            (reversals if R_rows[j] >> i & 1 else additions).append((i, j))
    x_order = Poset.of_rows(range(n), _with_changes(R_rows, changes)) if changes else comp.order

    disturbed = 0
    for i, j in reversals:
        disturbed |= 1 << i | 1 << j
        disturbed |= sum(1 << k for k in set_bits(R_rows[j]) if R_rows[k] >> i & 1)

    regions = []
    if disturbed:
        above, below = x_order.rows(), x_order.predecessor_rows()
        covered = 0
        while disturbed:
            component = frontier = disturbed & -disturbed
            while frontier:
                reach = 0
                for x in set_bits(frontier):
                    reach |= above[x] | below[x]
                frontier = reach & disturbed & ~component
                component |= frontier
            disturbed &= ~component
            up = down = 0
            for x in set_bits(component):
                up |= above[x]
                down |= below[x]
            hull = (component | up) & (component | down)
            # regions are pairwise disjoint: overlap would merge the components
            if hull & covered:
                raise SoundnessError("interval regions overlap")
            covered |= hull
            regions.append((list(set_bits(hull)), down, up))
    return OrderSolution(changes, reversals, additions,
                         x_order, regions, free_cases, widenings)


def adjust_order(net: RcNuNet, comp: ComposedAlignment, tokens: dict,
                 node_budget: int = DEFAULT_ILP_BUDGET) -> OrderSolution:
    """The optimal adjusted order of a composed alignment; ``tokens`` is its
    moves' ``token_use`` table, which ``capacity_rows`` reads.  R's
    predecessor rows are computed once, for the broken rows and every lift.

    When R satisfies its own capacity rows it is the optimum, and no
    program is built: every other row family holds at R by construction
    (the reversal-removal rows keep R's pairs, antisymmetry and
    transitivity hold in a closed partial order, the same-case fixings and
    the level-0 reversal cap are R's own values), every objective
    coefficient is nonnegative, and R scores 0.  The solver would return
    exactly R too: its preferred values are R, and propagation cannot force
    a value R contradicts.

    Otherwise each group of contending cases (``contending_groups``) gets
    the program of the composition restricted to its cases (``build_ilp``),
    and the program's optimum is lifted: every pair with a move outside the
    group keeps R's value.  The lift is the full program's optimum once it
    satisfies the full program's rows, for two reasons:

    - the local optimum is a lower bound.  Restricting any feasible full
      order to the group's pairs satisfies the local program: its
      reversal-removal, antisymmetry, transitivity and same-case rows are
      rows of the full program, and in a capacity row every outside case's
      net claim is nonnegative (its moves ordered before the row's move
      form a prefix of the case's own order, which never releases more
      than it claims, and its other net claimers only add), so dropping
      those terms keeps the row.  Its objective counts a subset of the
      full order's added pairs, and its reversals a subset of the full
      order's reversals.  Groups are disjoint in cases, hence in pairs, so
      the bounds add up;
    - the lift attains the bound: outside pairs keep R's values, which
      score 0.

    Capacity rows at moves outside the group read only pairs the lift
    keeps at R: R satisfies them unless their move belongs to another
    group, whose own program settles them (groups share no pair).  So the
    lift is checked against the capacity rows at the group's moves and the
    transitivity triples with one outside move (``_lift_failures``).  When
    one fails, the group widens by the cases the failing rows name and
    absorbs every group it meets; the program is built again.  Each step
    adds a case, so the widening ends at all cases at the latest, where the
    program is the full program and its lift is its own optimum.
    """
    use = capacity_rows(net, tokens)
    below = comp.order.predecessor_rows()
    groups = contending_groups(comp, use, below)
    if not groups:
        return extract_solution(comp, {})
    return solve_and_extract(comp, use, groups, below, node_budget)


# ---------------------------------------------------------------------------
# Local realignment and substitution
# ---------------------------------------------------------------------------

@dataclass
class IntervalRealignment:
    region: tuple            # composed-move indices replaced, sorted
    before: int              # mask of the composed moves before some region move
    after: int               # mask of the composed moves after some region move
    alignment: Alignment     # the substitute
    fallback: bool           # True when the split construction was used


def _split_fallback(comp: ComposedAlignment, x_order: Poset, region, log: EventLog) -> Alignment:
    """Split every synchronous move of the region into a model move plus a
    log move: the model parts keep the adjusted order, the log parts the
    order of ``log`` (restricted to the region).  Always a valid sub-alignment."""
    moves = []
    model_part = {}
    log_part = {}
    for i in region:
        mv = comp.moves[i]
        if mv.kind == "sync":
            model_part[i] = len(moves)
            moves.append(Move("model", transition=mv.transition, mode=mv.mode,
                              label=mv.label))
            log_part[i] = len(moves)
            moves.append(Move("log", event=mv.event, label=mv.event.activity))
        elif mv.kind == "model":
            model_part[i] = len(moves)
            moves.append(mv)
        else:
            log_part[i] = len(moves)
            moves.append(mv)
    model = sum(1 << i for i in model_part)
    rows = [0] * len(moves)
    for i, k in model_part.items():
        rows[k] = sum(1 << model_part[j] for j in set_bits(x_order.rows()[i] & model))
    event_move = {comp.moves[i].event: k for i, k in log_part.items()}
    for e1, e2 in log.covering_pairs():
        rows[event_move[e1]] |= 1 << event_move[e2]
    return Alignment(tuple(moves), Poset.of_rows(range(len(moves)), rows))


def _boundary_marking(net: RcNuNet, effects: dict, members, idle) -> ColoredMarking:
    """The net's marking after the moves in the mask ``members``, their
    pseudo-marking (the initial count plus popcounts of ``effect_masks``),
    without the production-place tokens of the ``idle`` cases; resource
    places keep every token.  Raises FiringError at a negative count."""
    counts = token_counts(net.initial)
    for pair, masks in effects.items():
        counts[pair] = counts.get(pair, 0) + sum(
            e * (mask & members).bit_count() for e, mask in masks.items())
    tokens = {}
    for (p, tok), n in counts.items():
        if n < 0:
            raise FiringError(f"pseudo-marking negative at {p}/{tok!r}")
        if n and (net.place_kind(p) != "production" or tok[0] not in idle):
            tokens.setdefault(p, {})[tok] = n
    return ColoredMarking(tokens)


def realign_interval(net: RcNuNet, comp: ComposedAlignment, x_order: Poset,
                     region, log: EventLog, effects: dict,
                     costs: CostTable = DEFAULT_COSTS,
                     node_budget: int = DEFAULT_NODE_BUDGET) -> IntervalRealignment:
    """Optimal alignment of the events of ``region``, an entry of
    ``OrderSolution.regions`` (convex in ``x_order``): a search of the
    product of the sub-log's net and ``net.with_markings`` the region's
    boundary markings, or the sync-splitting construction when the search
    cannot connect them.

    The pre-marking fires the region's ``before`` mask, every outside move
    before *any* member, not just the prefix of the minimal members: those
    need not form a full cut, and a lateral predecessor left out would be
    re-derived inside the realignment and fire twice in the substituted
    alignment.  ``_substitute`` places the block after exactly those
    moves.  Both markings are popcounts of the run's ``effect_masks`` per
    (place, token) (``effects``) with the boundary's move mask.

    The search runs over the region's own cases: both boundary markings
    drop the production-place tokens of every case that owns no move in
    the region, and keep every resource-place token.  Otherwise the
    search spends its budget interleaving idle cases' silent moves.  This
    is sound:

    - extra tokens never disable a transition, so every run from the
      projected start, with the dropped tokens put back untouched, is a
      run from the full boundary marking;
    - a case with no move in the region holds the same tokens at both
      bounds (the pre-marking and the post-marking differ only by region
      moves), so that run also ends at the full goal;
    - fresh names are decided alike: the product's pool draws only from
      the sub-log's case ids, all owned by region cases whose tokens are
      kept, plus one spare, and the resource identifiers stay in the
      marking.
    """
    members, before, after = region
    region = tuple(members)
    region_mask = sum(1 << m for m in region)
    pre = before & ~region_mask
    events = sorted(
        (comp.moves[i].event for i in region if comp.moves[i].kind != "model"),
        key=lambda e: e.index,
    )
    sub_log = log.restrict(events)
    idle = set(comp.case_of).difference(comp.case_of[i] for i in region)
    try:
        bounded = net.with_markings(_boundary_marking(net, effects, pre, idle),
                                    _boundary_marking(net, effects, pre | region_mask, idle))
        prod = build_sync_product(bounded, build_log_net(sub_log))
        alignment = optimal_alignment(prod, costs, node_budget)
        return IntervalRealignment(region, before, after, alignment, False)
    except (SearchBudgetError, FiringError):
        alignment = _split_fallback(comp, x_order, region, sub_log)
        return IntervalRealignment(region, before, after, alignment, True)


def _substitute(comp: ComposedAlignment, x_order: Poset, realignments) -> tuple:
    """Replace each region by its realignment, placed (``_place``) after the
    remainder moves in its ``before`` mask and before those in its
    ``after`` mask; the remainder keeps the adjusted order.  Returns the
    alignment and the remainder's composed indices, its first moves."""
    replaced = sum(1 << i for r in realignments for i in r.region)
    remainder = [i for i in range(len(comp.moves)) if not replaced >> i & 1]

    def positions(mask):
        return sum(1 << p for p, i in enumerate(remainder) if mask >> i & 1)

    blocks = [([comp.moves[i] for i in remainder], x_order.restrict(remainder).rows(), 0, 0)]
    blocks += [(r.alignment.moves, r.alignment.order.rows(), positions(r.before),
                positions(r.after)) for r in realignments]
    moves, rows = _place(blocks)
    return Alignment(tuple(moves), Poset.of_rows(range(len(moves)), rows)), remainder


@dataclass
class ApproxResult:
    alignment: Alignment
    composed: ComposedAlignment
    per_case: dict
    solution: OrderSolution
    realignments: list
    valid: bool
    witness: str | None
    warnings: list           # ``sync_warnings`` of the net and log

    def cost(self, costs: CostTable = DEFAULT_COSTS) -> int:
        return self.alignment.cost(costs)


def approximate_alignment(net: RcNuNet, log: EventLog,
                          costs: CostTable = DEFAULT_COSTS,
                          node_budget: int = DEFAULT_NODE_BUDGET,
                          ilp_budget: int = DEFAULT_ILP_BUDGET) -> ApproxResult:
    """The full pipeline: per-case alignments, composition, order program,
    local realignments, substitution, and a validity check of the result.

    The composed moves are bound once, into the ``token_use`` table the
    capacity rows, boundaries and validity read; validity binds only new moves."""
    scaled = scale_cases(net, log.cases())
    per_case = align_cases(net, log, costs, node_budget)
    comp = compose(per_case, log)
    bound = {}              # move index -> its firing_effect
    tokens = token_use(scaled, comp.moves, bound)
    sol = adjust_order(scaled, comp, tokens, ilp_budget)

    if not sol.regions:
        gamma = Alignment(comp.moves, sol.x_order)
        realignments = []
    else:
        effects = {pair: effect_masks(moved) for pair, moved in tokens.items()}
        realignments = [realign_interval(scaled, comp, sol.x_order, region, log, effects,
                                         costs, node_budget) for region in sol.regions]
        del effects         # the masks span every move, too large to keep at 10^4 moves
        gamma, kept = _substitute(comp, sol.x_order, realignments)
        tokens = token_use(scaled, gamma.moves,
                           {k: bound[i] for k, i in enumerate(kept) if i in bound})

    ok, witness = is_valid_alignment(scaled, log, gamma, tokens)
    return ApproxResult(gamma, comp, per_case, sol, realignments, ok, witness,
                        sync_warnings(net, log))
