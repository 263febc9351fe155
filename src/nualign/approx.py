"""Approximated complete-log alignment by composition and local repair.

Pipeline: align each case in isolation, union the per-case alignments
under the log's chronology, then let a 0/1 program adjust the cross-case
order so every resource capacity is respected.  Reversed order pairs mark
regions that cannot merely be rescheduled; each such region becomes an
interval that is re-aligned locally and substituted back.  The local
search is exact between the region's boundary markings, projected onto the
region's own cases: other cases' production tokens are dropped, every
resource token stays (see ``realign_interval``).  The result is always a
valid alignment, with cost at least the exact optimum.

The program over the order matrix X (R is the composed order):

- same-case entries are fixed to R: individual alignments are preserved;
- removing a pair forces the reverse pair (reversal, objective weight
  1000);
- pairs absent from R cost 1 when added (the infinitesimal tie-breaker of
  the underlying scheme, scaled to integers -- sound while any solution
  adds fewer than 1000 pairs, which is checked);
- transitivity rows close the order (eager for interacting triples, lazy
  cuts for the rest);
- per move and resource instance the move claims, the claims of everything
  not ordered after the move, minus the releases ordered strictly before
  it, fit the capacity.

The composed alignment is violating exactly when the optimum needs a
reversal, so the violation decision reads the reversal component of the
objective instead of enumerating the doubly-exponential permutation space.
"""

from __future__ import annotations

from dataclasses import dataclass

from .align import (
    Alignment,
    CostTable,
    DEFAULT_COSTS,
    DEFAULT_NODE_BUDGET,
    Move,
    PseudoMarking,
    SearchBudgetError,
    SoundnessError,
    _prefix_marking,
    build_sync_product,
    is_valid_alignment,
    optimal_alignment,
    pseudo_fire,
    sync_warnings,
)
from .eventlog import EventLog
from .ilp import BinaryProgram, IlpBudgetError, InfeasibleError, constraint, solve
from .lognet import build_log_net
from .petri import FiringError
from .poset import Multiset, Poset
from .rcnu import ColoredMarking, RcNuNet, firing_effect, scale_cases

REVERSAL_WEIGHT = 1000
ADDITION_WEIGHT = 1

#: all-triples transitivity fits comfortably up to this many moves
FULL_TRANSITIVITY_LIMIT = 26


class CompositionError(RuntimeError):
    pass


@dataclass
class ComposedAlignment:
    """Union of per-case alignments, ordered by their own chains plus the
    log order on event-carrying moves."""

    moves: tuple
    order: Poset            # over move indices, transitively closed
    case_of: tuple          # per move, the owning case id
    per_case: dict          # case id -> Alignment

    def __len__(self):
        return len(self.moves)

    def case_indices(self):
        by_case = {}
        for i, c in enumerate(self.case_of):
            by_case.setdefault(c, []).append(i)
        return by_case


def align_cases(net: RcNuNet, log: EventLog,
                costs: CostTable = DEFAULT_COSTS,
                node_budget: int = DEFAULT_NODE_BUDGET,
                spare_count=None) -> dict:
    """Optimal alignment of each case's trace against the single-case model."""
    out = {}
    for c in log.cases():
        single = scale_cases(net, [c])
        prod = build_sync_product(single, build_log_net(log.project_case(c)),
                                  spare_count=spare_count)
        out[c] = optimal_alignment(prod, costs, node_budget)
    return out


def compose(per_case: dict, log: EventLog) -> ComposedAlignment:
    """Union of the per-case alignments; indices are (case id, chain position) ordered."""
    if set(per_case) != set(log.cases()):
        raise CompositionError(
            f"per-case keys {sorted(per_case)} != log cases {log.cases()}"
        )
    moves = []
    case_of = []
    pairs = []
    for c in sorted(per_case):
        alignment = per_case[c]
        base = len(moves)
        chain = sorted(
            range(len(alignment.moves)),
            key=lambda i: (len(alignment.order.prefix(frozenset([i])).elements), i),
        )
        index_map = {}
        for pos, i in enumerate(chain):
            index_map[i] = base + pos
            moves.append(alignment.moves[i])
            case_of.append(c)
        for i, j in alignment.order.closed_pairs():
            pairs.append((index_map[i], index_map[j]))
    # log chronology on event-carrying moves
    move_of_event = {}
    for idx, mv in enumerate(moves):
        if mv.kind != "model":
            move_of_event[mv.event] = idx
    for e1, e2 in log.order.closed_pairs():
        if e1 in move_of_event and e2 in move_of_event:
            pairs.append((move_of_event[e1], move_of_event[e2]))
    try:
        order = Poset(range(len(moves)), pairs).transitive_closure()
    except Exception as exc:
        raise CompositionError(f"composed order is cyclic: {exc}") from None
    return ComposedAlignment(tuple(moves), order, tuple(case_of), dict(per_case))


# ---------------------------------------------------------------------------
# Violation criteria
# ---------------------------------------------------------------------------

def _claims_and_releases(net: RcNuNet, move):
    """Availability-place effects of a move: ({instance: claimed}, {instance: released})."""
    claims, releases = {}, {}
    if move.kind == "log":
        return claims, releases
    for effect, out in zip(firing_effect(net, move.transition, move.binding()),
                           (claims, releases)):
        for p, (_, r), n in effect:
            if r is not None and net.place_kind(p) == "resource":
                out[r] = out.get(r, 0) + n
    return claims, releases


def violating_antichain(net: RcNuNet, comp: ComposedAlignment, g) -> bool:
    """Whether the moves of antichain ``g`` jointly over-claim some instance
    given the availability their open prefix leaves."""
    g = frozenset(g)
    if not comp.order.is_antichain(g):
        raise ValueError("not an antichain of the composed alignment")
    prefix = comp.order.prefix(g, closed=False)
    pm = pseudo_fire(net, [comp.moves[i] for i in sorted(prefix.elements)])
    demand = {}
    for i in g:
        for inst, n in _claims_and_releases(net, comp.moves[i])[0].items():
            demand[inst] = demand.get(inst, 0) + n
    for role in net.roles:
        for inst, n in demand.items():
            if net.role_of_instance(inst) == role.name:
                if pm.value(role.available_place, (None, inst)) < n:
                    return True
    return False


# ---------------------------------------------------------------------------
# The order-adjustment program
# ---------------------------------------------------------------------------

@dataclass
class IlpInstance:
    n: int
    instances: tuple        # resource instance ids, fixed order
    capacities: tuple
    R: list                 # n x n binary, R[i][j] = 1 iff i before j
    C_clm: list             # n x n_r claim counts
    C_rls: list             # n x n_r release counts
    program: BinaryProgram
    case_blocks: list       # index lists per case, in case order

    def var(self, i, j) -> int:
        return i * self.n + j

    def pair(self, v) -> tuple:
        return divmod(v, self.n)


def build_ilp(net: RcNuNet, comp: ComposedAlignment) -> IlpInstance:
    """The order-adjustment program of a composed alignment.

    Capacity rows exist only at moves that claim the instance.  This is
    sound: availability falls only at a claim, so in every linearization an
    instance's usage peaks right after some claim fires.  When move ``i``
    claims, the moves fired so far are among those not ordered after ``i``,
    and every release ordered strictly before ``i`` has fired, so the row's
    left side (claims not after ``i`` minus releases strictly before ``i``)
    bounds that usage.  The rows at claims therefore bound every peak.
    """
    n = len(comp.moves)
    instances = sorted(net.resource_instances().support())
    capacities = tuple(net.resource_instances().count(r) for r in instances)
    inst_index = {r: k for k, r in enumerate(instances)}

    R = [[0] * n for _ in range(n)]
    for i, j in comp.order.closed_pairs():
        R[i][j] = 1
    C_clm = [[0] * len(instances) for _ in range(n)]
    C_rls = [[0] * len(instances) for _ in range(n)]
    for i, mv in enumerate(comp.moves):
        claims, releases = _claims_and_releases(net, mv)
        for r, c in claims.items():
            C_clm[i][inst_index[r]] = c
        for r, c in releases.items():
            C_rls[i][inst_index[r]] = c

    def var(i, j):
        return i * n + j

    objective = {}
    fixings = {}
    preferred = {}
    by_case = comp.case_indices()
    case_blocks = [by_case[c] for c in sorted(by_case)]
    same_case = set()
    for block in case_blocks:
        for i in block:
            for j in block:
                same_case.add((i, j))
    for i in range(n):
        for j in range(n):
            v = var(i, j)
            preferred[v] = R[i][j]
            if i == j or (i, j) in same_case:
                fixings[v] = R[i][j]
            if R[i][j] == 0 and i != j:
                objective[v] = REVERSAL_WEIGHT if R[j][i] else ADDITION_WEIGHT

    rows = []
    # removing an ordered pair flips it: X_ij + X_ji >= 1 where R_ij = 1
    for i in range(n):
        for j in range(n):
            if i != j and R[i][j]:
                rows.append(constraint(
                    {var(i, j): -1, var(j, i): -1}, "<=", -1,
                    f"const_rev_rem[{i},{j}]",
                ))
    # antisymmetry (transitivity row with k = i)
    for i in range(n):
        for j in range(i + 1, n):
            rows.append(constraint(
                {var(i, j): 1, var(j, i): 1}, "<=", 1,
                f"const_trans_clos[{i},{j},{i}]",
            ))
    # capacity rows
    for i in range(n):
        for k, inst in enumerate(instances):
            coeffs = {}
            total_claims = 0
            for j in range(n):
                if C_clm[j][k]:
                    total_claims += C_clm[j][k]
                    if j != i:
                        coeffs[var(i, j)] = coeffs.get(var(i, j), 0) - C_clm[j][k]
                if C_rls[j][k] and j != i:
                    coeffs[var(j, i)] = coeffs.get(var(j, i), 0) - C_rls[j][k]
            if C_clm[i][k] and total_claims > capacities[k]:
                rows.append(constraint(
                    coeffs, "<=", capacities[k] - total_claims,
                    f"const_vio[{i},{inst}]",
                ))

    # transitivity: all triples eagerly while the cubic count is cheap;
    # beyond that, eager rows for pairwise-interacting triples plus lazy
    # cuts for the rest (composed alignments at that scale are dominated by
    # already-ordered pairs, so few cuts ever fire)
    full_eager = n <= FULL_TRANSITIVITY_LIMIT
    if full_eager:
        neighbours = [[j for j in range(n) if j != i] for i in range(n)]
    else:
        touched = [
            {k for k in range(len(instances)) if C_clm[i][k] or C_rls[i][k]}
            for i in range(n)
        ]
        neighbours = [
            [j for j in range(n) if j != i
             and ((i, j) in same_case or touched[i] & touched[j])]
            for i in range(n)
        ]
    neighbour_sets = [set(row) for row in neighbours]

    seen = set()
    for i in range(n):
        for j in neighbours[i]:
            both = neighbour_sets[i] & neighbour_sets[j]
            for k in sorted(both):
                seen.add((i, j, k))
                rows.append(constraint(
                    {var(i, j): 1, var(j, k): 1, var(i, k): -1}, "<=", 1,
                    f"const_trans_clos[{i},{j},{k}]",
                ))

    def lazy_transitivity(assignment):
        violated = []
        before = [
            [assignment[var(i, j)] for j in range(n)] for i in range(n)
        ]
        for i in range(n):
            for j in range(n):
                if i != j and before[i][j]:
                    for k in range(n):
                        if k not in (i, j) and before[j][k] and not before[i][k]:
                            violated.append(constraint(
                                {var(i, j): 1, var(j, k): 1, var(i, k): -1},
                                "<=", 1, f"const_trans_clos[{i},{j},{k}]",
                            ))
        return violated

    # one witness transitivity row per transitively implied kept pair, so
    # flipping an implied pair conflicts the moment its impliers are set
    span = {}
    keep_vars = []
    for i in range(n):
        for j in range(n):
            if i != j and R[i][j] and var(i, j) not in fixings:
                witness = next(
                    (x for x in range(n) if x not in (i, j) and R[i][x] and R[x][j]),
                    None,
                )
                mid = 0
                if witness is not None:
                    mid = sum(1 for x in range(n) if R[i][x] and R[x][j])
                    key = (i, witness, j)
                    if key not in seen:
                        seen.add(key)
                        rows.append(constraint(
                            {var(i, witness): 1, var(witness, j): 1, var(i, j): -1},
                            "<=", 1, f"const_trans_clos[{i},{witness},{j}]",
                        ))
                span[var(i, j)] = mid
                keep_vars.append(var(i, j))

    # branch kept pairs by ascending span: direct (reduction) pairs are the
    # meaningful reversal candidates and get the expensive early flips,
    # implied pairs die instantly on their witness row
    keep_vars.sort(key=lambda v: (span[v], v))
    additions = sorted(
        v for v, c in objective.items() if c == ADDITION_WEIGHT and v not in fixings
    )
    ordered = keep_vars + additions
    placed = set(ordered)
    ordered.extend(
        v for v in range(n * n) if v not in fixings and v not in placed
    )
    program = BinaryProgram(
        n_vars=n * n,
        objective=objective,
        constraints=rows,
        fixings=fixings,
        preferred=preferred,
        warm_starts=[block_triangular_assignment_raw(n, R, case_blocks)],
        lazy_rows=None if full_eager else lazy_transitivity,
        branch_order=ordered,
    )
    return IlpInstance(n, tuple(instances), capacities, R, C_clm, C_rls,
                       program, case_blocks)


def block_triangular_assignment_raw(n, R, case_blocks):
    """The always-feasible order: cases fully serialized in block order,
    each case keeping its own alignment order."""
    assignment = [0] * (n * n)
    block_of = {}
    for b, block in enumerate(case_blocks):
        for i in block:
            block_of[i] = b
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if block_of[i] == block_of[j]:
                assignment[i * n + j] = R[i][j]
            elif block_of[i] < block_of[j]:
                assignment[i * n + j] = 1
    return assignment


def block_triangular_assignment(inst: IlpInstance):
    return block_triangular_assignment_raw(inst.n, inst.R, inst.case_blocks)


@dataclass
class OrderSolution:
    assignment: tuple
    objective: int
    reversals: list          # (i, j) pairs newly ordered i before j, reversing j<i
    additions: list          # (i, j) pairs newly ordered with no prior relation
    x_order: Poset           # the adjusted order over move indices
    intervals: list          # (A, B) antichain pairs under the adjusted order
    regions: list            # per interval, the sorted move indices it spans

    @property
    def violating(self) -> bool:
        return bool(self.reversals)


def _solve_lexicographic(inst: IlpInstance, node_budget: int):
    """Minimum reversals first, then additions.

    A reversal (weight 1000) always outweighs the additions it could save
    (fewer than 1000, checked), so the optimum has the smallest feasible
    reversal count.  Solving under an increasing reversal-cardinality cap
    lets propagation fix every other kept pair the moment one flips, which
    collapses the search tree that a single flat solve would explore.
    """
    from dataclasses import replace as dc_replace

    n = inst.n
    keep_vars = []
    for i in range(n):
        for j in range(n):
            v = inst.var(i, j)
            if inst.R[i][j] and v not in inst.program.fixings:
                keep_vars.append(v)
    spent = 0
    for k in range(len(keep_vars) + 1):
        cardinality = constraint(
            {v: -1 for v in keep_vars}, "<=", k - len(keep_vars),
            f"reversal_cap[{k}]",
        )
        program_k = dc_replace(
            inst.program,
            constraints=inst.program.constraints + [cardinality],
        )
        try:
            return solve(program_k, node_budget - spent)
        except InfeasibleError:
            continue
    raise InfeasibleError("no feasible order at any reversal count")


def solve_and_extract(net: RcNuNet, comp: ComposedAlignment,
                      inst: IlpInstance, node_budget: int = 2_000_000) -> OrderSolution:
    assignment, objective = _solve_lexicographic(inst, node_budget)
    n = inst.n
    reversals = []
    additions = []
    x_pairs = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if assignment[inst.var(i, j)]:
                x_pairs.append((i, j))
                if not inst.R[i][j]:
                    if inst.R[j][i]:
                        reversals.append((i, j))
                    else:
                        additions.append((i, j))
    if len(additions) >= REVERSAL_WEIGHT:
        raise SoundnessError(
            f"{len(additions)} added pairs reached the reversal weight "
            f"{REVERSAL_WEIGHT}; the integer objective no longer separates "
            f"the two terms"
        )
    x_order = Poset(range(n), x_pairs)

    # elements disturbed by reversals: the original-order stretch j..i
    disturbed = set()
    for i, j in reversals:
        stretch = comp.order.interval(frozenset([j]), frozenset([i]))
        disturbed.update(stretch.elements)

    intervals = []
    regions = []
    if disturbed:
        # weakly connected components under comparability in the new order
        remaining = sorted(disturbed)
        seen = set()
        for seed in remaining:
            if seed in seen:
                continue
            component = {seed}
            frontier = [seed]
            while frontier:
                x = frontier.pop()
                for y in remaining:
                    if y not in component and (
                        x_order.precedes(x, y) or x_order.precedes(y, x)
                    ):
                        component.add(y)
                        frontier.append(y)
            seen |= component
            sub = x_order.restrict(sorted(component))
            a, b = sub.minimum(), sub.maximum()
            region = x_order.interval(a, b)
            intervals.append((a, b))
            regions.append(sorted(region.elements))
    # regions are pairwise disjoint: overlap would merge the components
    flat = [i for region in regions for i in region]
    if len(flat) != len(set(flat)):
        raise SoundnessError("interval regions overlap")
    return OrderSolution(tuple(assignment), objective, reversals, additions,
                         x_order, intervals, regions)


def is_violating(net: RcNuNet, comp: ComposedAlignment,
                 node_budget: int = 2_000_000) -> bool:
    """Composed-alignment violation, decided by the order program: some
    reversal is unavoidable iff no permutation respects the capacities."""
    inst = build_ilp(net, comp)
    sol = solve_and_extract(net, comp, inst, node_budget)
    return sol.violating


# ---------------------------------------------------------------------------
# Local realignment and substitution
# ---------------------------------------------------------------------------

def _pseudo_to_marking(pm: PseudoMarking) -> ColoredMarking:
    tokens = {}
    for (p, tok), n in pm.items():
        if n < 0:
            raise FiringError(f"pseudo-marking negative at {p}/{tok!r}")
        tokens.setdefault(p, {})[tok] = n
    return ColoredMarking({p: Multiset(d) for p, d in tokens.items()})


@dataclass
class IntervalRealignment:
    bounds: tuple            # (A, B) antichains of composed-move indices
    region: tuple            # composed-move indices replaced
    alignment: Alignment     # the substitute
    fallback: bool           # True when the split construction was used


def _split_fallback(comp: ComposedAlignment, x_order: Poset, region, log: EventLog) -> Alignment:
    """Split every synchronous move of the region into a model move plus a
    log move: the model parts keep the adjusted order, the log parts keep
    the log order.  Always a valid sub-alignment."""
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
    pairs = []
    for i in region:
        for j in region:
            if i != j and i in model_part and j in model_part and x_order.precedes(i, j):
                pairs.append((model_part[i], model_part[j]))
    event_move = {comp.moves[i].event: k for i, k in log_part.items()}
    for e1, e2 in log.order.closed_pairs():
        if e1 in event_move and e2 in event_move:
            pairs.append((event_move[e1], event_move[e2]))
    return Alignment(tuple(moves), Poset(range(len(moves)), pairs).transitive_closure())


def _without_cases(net: RcNuNet, marking: ColoredMarking, cases) -> ColoredMarking:
    """``marking`` minus the production-place tokens of ``cases``; resource
    places, availability and busy alike, keep every token."""
    return ColoredMarking({
        p: Multiset({tok: n for tok, n in marking.get(p).items() if tok[0] not in cases})
        if net.place_kind(p) == "production" else marking.get(p)
        for p in marking.places()
    })


def realign_interval(net: RcNuNet, comp: ComposedAlignment, x_order: Poset,
                     a, b, log: EventLog,
                     costs: CostTable = DEFAULT_COSTS,
                     node_budget: int = DEFAULT_NODE_BUDGET,
                     spare_count=None) -> IntervalRealignment:
    """Optimal alignment of the interval's events between its boundary
    markings; falls back to the sync-splitting construction when the local
    search cannot connect them.

    The pre-marking fires every outside move ordered before *any* region
    member, not just the lower antichain's prefix: the region's lower bound
    need not be a full cut, and a lateral predecessor left out of the
    boundary marking would be re-derived inside the realignment and then
    fire twice in the substituted alignment.  (The substitution orders
    exactly those moves before the block, so the boundary is consistent.)

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
    region = sorted(x_order.interval(a, b).elements)
    region_set = set(region)
    pre_set = [
        x for x in x_order.elements
        if x not in region_set
        and any(x_order.precedes(x, m) for m in region)
    ]
    events = sorted(
        (comp.moves[i].event for i in region if comp.moves[i].kind != "model"),
        key=lambda e: e.index,
    )
    sub_log = log.restrict(events)
    idle = set(comp.case_of).difference(comp.case_of[i] for i in region)
    try:
        m_a = _pseudo_to_marking(pseudo_fire(
            net, [comp.moves[i] for i in sorted(pre_set)]
        ))
        m_b = _pseudo_to_marking(pseudo_fire(
            net, [comp.moves[i] for i in sorted(pre_set) + region]
        ))
        sub_net = build_log_net(sub_log)
        prod = build_sync_product(net, sub_net, spare_count=spare_count)
        start = (_prefix_marking(_without_cases(net, m_a, idle), "m::")
                 | _prefix_marking(sub_net.initial, "l::"))
        goal = (_prefix_marking(_without_cases(net, m_b, idle), "m::")
                | _prefix_marking(sub_net.final, "l::"))
        alignment = optimal_alignment(prod, costs, node_budget, start=start, goal=goal)
        return IntervalRealignment((a, b), tuple(region), alignment, False)
    except (SearchBudgetError, FiringError):
        alignment = _split_fallback(comp, x_order, region, log)
        return IntervalRealignment((a, b), tuple(region), alignment, True)


def _substitute(comp: ComposedAlignment, x_order: Poset,
                realignments) -> Alignment:
    """Replace each region by its realignment; the remainder keeps the
    adjusted order, and each region is ordered as a block relative to it."""
    replaced = set()
    for r in realignments:
        replaced.update(r.region)
    remainder = [i for i in range(len(comp.moves)) if i not in replaced]

    moves = []
    new_index = {}
    for i in remainder:
        new_index[i] = len(moves)
        moves.append(comp.moves[i])
    block_members = []
    for r in realignments:
        base = len(moves)
        members = []
        for k, mv in enumerate(r.alignment.moves):
            members.append(base + k)
            moves.append(mv)
        block_members.append(members)

    pairs = []
    for i in remainder:
        for j in remainder:
            if i != j and x_order.precedes(i, j):
                pairs.append((new_index[i], new_index[j]))
    for r, members in zip(realignments, block_members):
        base = members[0]
        for i, j in r.alignment.order.closed_pairs():
            pairs.append((base + i, base + j))
        region = set(r.region)
        for i in remainder:
            before = any(x_order.precedes(i, k) for k in region)
            after = any(x_order.precedes(k, i) for k in region)
            if before:
                pairs.extend((new_index[i], m) for m in members)
            elif after:
                pairs.extend((m, new_index[i]) for m in members)
    return Alignment(tuple(moves), Poset(range(len(moves)), pairs).transitive_closure())


@dataclass
class ApproxResult:
    alignment: Alignment
    composed: ComposedAlignment
    per_case: dict
    solution: OrderSolution
    realignments: list
    valid: bool
    witness: str | None
    warnings: list           # the sync product's warnings, as the exact engine reports them

    def cost(self, costs: CostTable = DEFAULT_COSTS) -> int:
        return self.alignment.cost(costs)


def approximate_alignment(net: RcNuNet, log: EventLog,
                          costs: CostTable = DEFAULT_COSTS,
                          node_budget: int = DEFAULT_NODE_BUDGET,
                          ilp_budget: int = 2_000_000,
                          spare_count=None) -> ApproxResult:
    """The full pipeline: per-case alignments, composition, order program,
    local realignments, substitution, and a validity check of the result."""
    scaled = scale_cases(net, log.cases())
    per_case = align_cases(net, log, costs, node_budget, spare_count)
    comp = compose(per_case, log)
    inst = build_ilp(scaled, comp)
    sol = solve_and_extract(scaled, comp, inst, ilp_budget)

    if not sol.intervals:
        gamma = Alignment(comp.moves, sol.x_order)
        realignments = []
    else:
        realignments = [
            realign_interval(scaled, comp, sol.x_order, a, b, log, costs,
                             node_budget, spare_count)
            for a, b in sol.intervals
        ]
        gamma = _substitute(comp, sol.x_order, realignments)

    ok, witness = is_valid_alignment(scaled, log, gamma)
    return ApproxResult(gamma, comp, per_case, sol, realignments, ok, witness,
                        sync_warnings(net, log))
