"""Independent brute-force oracles used by tests and acceptance checks.

These deliberately avoid the engine's search strategies: the product
oracle enumerates firing sequences depth-first with only cost dominance
pruning, and the violation oracles work directly on the permutation-space
definition (linearization replay, or literal enumeration of all order
extensions for very small inputs).  The order program's row reads are
checked against loops over dense matrices and single moves, and the
popcount sums over a token table (validity, capacity rows, boundary
markings) against the bit-by-bit loops they replaced.  The product's
resource assignments are checked against the recursive enumeration that
``itertools.permutations`` replaced, the order program's additions-only
objective against the weighted objective it replaced, the solver's cover
rows with one slack each against the general engine over rows of any
signs that they replaced, and the searches over the log net against
those over the log net with the resource-demand places it dropped.  The
mode matcher is checked against a brute force over whole bindings, and
whole-log A*'s expansion from the case tables' edges against the full
expansion over frozenset tables it replaced.  A case's
search and its cost-to-go table on its case space are checked against
the same on the case's single-case product, which the space replaced.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from itertools import product

from nualign.align import (INF, Alignment, CostTable, DEFAULT_COSTS, DEFAULT_NODE_BUDGET,
                           SearchBudgetError, SoundnessError, SyncProduct, _StateSpace,
                           _max_flow, _projection_breaks, _role_var_multiplicities,
                           build_sync_product, case_variants, is_valid_alignment,
                           move_cost, optimal_alignment, token_use)
from nualign.eventlog import EventLog
from nualign.ilp import BinaryProgram, Constraint, IlpBudgetError, InfeasibleError, NodeBudget
from nualign.lognet import LogNet, build_log_net, transition_id
from nualign.poset import Multiset, Poset, set_bits
from nualign.rcnu import (EPS, ColoredMarking, FiringError, Nu, RcNuNet, Var, case_of_mode,
                          enabled_modes, fire_mode, firing_effect, scale_cases)

from .orders import (
    SizeLimitError,
    closed_pairs,
    linearizations,
    maximal_antichains,
    prefix,
)


def min_cost_exhaustive(prod: SyncProduct, costs: CostTable = DEFAULT_COSTS,
                        node_cap: int = 100_000):
    """Minimum goal-reaching cost by exhaustive DFS over firing sequences.

    Prunes only on the incumbent bound and on per-marking best known cost;
    returns None if the goal is unreachable.  Raises SizeLimitError past
    ``node_cap`` explored nodes.
    """
    goal = prod.final
    best = [None]
    seen = {}
    nodes = [0]

    def dfs(m, cost):
        nodes[0] += 1
        if nodes[0] > node_cap:
            raise SizeLimitError(f"oracle exceeded {node_cap} nodes")
        if best[0] is not None and cost >= best[0] and m != goal:
            return
        if seen.get(m, float("inf")) <= cost:
            return
        seen[m] = cost
        if m == goal:
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        fresh = prod.fresh_candidates(m)
        for t in prod.transitions:
            for mode in enabled_modes(prod, m, t, fresh_pool=fresh,
                                      forced=prod.moves[t].binding()):
                dfs(fire_mode(prod, m, t, mode),
                    cost + move_cost(prod.moves[t], costs))

    dfs(prod.initial, 0)
    return best[0]


def reference_enabled_modes(net: RcNuNet, marking: ColoredMarking, t, fresh_pool=(),
                            forced=None):
    """``rcnu.enabled_modes`` by brute force over whole bindings.

    Each variable on t's input arcs that ``forced`` does not bind ranges
    over the marking's identifiers, and each such fresh variable of its
    output arcs over ``fresh_pool`` less them.  A binding is kept where
    the case variables bind distinct values, so do the resource variables,
    every fresh name differs from every other value bound, and the marking
    holds every token ``firing_effect`` says the firing takes.  Forced
    names are bound as given.  The variables are read off the arcs here,
    not from ``transition_vars``.
    """
    if not all(marking.get(p) for p in net.input_places(t)):
        return []       # every input arc takes a token
    forced = dict(forced or {})
    inputs = [pair for p in net.input_places(t) for pair in net.arc(p, t).support()]
    outputs = [pair for p in net.output_places(t) for pair in net.arc(t, p).support()]
    components = ({c.name for c, _ in inputs + outputs if isinstance(c, Var)},
                  {r.name for _, r in inputs + outputs if isinstance(r, Var)})
    free = sorted({x.name for pair in inputs for x in pair if isinstance(x, Var)} - forced.keys())
    fresh = sorted({x.name for pair in outputs for x in pair if isinstance(x, Nu)} - forced.keys())
    ids = sorted(marking.identifiers())
    pool = sorted(set(fresh_pool) - set(ids))
    modes = []
    for values in product(ids, repeat=len(free)):
        for names in product(pool, repeat=len(fresh)):
            mode = {**forced, **dict(zip(free, values)), **dict(zip(fresh, names))}
            if any(len({mode[v] for v in comp & mode.keys()}) < len(comp & mode.keys())
                   for comp in components):
                continue
            bound = list(mode.values())
            if any(bound.count(mode[v]) > 1 for v in fresh):
                continue
            taken = firing_effect(net, t, mode)[0]
            if all(marking.get(p).count(tok) >= n for p, tok, n in taken):
                modes.append(mode)
    return sorted(modes, key=lambda mode: sorted(mode.items()))


def reference_resource_assignments(model: RcNuNet, t, event):
    """``align._resource_assignments`` as a recursive enumeration: per
    role, the resource variables in name order each take, in instance
    order, a remaining observed instance of their multiplicity."""
    var_mult, consts = _role_var_multiplicities(model, t)
    observed = {}
    for inst in event.resources.support():
        role = model.role_of_instance(inst)
        if role is None:
            return []
        observed.setdefault(role, {})[inst] = event.resources.count(inst)

    roles = sorted(set(var_mult) | set(consts) | set(observed))
    assignments = [{}]
    for role in roles:
        need = dict(observed.get(role, {}))
        for inst, n in consts.get(role, Multiset()).items():
            if need.get(inst, 0) != n:
                return []
            need.pop(inst)
        vars_here = sorted(var_mult.get(role, {}).items())
        insts_here = sorted(need.items())
        if len(vars_here) != len(insts_here):
            return []
        role_options = []

        def assign(i, acc, remaining):
            if i == len(vars_here):
                if not remaining:
                    role_options.append(dict(acc))
                return
            var, mult = vars_here[i]
            for inst, n in list(remaining.items()):
                if n == mult:
                    rest = dict(remaining)
                    del rest[inst]
                    assign(i + 1, {**acc, var: inst}, rest)

        assign(0, {}, dict(insts_here))
        if not role_options:
            return []
        assignments = [
            {**base, **opt} for base in assignments for opt in role_options
        ]
    return assignments


def demand_log_net(log: EventLog) -> LogNet:
    """The log net with one resource-demand place per event and recorded
    instance added back, as the package once built it: ``res_e<i>_<inst>``
    holds the observed multiplicity of ``(EPS, inst)`` tokens, is marked
    initially and only the event's transition consumes it.  Its products
    have the plain log net's states one to one, since each of those
    transitions also consumes the event's order or source token."""
    net = build_log_net(log)
    places, flow, tokens = [], {}, {}
    for e in log.events:
        for inst, n in sorted(e.resources.items()):
            p = f"res_e{e.index}_{inst}"
            places.append(p)
            flow[(p, transition_id(e))] = tokens[p] = Multiset({(EPS, inst): n})
    return LogNet(places + list(net.places), net.transitions, net.labels,
                  {**flow, **net.flow}, ColoredMarking(tokens) | net.initial, net.final,
                  net.event_of)


# ---------------------------------------------------------------------------
# Single-case products, the references for case spaces
# ---------------------------------------------------------------------------

def case_product(net: RcNuNet, log: EventLog, case) -> SyncProduct:
    """The single-case product of ``case``: the net scaled to it alone
    against the net of its trace."""
    return build_sync_product(scale_cases(net, [case]), build_log_net(log.project_case(case)))


def reference_case_alignment(net: RcNuNet, log: EventLog, case,
                             costs: CostTable = DEFAULT_COSTS,
                             node_budget: int = DEFAULT_NODE_BUDGET) -> Alignment:
    """A case's optimal alignment as ``align_case`` made it before case
    spaces: Dijkstra on the case's single-case product."""
    return optimal_alignment(case_product(net, log, case), costs, node_budget)


def reference_cost_to_go(single: SyncProduct, costs: CostTable, node_budget: int):
    """``align._cost_to_go`` on the interned states of a single-case
    product: ``(togo, edges)`` with states numbered as the exploration
    meets them, or None past ``node_budget`` states."""
    space = _StateSpace(single)
    states, out, into = [space.start], [], [[]]
    index = {space.start: 0}
    for state in states:
        out.append([])
        for t, key, state2 in space.successors(state):
            j = index.get(state2)
            if j is None:
                if len(states) >= node_budget:
                    return None
                j = index[state2] = len(states)
                states.append(state2)
                into.append([])
            cost = move_cost(single.moves[t], costs)
            into[j].append((len(out) - 1, cost))
            out[-1].append((cost, key, j))
    togo = [INF] * len(states)
    heap = [(0, index[space.goal])] if space.goal in index else []
    while heap:
        d, j = heapq.heappop(heap)
        if togo[j] == INF:
            togo[j] = d
            for i, c in into[j]:
                if togo[i] == INF:
                    heapq.heappush(heap, (d + c, i))
    edges = [sorted(((c + togo[j] - togo[i], key, j) for c, key, j in made if togo[j] < INF),
                    key=lambda edge: edge[0])
             for i, made in enumerate(out)]
    return togo, edges


# ---------------------------------------------------------------------------
# Full-expansion A* on frozenset case tables
# ---------------------------------------------------------------------------

def case_places(prod: SyncProduct) -> set:
    """The product places whose tokens belong to a case: the model's
    production and busy places, under the product's ``m::`` prefix."""
    return {f"m::{p}" for p in prod.model.places if prod.model.place_kind(p) != "resource"}


def _reference_case_table(single: SyncProduct, costs: CostTable, node_budget: int):
    """Optimal cost-to-go of every state of a single-case product reachable
    from its start, keyed by (the case's tokens on production and busy
    places, events fired); INF where the goal is unreachable.  None when
    more than ``node_budget`` states are reachable."""
    space = _StateSpace(single)
    start = space.encode(single.initial)
    goal = space.encode(single.final)
    states, fired, into = [start], [0], [[]]
    index = {start: 0}
    for i, state in enumerate(states):
        for t, _, state2 in space.successors(state):
            j = index.get(state2)
            if j is None:
                if len(states) >= node_budget:
                    return None
                j = index[state2] = len(states)
                states.append(state2)
                fired.append(fired[i] + (single.moves[t].kind != "model"))
                into.append([])
            into[j].append((i, move_cost(single.moves[t], costs)))
    togo = {}
    heap = [(0, index[goal])] if goal in index else []
    while heap:
        d, j = heapq.heappop(heap)
        if j not in togo:
            togo[j] = d
            for i, c in into[j]:
                if i not in togo:
                    heapq.heappush(heap, (d + c, i))
    table = {}
    owned = case_places(single)
    for j, state in enumerate(states):
        tokens = frozenset((pair, n) for pair, n in zip(space.pairs, state)
                           if n and pair[0] in owned and pair[1][0] is not None)
        table[tokens, fired[j]] = togo.get(j, INF)
    return table


class ReferenceCaseHeuristic:
    """The case heuristic as the whole-log search once read it: per case
    variant a dict from (the case's tokens, events fired) to cost-to-go,
    and a search state's entry (h, per-case terms, per-case events fired),
    where a move recomputes its case's term from the case's interned pairs.
    It prices every case or none, as ``CaseHeuristic`` does, and reads the
    states of ``space``, the heuristic under test's, so states compare."""

    def __init__(self, prod: SyncProduct, space, costs: CostTable = DEFAULT_COSTS,
                 node_budget: int = DEFAULT_NODE_BUDGET):
        self.space = space
        self.rep = {}
        self.tables = {}
        self._owned = {}        # case -> its interned pair ids
        self._case_places = case_places(space.prod)
        self._renamed = {}      # pair id -> the pair on its case's representative
        self._classified = 0    # interned pairs sorted into ``_owned`` so far
        log = EventLog(prod.log_net.event_of.values())
        variants, budget = {}, node_budget
        keys = {} if _projection_breaks(prod) else case_variants(prod.model, log)
        for c in keys:
            rep = self.rep[c] = variants.setdefault(keys[c], c)
            self._owned[c] = []
            if rep == c:
                table = self.tables[c] = _reference_case_table(
                    case_product(prod.model, log, c), costs, budget)
                budget = 0 if table is None else budget - len(table)
        self.priced = bool(self.rep) and None not in self.tables.values()
        self._position = {c: k for k, c in enumerate(self.rep)}

    def _term(self, case, state, fired):
        pairs = self.space.pairs
        for i in range(self._classified, len(pairs)):
            p, tok = pairs[i]
            if p in self._case_places and tok[0] in self._owned:
                self._owned[tok[0]].append(i)
                self._renamed[i] = (p, (self.rep[tok[0]], tok[1]))
        self._classified = len(pairs)
        tokens = frozenset((self._renamed[i], state[i]) for i in self._owned[case]
                           if i < len(state) and state[i])
        return self.tables[self.rep[case]].get((tokens, fired), 0)

    def start(self, state):
        """The entry of the product's initial state."""
        terms = tuple(self._term(c, state, 0) for c in self.rep)
        return sum(terms), terms, (0,) * len(terms)

    def step(self, entry, key, state2):
        """The entry of ``state2``, reached from ``entry``'s state by the
        firing ``key``."""
        t, mode = key
        made = self.space.prod.moves[t]
        case = (made.event.case if made.kind != "model" else
                case_of_mode(self.space.prod.model, made.transition, dict(mode)))
        k = self._position.get(case)
        if k is None:
            return entry
        _, terms, fired = entry
        fired = fired[:k] + (fired[k] + (made.kind != "model"),) + fired[k + 1:]
        terms = terms[:k] + (self._term(case, state2, fired[k]),) + terms[k + 1:]
        return sum(terms), terms, fired


def reference_astar(prod: SyncProduct, heuristic: ReferenceCaseHeuristic,
                    costs: CostTable = DEFAULT_COSTS,
                    node_budget: int = DEFAULT_NODE_BUDGET) -> Alignment:
    """Whole-log A* with full expansion, the reference for
    ``optimal_alignment`` on a ``CaseHeuristic``: every firing at a settled
    state is made, priced by the frozenset tables and pushed unless its h
    is infinite.  The frontier pops by (g + h, -g, -moves, push order);
    with a heuristic that prices no case, h is 0 and moves stay out of the
    key.  The result records ``settled`` and ``pushed``."""
    space = heuristic.space
    start, goal = space.encode(prod.initial), space.encode(prod.final)
    priced = heuristic.priced
    info = {start: heuristic.start(start) if priced else (0,)}
    best, parent = {start: 0}, {start: None}
    pushed = 1
    heap = [(info[start][0], 0, 0, pushed, start)]
    settled = 0
    while heap:
        bound, paid, depth, _, state = heapq.heappop(heap)
        cost = -paid
        if cost > best[state]:
            continue
        settled += 1
        if state == goal:
            moves = []
            while parent[state] is not None:
                state, (t, mode) = parent[state]
                moves.append(replace(prod.moves[t], mode=mode))
            alignment = Alignment.chain(reversed(moves))
            alignment.settled, alignment.pushed = settled, pushed
            return alignment
        if settled > node_budget:
            raise SearchBudgetError(settled, len(heap), bound)
        for t, key, state2 in space.successors(state):
            cost2 = cost + move_cost(prod.moves[t], costs)
            if cost2 < best.get(state2, INF):
                entry = info.get(state2)
                if entry is None:
                    entry = info[state2] = (heuristic.step(info[state], key, state2)
                                            if priced else (0,))
                if entry[0] == INF:
                    continue
                best[state2] = cost2
                parent[state2] = (state, key)
                pushed += 1
                heapq.heappush(heap, (cost2 + entry[0], -cost2, depth - priced, pushed, state2))
    raise SearchBudgetError(settled, 0, None)


# ---------------------------------------------------------------------------
# Resource-violation oracles on move posets
# ---------------------------------------------------------------------------

def bind_pairs(pairs: Multiset, mode: dict) -> Multiset:
    """Apply a mode to an inscription multiset, yielding concrete tokens:
    a binding of its own, apart from ``rcnu.firing_effect``."""
    def bind(term):
        if term is EPS or isinstance(term, str):
            return term
        value = mode.get(term.name)
        if value is None:
            raise KeyError(f"mode does not bind {term!r}")
        return value

    out = {}
    for (cterm, rterm), n in pairs.items():
        tok = (bind(cterm), bind(rterm))
        out[tok] = out.get(tok, 0) + n
    return Multiset(out)


def _claims_and_releases(net: RcNuNet, move):
    """Availability-place effects of a move: ({instance: claimed}, {instance: released})."""
    claims, releases = {}, {}
    if move.kind == "log":
        return claims, releases
    mode = move.binding()
    t = move.transition
    for role in net.roles:
        p = role.available_place
        for (c, r), n in bind_pairs(net.arc(p, t), mode).items():
            if r is not None:
                claims[r] = claims.get(r, 0) + n
        for (c, r), n in bind_pairs(net.arc(t, p), mode).items():
            if r is not None:
                releases[r] = releases.get(r, 0) + n
    return claims, releases


def linearization_is_resource_safe(net: RcNuNet, moves_in_order) -> bool:
    """Replay availability counts; a claim must never exceed what is free."""
    avail = {inst: n for inst, n in net.resource_instances().items()}
    for move in moves_in_order:
        claims, releases = _claims_and_releases(net, move)
        for inst, n in claims.items():
            if avail.get(inst, 0) < n:
                return False
            avail[inst] -= n
        for inst, n in releases.items():
            avail[inst] = avail.get(inst, 0) + n
    return True


def is_violating_by_linearizations(net: RcNuNet, moves, order: Poset,
                                   cap: int = 500_000) -> bool:
    """Permutation-space violation check: violating iff no linearization
    replays with the resource capacities respected.

    Linear members of the permutation space decide the question: a safe
    linearization is itself a non-violating permutation, and any
    non-violating permutation linearizes to a safe one.
    """
    for lin in linearizations(order, cap=cap):
        if linearization_is_resource_safe(net, [moves[i] for i in lin]):
            return False
    return True


def order_extensions(order: Poset, cap: int = 200_000):
    """All transitively closed, irreflexive supersets of the given order.

    Literal enumeration of the permutation space; exponential, intended
    for cross-checking the linearization oracle on tiny inputs.
    """
    elems = list(order.elements)
    n = len(elems)
    index = {x: i for i, x in enumerate(elems)}
    base = {(index[a], index[b]) for a, b in closed_pairs(order)}
    undecided = [
        (i, j) for i in range(n) for j in range(i + 1, n)
        if (i, j) not in base and (j, i) not in base
    ]
    out = []

    def closure_ok(rel):
        # incremental check: rel must be transitively closed and acyclic
        for (a, b) in rel:
            for (c, d) in rel:
                if b == c:
                    if (a, d) not in rel or a == d:
                        return False
        return True

    def expand(k, rel):
        if len(out) > cap:
            raise SizeLimitError(f"more than {cap} extensions")
        if k == len(undecided):
            if closure_ok(rel):
                out.append(frozenset(rel))
            return
        i, j = undecided[k]
        expand(k + 1, rel)                    # stays incomparable
        expand(k + 1, rel | {(i, j)})         # i before j
        expand(k + 1, rel | {(j, i)})         # j before i
    expand(0, frozenset(base))

    posets = []
    for rel in sorted(out, key=lambda r: sorted(r)):
        pairs = [(elems[i], elems[j]) for i, j in rel]
        posets.append(Poset(elems, pairs))
    return posets


def over_claims(net: RcNuNet, moves, order: Poset, g) -> bool:
    """Whether the moves of antichain ``g`` jointly claim more of some
    resource instance than the availability its open prefix leaves."""
    avail = {inst: n for inst, n in net.resource_instances().items()}
    for i in prefix(order, g, closed=False).elements:
        claims, releases = _claims_and_releases(net, moves[i])
        for inst, n in claims.items():
            avail[inst] = avail.get(inst, 0) - n
        for inst, n in releases.items():
            avail[inst] = avail.get(inst, 0) + n
    demand = {}
    for i in g:
        claims, _ = _claims_and_releases(net, moves[i])
        for inst, n in claims.items():
            demand[inst] = demand.get(inst, 0) + n
    return any(avail.get(inst, 0) < n for inst, n in demand.items())


def has_violating_maximal_antichain(net: RcNuNet, moves, order: Poset) -> bool:
    """Whether some maximal antichain over-claims (``over_claims``)."""
    return any(over_claims(net, moves, order, g) for g in maximal_antichains(order))


def is_violating_by_extension_enumeration(net: RcNuNet, moves, order: Poset) -> bool:
    """Definition-level check: violating iff every order extension has a
    violating maximal antichain.  Only for very small move sets."""
    return all(
        has_violating_maximal_antichain(net, moves, ext)
        for ext in order_extensions(order)
    )


# ---------------------------------------------------------------------------
# Order-program solutions
# ---------------------------------------------------------------------------

def row_holds(row: Constraint, assignment) -> bool:
    """Whether ``assignment`` satisfies ``row``: its left side, the sum of
    coefficient times value, is at most its bound."""
    return sum(c * assignment[v] for v, c in row.coeffs) <= row.bound


def check_feasible(program: BinaryProgram, assignment):
    """Verify fixings, every row, and for an order program
    (``program.order`` = n) that the pairs set to 1 form a strict partial
    order: irreflexive, antisymmetric and transitive.  The cap row is an
    objective level, not a row, and is not checked.

    Returns (True, None) or (False, label of the first violated row, or
    the first broken order condition).
    """
    if len(assignment) != program.n_vars:
        return False, f"assignment length {len(assignment)} != {program.n_vars}"
    if any(v not in (0, 1) for v in assignment):
        return False, "assignment is not 0/1"
    for var, value in sorted(program.fixings.items()):
        if assignment[var] != value:
            return False, f"fixing x{var}={value}"
    for row in program.constraints:
        if not row_holds(row, assignment):
            return False, row.label or f"row {row.coeffs}"
    n = program.order
    for i in range(n):
        for j in range(n):
            if not assignment[i * n + j]:
                continue
            if i == j or assignment[j * n + i]:
                return False, f"antisymmetry[{i},{j}]"
            for k in range(n):
                if assignment[j * n + k] and not assignment[i * n + k]:
                    return False, f"transitivity[{i},{j},{k}]"
    return True, None


#: the weight of a reversal in ``weighted_order_program``'s objective
REVERSAL_WEIGHT = 1000


def weighted_order_program(inst) -> BinaryProgram:
    """A copy of the order program of ``inst`` (an ``IlpInstance``) whose
    objective weighs each cross-case reversal variable (``X_ij`` where R
    orders ``j`` before ``i``) at ``REVERSAL_WEIGHT`` and each addition
    (``X_ij`` where R orders the two neither way) at 1: reversals first,
    then additions, sound while an order adds fewer than
    ``REVERSAL_WEIGHT`` pairs."""
    objective = {}
    for v in range(inst.program.n_vars):
        i, j = divmod(v, inst.n)
        if v in inst.program.fixings or inst.R[i] >> j & 1:
            continue
        objective[v] = REVERSAL_WEIGHT if inst.R[j] >> i & 1 else 1
    return replace(inst.program, objective=objective)


# ---------------------------------------------------------------------------
# Branch and bound over rows of any signs
# ---------------------------------------------------------------------------

class ReferenceEngine:
    """The general engine ``nualign.ilp._Engine`` replaced: rows of any
    signs, a signed objective, trailed assignment, watch lists,
    incremental row bounds, and an order program's pairs set to 1 as bit
    rows.

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


def reference_solve(program: BinaryProgram, node_budget: int | NodeBudget = 1_000_000):
    """``nualign.ilp.solve`` on the ``ReferenceEngine``: provably optimal
    0/1 assignment, or raises InfeasibleError.

    Deterministic: branches on the first free variable of the branch order,
    preferred value first.  With a cap row, the optimum at the first
    feasible cap bound (see ``nualign.ilp``'s module docstring).  ``node_budget`` counts
    the nodes of every level, and a ``NodeBudget`` also those of earlier
    solves that drew from it; IlpBudgetError (carrying the best incumbent
    and the nodes counted) is raised when it runs out before optimality is
    proven.
    """
    budget = (node_budget if isinstance(node_budget, NodeBudget)
              else NodeBudget(node_budget))
    n = program.n_vars
    engine = ReferenceEngine(program)
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


# ---------------------------------------------------------------------------
# Order-program loops over dense matrices and single moves
# ---------------------------------------------------------------------------

def dense_branch_scan(comp, inst):
    """The kept-pair branch order of the program ``inst``, by the dense
    scan: R as an m x m matrix read through ``precedes``; every kept pair
    ``(i, j)`` the program leaves free gets the number of moves between
    them as its span, and kept pairs branch by ascending (span, variable).
    Positions are the program's."""
    moves, n = inst.moves, inst.n
    R = [[int(comp.order.precedes(i, j)) for j in moves] for i in moves]
    span = {}
    for i in range(n):
        for j in range(n):
            if i != j and R[i][j] and inst.var(i, j) not in inst.program.fixings:
                span[inst.var(i, j)] = sum(1 for x in range(n)
                                           if x not in (i, j) and R[i][x] and R[x][j])
    return sorted(span, key=lambda v: (span[v], v))


def _row_claims(comp, bindings, site, before) -> tuple:
    """The row at ``site``, a move and a resource instance, summed move by
    move under ``before(i, j)`` from the moves' own ``bindings``
    (``_claims_and_releases``): what the row's move takes of the instance,
    and per case its net claim, the claimed minus released of each of its
    other moves, counted when positive and not ordered after the row's
    move, when negative and ordered before it."""
    i, r = site
    claims = {}
    for j, (claimed, released) in enumerate(bindings):
        net = claimed.get(r, 0) - released.get(r, 0)
        if j != i and (before(j, i) if net < 0 else not before(i, j)):
            claims[comp.case_of[j]] = claims.get(comp.case_of[j], 0) + net
    return bindings[i][0].get(r, 0), claims


def _rows_by_fits(net, comp, moves, before) -> dict:
    """Per capacity row that breaks under ``before(i, j)`` at one of
    ``moves``, ``(move, instance index) -> {case: net claim}``: every move
    that takes a resource instance, its row summed term by term
    (``_row_claims``) against the instance's capacity, instances indexed in
    sorted order."""
    instances = net.resource_instances()
    bindings = [_claims_and_releases(net, mv) for mv in comp.moves]
    failing = {}
    for k, r in enumerate(sorted(instances.support())):
        for i in moves:
            if bindings[i][0].get(r):
                own, claims = _row_claims(comp, bindings, (i, r), before)
                if own + sum(claims.values()) > instances.count(r):
                    failing[i, k] = claims
    return dict(sorted(failing.items()))


def lift_failures_by_outside_moves(net, comp, inst, changes) -> set:
    """The outside cases named by the full-program rows that the lift of
    ``changes`` (R with those composed pairs set) breaks, by the per-move
    loops: every capacity row at a program move summed term by term under
    ``precedes`` (``_rows_by_fits``), and every changed pair tested against
    every outside move for a broken transitivity triple.  Raises
    SoundnessError when a capacity row fails and no outside case is named."""
    R = comp.order.precedes

    def lifted(i, j):
        value = changes.get((i, j))
        return R(i, j) if value is None else value

    local = set(inst.moves)
    named = set()
    failing = _rows_by_fits(net, comp, inst.moves, lifted)
    for (i, _), claims in failing.items():
        named.add(comp.case_of[i])
        named.update(c for c, amount in claims.items() if amount > 0)
    for (a, b), value in changes.items():
        for o in range(len(comp.moves)):
            if o in local:
                continue
            if value:
                broken = (R(b, o) and not R(a, o)) or (R(o, a) and not R(o, b))
            else:
                broken = R(a, o) and R(o, b)
            if broken:
                named.add(comp.case_of[o])
    named -= {comp.case_of[i] for i in inst.moves}
    if failing and not named:
        raise SoundnessError("a capacity row fails with no outside case named")
    return named


# ---------------------------------------------------------------------------
# Token-table sums bit by bit
# ---------------------------------------------------------------------------

def broken_by_fits(net, comp) -> list:
    """The (move, instance index) sites whose capacity rows the composed
    order breaks, each row summed term by term under ``precedes`` from the
    oracle's own binding: what its move takes plus every case's net claim."""
    return list(_rows_by_fits(net, comp, range(len(comp.moves)), comp.order.precedes))


def least_left_by_set_bits(effect, t, after, before) -> int:
    """``align.least_left`` summed move by move over ``set_bits``: the net
    effects on a token of ``t``'s predecessors and of its incomparable net
    consumers; ``effect`` is the token's ``{move: net effect}``, zero
    effects left out."""
    users = sum(1 << s for s in effect)
    free = users & ~(after[t] | before[t] | 1 << t)
    return (sum(min(effect[s], 0) for s in set_bits(free))
            + sum(effect[s] for s in set_bits(users & before[t])))


def validity_by_set_bits(net, log, alignment):
    """``is_valid_alignment`` with every per-token sum taken move by move
    over ``set_bits`` of the predecessor and incomparable masks, on a fresh
    ``token_use`` table: the reference for the popcount sums, witness
    included.  Property 1 and the summed-effects check are the package's."""
    ok, why = is_valid_alignment(net, log, alignment)
    if not ok and not why.startswith("move "):
        return ok, why
    after, before = alignment.order.rows(), alignment.order.predecessor_rows()
    for (p, tok), moved in token_use(net, alignment.moves).items():
        effect = {s: given - taken for s, (taken, given) in moved.items() if given != taken}
        users = sum(1 << s for s in effect)
        for t, (taken, _) in moved.items():
            if not taken:
                continue
            least = (net.initial.get(p).count(tok)
                     + least_left_by_set_bits(effect, t, after, before))
            if least < taken:
                free = users & ~(after[t] | before[t] | 1 << t)
                supply = {c: -effect[c] for c in set_bits(free) if effect[c] < 0}
                capacity = {x: effect[x] for x in set_bits(free) if effect[x] > 0}
                producers = sum(1 << x for x in capacity)
                arcs = {c: list(set_bits(producers & before[c])) for c in supply}
                least += _max_flow(supply, capacity, arcs, taken - least)
                if least < taken:
                    return False, (
                        f"move {t} takes {taken} of token {tok!r} on {p}, but a "
                        f"linearization leaves only {least} available before it")
    return True, None


def boundary_by_pseudo_fire(net: RcNuNet, moves, idle) -> ColoredMarking:
    """The net's marking after ``moves``, their pseudo-marking bound afresh
    and summed move by move, without the production-place tokens of the
    ``idle`` cases; FiringError at a negative count."""
    counts = {(p, tok): n for p in net.initial.places() for tok, n in net.initial.get(p).items()}
    for pair, moved in token_use(net, moves).items():
        counts[pair] = counts.get(pair, 0) + sum(given - taken for taken, given in moved.values())
    tokens = {}
    for (p, tok), n in counts.items():
        if n < 0:
            raise FiringError(f"pseudo-marking negative at {p}/{tok!r}")
        if n and (net.place_kind(p) != "production" or tok[0] not in idle):
            tokens.setdefault(p, {})[tok] = n
    return ColoredMarking(tokens)

