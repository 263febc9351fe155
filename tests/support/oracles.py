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
objective against the weighted objective it replaced, and the searches
over the log net against those over the log net with the resource-demand
places it dropped.  The mode matcher is checked against a brute force over
whole bindings, and whole-log A*'s expansion from the case tables' edges
against the full expansion over frozenset tables it replaced.  A case's
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
from nualign.ilp import BinaryProgram, Constraint
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
    for j, state in enumerate(states):
        tokens = frozenset((pair, n) for pair, n in zip(space.pairs, state)
                           if n and pair[0] in single.owned and pair[1][0] is not None)
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
            if p in self.space.prod.owned and tok[0] in self._owned:
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
    """Verify fixings, every materialized row, and the lazy family.  The
    cap row is an objective level, not a row, and is not checked.

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
        if not row_holds(row, assignment):
            return False, row.label or f"row {row.coeffs}"
    if program.lazy_rows is not None:
        violated = program.lazy_rows(assignment)
        if violated:
            return False, violated[0].label or "lazy row"
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
# Order-program loops over dense matrices and single moves
# ---------------------------------------------------------------------------

def dense_witness_scan(comp, inst):
    """The witness triples and the kept-pair branch order of the program
    ``inst``, by the dense scan: R as an m x m matrix read through
    ``precedes``; every kept pair ``(i, j)`` the program leaves free gets
    the first move between them as its witness (none when none is) and
    the number of moves between them as its span, and kept pairs branch by
    ascending (span, variable).  Positions are the program's."""
    moves, n = inst.moves, inst.n
    R = [[int(comp.order.precedes(i, j)) for j in moves] for i in moves]
    witnesses = []
    span = {}
    for i in range(n):
        for j in range(n):
            if i != j and R[i][j] and inst.var(i, j) not in inst.program.fixings:
                between = [x for x in range(n) if x not in (i, j) and R[i][x] and R[x][j]]
                if between:
                    witnesses.append((i, between[0], j))
                span[inst.var(i, j)] = len(between)
    return witnesses, sorted(span, key=lambda v: (span[v], v))


def dense_lazy_cuts(n, assignment):
    """The transitivity triples a 0/1 candidate over n x n pair variables
    breaks, by the dense triple loop: ``(i, j, k)`` distinct with i before
    j, j before k and not i before k, in lexicographic order."""
    before = [[assignment[i * n + j] for j in range(n)] for i in range(n)]
    out = []
    for i in range(n):
        for j in range(n):
            if i != j and before[i][j]:
                for k in range(n):
                    if k not in (i, j) and before[j][k] and not before[i][k]:
                        out.append((i, j, k))
    return out


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

