"""Independent brute-force oracles used by tests and acceptance checks.

These deliberately avoid the engine's search strategies: the product
oracle enumerates firing sequences depth-first with only cost dominance
pruning, and the violation oracles work directly on the permutation-space
definition (linearization replay, or literal enumeration of all order
extensions for very small inputs).
"""

from __future__ import annotations

from .align import CostTable, DEFAULT_COSTS, SyncProduct, product_move_cost
from .poset import Multiset, Poset, SizeLimitError
from .rcnu import RcNuNet, bind_pairs, enabled_modes, fire_mode


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
                                      forced=prod.forced.get(t, {})):
                dfs(fire_mode(prod, m, t, mode),
                    cost + product_move_cost(prod, t, costs))

    dfs(prod.initial, 0)
    return best[0]


# ---------------------------------------------------------------------------
# Resource-violation oracles on move posets
# ---------------------------------------------------------------------------

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
    for lin in order.linearizations(cap=cap):
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
    base = {(order.index(a), order.index(b)) for a, b in order.closed_pairs()}
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


def has_violating_maximal_antichain(net: RcNuNet, moves, order: Poset) -> bool:
    """Whether some maximal antichain's joint claims exceed the availability
    left by its open prefix, per resource instance."""
    capacities = {inst: n for inst, n in net.resource_instances().items()}
    for g in order.maximal_antichains():
        prefix = order.prefix(g, closed=False)
        avail = dict(capacities)
        for i in prefix.elements:
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
        if any(avail.get(inst, 0) < n for inst, n in demand.items()):
            return True
    return False


def is_violating_by_extension_enumeration(net: RcNuNet, moves, order: Poset) -> bool:
    """Definition-level check: violating iff every order extension has a
    violating maximal antichain.  Only for very small move sets."""
    return all(
        has_violating_maximal_antichain(net, moves, ext)
        for ext in order_extensions(order)
    )
