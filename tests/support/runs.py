"""Sequential firing: every complete execution of a net up to a length,
the replay of an alignment's moves, random loosenings of an alignment's
order, pseudo-markings (signed counts per (place, token) of a list of
moves, and of an antichain's prefix), the token table of a composed
alignment, the values a search reads (a pseudo-marking's count, the case
heuristic's h along a run) and the children the case tables make at a
state."""

from __future__ import annotations

from nualign.align import Alignment, CaseHeuristic, _pseudo_marking, token_use
from nualign.rcnu import ColoredMarking, RcNuNet, case_of_mode, enabled_modes, fire_mode

from nualign.poset import Poset

from .orders import SizeLimitError, closed_pairs, is_antichain, prefix


def enumerate_executions(net: RcNuNet, max_len: int, fresh_pool=(), cap=200_000):
    """All complete firing sequences [(t, mode), ...] of length <= max_len.

    Walks share markings, so each marking's firings (transition, mode,
    next marking), in net order, are enumerated once."""
    out = []
    explored = 0
    firings = {}

    def walk(m, acc):
        nonlocal explored
        explored += 1
        if explored > cap:
            raise SizeLimitError(f"execution enumeration exceeded {cap} nodes")
        if m == net.final:
            out.append(tuple(acc))
        if len(acc) == max_len:
            return
        if m not in firings:
            firings[m] = [(t, mode, fire_mode(net, m, t, mode))
                          for t in net.transitions
                          for mode in enabled_modes(net, m, t, fresh_pool)]
        for t, mode, m2 in firings[m]:
            walk(m2, acc + [(t, mode)])

    walk(net.initial, [])
    return out


def annotated_language(net: RcNuNet, max_len: int, fresh_pool=()):
    """Visible (label, case) sequences of all complete executions."""
    out = set()
    for run in enumerate_executions(net, max_len, fresh_pool):
        seq = tuple(
            (net.labels[t], case_of_mode(net, t, mode))
            for t, mode in run
            if not net.is_silent(t)
        )
        out.add(seq)
    return out


def replay(net: RcNuNet, moves) -> ColoredMarking:
    """Fire the non-log moves in sequence from the net's initial marking."""
    m = net.initial
    for move in moves:
        if move.kind == "log":
            continue
        m = fire_mode(net, m, move.transition, move.binding())
    return m


def pseudo_fire(net: RcNuNet, moves) -> dict:
    """The initial marking plus the summed effects of ``moves``: signed
    counts per (place, token), zeros left out; negative counts are
    meaningful.  The package reads such counts off its token table instead
    (``approx._boundary_marking``)."""
    return _pseudo_marking(net, token_use(net, moves))


def composed_tokens(net: RcNuNet, comp) -> dict:
    """The ``token_use`` table of a composed alignment's moves, which
    ``capacity_rows`` and ``adjust_order`` read; ``approximate_alignment``
    binds it once per run."""
    return token_use(net, comp.moves)


def loosened(log, alignment: Alignment, rng) -> Alignment:
    """The alignment with a random subset of its order pairs, keeping every
    pair the log order needs, so property 1 still holds."""
    keep_p = rng.random()
    event = {i: m.event for i, m in enumerate(alignment.moves) if m.kind != "model"}
    pairs = [
        (i, j) for i, j in closed_pairs(alignment.order)
        if (i in event and j in event and log.precedes(event[i], event[j]))
        or rng.random() < keep_p
    ]
    return Alignment(alignment.moves, Poset(range(len(alignment.moves)), pairs))


def antichain_marking(net: RcNuNet, alignment: Alignment, g, side="pre") -> dict:
    """Pseudo-marking at an antichain: before its moves fire (pre) or after (post)."""
    if side not in ("pre", "post"):
        raise ValueError(f"side must be pre or post, not {side!r}")
    g = frozenset(g)
    if not is_antichain(alignment.order, g):
        raise ValueError("not an antichain of the alignment")
    below = prefix(alignment.order, g, closed=(side == "post"))
    moves = [alignment.moves[i] for i in sorted(below.elements)]
    return pseudo_fire(net, moves)


def pseudo_count(pm: dict, place, token) -> int:
    """The signed count of ``token`` on ``place`` in ``pm``, 0 when absent."""
    return pm.get((place, token), 0)


def edge_children(heuristic: CaseHeuristic, state, info: dict) -> dict:
    """``{firing key: next state}`` of every child the heuristic's tables
    make at ``state``, over all offsets; ``info`` maps states to their
    entries (``state``'s among them) and gains each child's."""
    children, offset = {}, 0
    while offset is not None:
        made, offset = heuristic.expand(state, offset, info)
        children.update((key, state2) for _, key, state2 in made)
    return children


def heuristic_values(heuristic: CaseHeuristic, keys) -> list:
    """h along the run of firing ``keys`` of the heuristic's product from
    its initial marking, read from the entries its tables' edges give each
    state; 0 throughout where the heuristic prices no case."""
    if not heuristic.priced:
        return [0] * (len(keys) + 1)
    state = heuristic.space.encode(heuristic.space.prod.initial)
    info = {state: heuristic.start()}
    values = [info[state][0]]
    for key in keys:
        state = edge_children(heuristic, state, info)[key]
        values.append(info[state][0])
    return values
