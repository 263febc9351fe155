"""Classical labeled Petri nets: markings, firing, language, place invariants.

Markings are multisets over place ids.  Arcs carry non-negative integer
multiplicities.  Silent transitions are labeled ``None`` and are omitted
from language projections.

Invariant computation is done in exact rational arithmetic
(:class:`fractions.Fraction`); invariants are algebraic facts and get no
floating-point tolerance.
"""

from __future__ import annotations

from fractions import Fraction

from nualign.poset import Multiset
from nualign.rcnu import TAU, FiringError, RcNuNet

from .orders import SizeLimitError

DEFAULT_STATE_CAP = 10**6


class LabeledNet:
    """Petri net with multiset arcs and a transition labeling.

    ``flow`` maps (place, transition) and (transition, place) pairs to arc
    multiplicities; absent pairs mean multiplicity 0.
    """

    def __init__(self, places, transitions, flow, labels):
        self.places = tuple(places)
        self.transitions = tuple(transitions)
        pset, tset = set(self.places), set(self.transitions)
        if pset & tset:
            raise ValueError(f"places and transitions overlap: {pset & tset}")
        for (src, tgt), mult in flow.items():
            if mult < 0:
                raise ValueError(f"negative arc multiplicity on ({src}, {tgt})")
            ok = (src in pset and tgt in tset) or (src in tset and tgt in pset)
            if not ok:
                raise ValueError(f"arc ({src}, {tgt}) does not connect a place and a transition")
        self.flow = {k: v for k, v in flow.items() if v}
        self.labels = dict(labels)
        for t in self.transitions:
            self.labels.setdefault(t, TAU)

    def pre(self, t):
        """Pre-set of a transition as a multiset of places."""
        return Multiset({p: self.flow.get((p, t), 0) for p in self.places})

    def post(self, t):
        return Multiset({p: self.flow.get((t, p), 0) for p in self.places})

    def is_silent(self, t):
        return self.labels.get(t) is TAU

    def incidence_column(self, t):
        """Token effect of t per place: post - pre, as plain ints."""
        return [
            self.flow.get((t, p), 0) - self.flow.get((p, t), 0)
            for p in self.places
        ]


class NetSystem:
    def __init__(self, net: LabeledNet, initial: Multiset, final: Multiset):
        for m in (initial, final):
            bad = m.support() - set(net.places)
            if bad:
                raise ValueError(f"marking uses unknown places {bad}")
        self.net = net
        self.initial = initial
        self.final = final


def uncolored(net: RcNuNet) -> LabeledNet:
    """Forget colors: arc multiplicity = total inscription count."""
    flow = {k: ms.total() for k, ms in net.flow.items()}
    return LabeledNet(net.places, net.transitions, flow, net.labels)


def enabled(net: LabeledNet, m: Multiset, t) -> bool:
    if t not in net.labels:
        raise KeyError(f"unknown transition {t!r}")
    return net.pre(t) <= m


def fire(net: LabeledNet, m: Multiset, t) -> Multiset:
    pre = net.pre(t)
    if not pre <= m:
        for p, n in pre.items():
            if m.count(p) < n:
                raise FiringError(
                    f"{t} not enabled: place {p} holds {m.count(p)} token(s), needs {n}"
                )
    return (m - pre) + net.post(t)


def language(sys: NetSystem, max_len: int, state_cap: int = DEFAULT_STATE_CAP):
    """All label sequences of firing sequences initial -> final, length <= max_len.

    The length bound applies to the raw firing sequence (silent firings
    included); the returned sequences have silent labels omitted.  Raises
    SizeLimitError once more than ``state_cap`` search nodes are explored.
    """
    net = sys.net
    out = set()
    explored = 0

    def walk(m, depth, labels):
        nonlocal explored
        explored += 1
        if explored > state_cap:
            raise SizeLimitError(f"language enumeration exceeded {state_cap} nodes")
        if m == sys.final:
            out.add(tuple(labels))
        if depth == max_len:
            return
        for t in net.transitions:
            if enabled(net, m, t):
                lab = net.labels[t]
                walk(
                    fire(net, m, t),
                    depth + 1,
                    labels if lab is TAU else labels + [lab],
                )

    walk(sys.initial, 0, [])
    return out


# ---------------------------------------------------------------------------
# Place invariants (exact rational arithmetic)
# ---------------------------------------------------------------------------

def _rref(rows):
    """Reduced row echelon form over Fractions, in place; returns nonzero rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    rows = [list(r) for r in rows]
    pivot_row = 0
    for col in range(ncols):
        pivot = next(
            (r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None
        )
        if pivot is None:
            continue
        rows[pivot_row], rows[pivot] = rows[pivot], rows[pivot_row]
        lead = rows[pivot_row][col]
        rows[pivot_row] = [v / lead for v in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return [tuple(r) for r in rows[:pivot_row] if any(v != 0 for v in r)]


def place_invariants(net: LabeledNet):
    """Basis of the left null space of the incidence matrix.

    Returns the basis as tuples of Fractions over ``net.places``, in
    reduced echelon form (leading entries are 1), deterministically ordered.
    Every vector I satisfies I . (post(t) - pre(t)) = 0 for all t.
    """
    nplaces = len(net.places)
    # Solve C^T x = 0 where rows are transitions, columns places.
    system = [
        [Fraction(v) for v in net.incidence_column(t)] for t in net.transitions
    ]
    reduced = _rref(system)
    pivots = []
    for row in reduced:
        lead = next(i for i, v in enumerate(row) if v != 0)
        pivots.append(lead)
    free = [i for i in range(nplaces) if i not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * nplaces
        vec[f] = Fraction(1)
        for row, lead in zip(reduced, pivots):
            vec[lead] = -row[f]
        basis.append(vec)
    return _rref(basis)


def in_invariant_span(basis, vector) -> bool:
    """Whether ``vector`` (rationals over places) lies in the span of ``basis``."""
    residual = [Fraction(v) for v in vector]
    for row in basis:
        lead = next(i for i, v in enumerate(row) if v != 0)
        if residual[lead] != 0:
            factor = residual[lead]
            residual = [a - factor * b for a, b in zip(residual, row)]
    return all(v == 0 for v in residual)


def invariant_value(vector, marking: Multiset, places) -> Fraction:
    return sum(
        (Fraction(v) * marking.count(p) for v, p in zip(vector, places)),
        Fraction(0),
    )
