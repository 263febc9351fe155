"""Labeled net semantics: firing, language enumeration, place invariants."""

import random
from fractions import Fraction

import pytest

from nualign.poset import Multiset
from nualign.rcnu import FiringError
from support.fixtures import (
    OPERATION_MIXED_SEQUENCE,
    OPERATION_SINGLE_CASE_LANGUAGE,
    operation_net,
    operation_system,
)
from support.orders import SizeLimitError
from support.petri import (
    LabeledNet,
    NetSystem,
    enabled,
    fire,
    in_invariant_span,
    invariant_value,
    language,
    place_invariants,
)


def chain_net():
    return LabeledNet(
        ["p0", "p1", "p2"],
        ["t1", "t2"],
        {("p0", "t1"): 1, ("t1", "p1"): 1, ("p1", "t2"): 1, ("t2", "p2"): 1},
        {"t1": "a", "t2": "b"},
    )


# -- enabling and firing -------------------------------------------------

def test_enabled():
    net = chain_net()
    assert enabled(net, Multiset(["p0"]), "t1")
    assert not enabled(net, Multiset(), "t1")


def test_enabled_needs_multiplicity():
    net = LabeledNet(["p"], ["t"], {("p", "t"): 2}, {"t": "a"})
    assert not enabled(net, Multiset(["p"]), "t")
    assert enabled(net, Multiset(["p", "p"]), "t")


def test_enabled_unknown_transition():
    with pytest.raises(KeyError):
        enabled(chain_net(), Multiset(), "nope")


def test_fire():
    net = chain_net()
    assert fire(net, Multiset(["p0"]), "t1") == Multiset(["p1"])


def test_fire_self_loop_preserves_marking():
    net = LabeledNet(["p"], ["t"], {("p", "t"): 1, ("t", "p"): 1}, {"t": "a"})
    assert fire(net, Multiset(["p"]), "t") == Multiset(["p"])


def test_fire_not_enabled_names_place():
    net = chain_net()
    with pytest.raises(FiringError, match="p0"):
        fire(net, Multiset(["p1"]), "t1")


def test_fire_then_reverse_restores_marking():
    rng = random.Random(3)
    net = operation_net()
    reverse = LabeledNet(
        net.places,
        net.transitions,
        {(b, a): n for (a, b), n in net.flow.items()},
        net.labels,
    )
    m = operation_system(2).initial
    for _ in range(200):
        ts = [t for t in net.transitions if enabled(net, m, t)]
        if not ts:
            break
        t = rng.choice(ts)
        m2 = fire(net, m, t)
        assert fire(reverse, m2, t) == m
        m = m2


# -- language ------------------------------------------------------------

def test_language_single_case_operation_process():
    sys = operation_system(1)
    assert language(sys, 5) == OPERATION_SINGLE_CASE_LANGUAGE


def test_language_two_cases_admits_mixed_sequence():
    sys = operation_system(2)
    lang = language(sys, 10)
    assert OPERATION_MIXED_SEQUENCE in lang


def test_language_empty_net():
    net = LabeledNet(["p"], [], {}, {})
    sys = NetSystem(net, Multiset(["p"]), Multiset(["p"]))
    assert language(sys, 3) == {()}


def test_language_monotone_in_length():
    sys = operation_system(1)
    for k in range(5):
        assert language(sys, k) <= language(sys, k + 1)


def test_language_state_cap():
    sys = operation_system(2)
    with pytest.raises(SizeLimitError):
        language(sys, 10, state_cap=10)


# -- place invariants ------------------------------------------------------

def test_invariant_single_transition():
    net = LabeledNet(["p", "q"], ["t"], {("p", "t"): 1, ("t", "q"): 1}, {"t": "a"})
    basis = place_invariants(net)
    assert basis == [(Fraction(1), Fraction(1))]


def test_invariant_isolated_place():
    net = LabeledNet(["p", "q"], ["t"], {("p", "t"): 1, ("t", "p"): 1}, {"t": "a"})
    basis = place_invariants(net)
    # q is untouched: its unit vector is an invariant; p's self-loop too.
    assert in_invariant_span(basis, [0, 1])
    assert in_invariant_span(basis, [1, 0])


def test_invariant_claim_release_pair():
    # claim moves a token p_r -> busy, release moves it back
    net = LabeledNet(
        ["p_r", "p_busy"],
        ["claim", "release"],
        {
            ("p_r", "claim"): 1, ("claim", "p_busy"): 1,
            ("p_busy", "release"): 1, ("release", "p_r"): 1,
        },
        {"claim": "c", "release": "r"},
    )
    basis = place_invariants(net)
    assert in_invariant_span(basis, [1, 1])


def test_invariants_hold_along_random_walks():
    net = operation_net()
    basis = place_invariants(net)
    assert basis, "operation net conserves tokens, expected a nonempty basis"
    initial = operation_system(2).initial
    ref = [invariant_value(vec, initial, net.places) for vec in basis]
    rng = random.Random(11)
    for _ in range(1000):
        m = initial
        for _ in range(rng.randrange(12)):
            ts = [t for t in net.transitions if enabled(net, m, t)]
            if not ts:
                break
            m = fire(net, m, rng.choice(ts))
        got = [invariant_value(vec, m, net.places) for vec in basis]
        assert got == ref


def test_invariant_defining_property():
    # I . (post - pre) = 0 for every basis vector and transition
    net = operation_net()
    for vec in place_invariants(net):
        for t in net.transitions:
            col = net.incidence_column(t)
            assert sum(Fraction(v) * c for v, c in zip(vec, col)) == 0


def test_invariant_basis_deterministic():
    net = operation_net()
    assert place_invariants(net) == place_invariants(operation_net())
