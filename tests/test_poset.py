"""Multiset/poset algebra: spec'd examples plus randomized invariants.

Derived expectations are computed by independent brute-force oracles
(subset enumeration for antichains, permutation filtering for
linearizations) and compared against the implementation.
"""

import random
import sys
from itertools import chain, combinations, permutations

import pytest

import nualign.poset as poset_module
from nualign.poset import CycleError, Multiset, Poset
from support.orders import (
    SizeLimitError,
    closed_pairs,
    is_antichain,
    linearizations,
    maximal_antichains,
    prefix,
)


def ms(*elems):
    return Multiset(elems)


# -- multiset combination ----------------------------------------------------

def test_sum():
    assert ms("a", "a", "b") + ms("a") == ms("a", "a", "a", "b")


def test_diff_clamps_at_zero():
    assert ms("a") - ms("a", "a") == ms()


def test_leq():
    assert ms("a") <= ms("a", "a", "b")
    assert not ms("a", "a") <= ms("a")
    assert ms() <= ms("x")
    assert ms() <= ms()


def test_multiset_random_laws():
    rng = random.Random(7)
    universe = "abcde"
    for _ in range(300):
        a = Multiset({x: rng.randrange(4) for x in universe})
        b = Multiset({x: rng.randrange(4) for x in universe})
        # (a + b) - b == a when no clamping occurs (it never clamps here)
        assert (a + b) - b == a
        assert a <= a + b and b <= a + b


def test_no_zero_counts_stored():
    m = Multiset({"a": 2, "b": 0})
    assert m.support() == {"a"}
    assert (m - ms("a", "a")).support() == set()


def test_negative_multiplicity_rejected():
    with pytest.raises(ValueError):
        Multiset({"a": -1})


# -- transitive closure ------------------------------------------------------

def test_closure_basic():
    p = Poset("abc", [("a", "b"), ("b", "c")])
    assert set(closed_pairs(p)) == {("a", "b"), ("b", "c"), ("a", "c")}
    assert p.rows() == (0b110, 0b100, 0)


def test_closure_idempotent():
    p = Poset("abc", [("a", "b"), ("b", "c")])
    q = Poset.of_rows(p.elements, p.rows())
    assert q.elements == p.elements and q.rows() == p.rows()
    assert Poset.of_rows("abc", [0b010, 0b100, 0]).rows() == p.rows()


def test_rows_constructor_rejects_rows_that_do_not_fit():
    for rows in ([0b1000, 0, 0], [0, 0], [-1, 0, 0]):
        with pytest.raises(ValueError):
            Poset.of_rows("abc", rows)
    with pytest.raises(ValueError):
        Poset.of_rows("aa", [0, 0])


def test_cycle_rejected():
    with pytest.raises(CycleError):
        Poset("ab", [("a", "b"), ("b", "a")])
    with pytest.raises(CycleError):
        Poset("a", [("a", "a")])
    with pytest.raises(CycleError):
        Poset.of_rows("a", [0b1])
    with pytest.raises(CycleError):
        Poset.of_rows("abc", [0b010, 0b100, 0b001])


def floyd_warshall_rows(rows):
    """Reference closure of reachability rows (bit j of row i: i -> j), by
    Floyd-Warshall; raises CycleError on a cycle."""
    closed = list(rows)
    n = len(rows)
    for k in range(n):
        kbit = 1 << k
        kmask = closed[k]
        for i in range(n):
            if closed[i] & kbit:
                closed[i] |= kmask
    for i in range(n):
        if closed[i] & (1 << i):
            raise CycleError("order relation contains a cycle")
    return closed


def test_closure_matches_floyd_warshall_on_random_relations():
    # half the relations are acyclic under a random rank, so index order is
    # not the order; the other half draw any pair, and some a reflexive one
    rng = random.Random(13)
    outcomes = {"cyclic": 0, "acyclic": 0}
    for trial in range(4000):
        n = rng.randrange(0, 26)
        rank = list(range(n))
        rng.shuffle(rank)
        ranked = trial % 2 == 0
        density = rng.choice([0.03, 0.1, 0.3])
        rows = [0] * n
        for i in range(n):
            for j in range(n):
                if (i != j and (not ranked or rank[i] < rank[j])
                        and rng.random() < density):
                    rows[i] |= 1 << j
        if not ranked and n and rng.random() < 0.1:
            k = rng.randrange(n)
            rows[k] |= 1 << k
        elements = [f"e{k}" for k in range(n)]
        pairs = [(elements[i], elements[j]) for i in range(n) for j in range(n)
                 if rows[i] >> j & 1]
        try:
            expected = floyd_warshall_rows(rows)
        except CycleError:
            outcomes["cyclic"] += 1
            with pytest.raises(CycleError):
                Poset.of_rows(elements, rows)
            with pytest.raises(CycleError):
                Poset(elements, pairs)
            continue
        outcomes["acyclic"] += 1
        assert Poset.of_rows(elements, rows).rows() == tuple(expected)
        # predecessor masks are the closed rows' columns
        assert Poset.of_rows(elements, rows).predecessor_rows() == tuple(
            sum(1 << i for i in range(n) if expected[i] >> j & 1) for j in range(n))
        assert Poset(elements, pairs).rows() == tuple(expected)
        assert Poset.of_rows(elements, expected).rows() == tuple(expected)
    assert min(outcomes.values()) > 1000, outcomes


def _lines_run_closing(rows):
    """Lines of ``poset._close`` executed while it closes ``rows``: a
    count of its work that does not depend on the machine."""
    code = poset_module._close.__code__
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code is not code:
            return None
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        closed = poset_module._close(rows)
    finally:
        sys.settrace(previous)
    return closed, count


def test_closing_a_closed_order_costs_about_one_or_per_element():
    # closed orders whose index order follows the order: a chain, and a
    # width-2 order where each element precedes those two or more places
    # later; each row ORs the closed rows of its lowest successors, which
    # reach every other one
    n = 400
    for gap in (1, 2):
        rows = [((1 << n) - 1) & ~((1 << (i + gap)) - 1) for i in range(n)]
        closed, lines = _lines_run_closing(rows)
        assert list(closed) == rows
        assert lines < 40 * n, (gap, lines)


# -- maximal antichains ------------------------------------------------------

def brute_force_maximal_antichains(p):
    """Oracle: check all subsets for antichain-ness and maximality."""
    elems = list(p.elements)
    subsets = [
        frozenset(c)
        for c in chain.from_iterable(
            combinations(elems, r) for r in range(1, len(elems) + 1)
        )
    ]
    antichains = [s for s in subsets if is_antichain(p, s)]
    return {
        a for a in antichains if not any(a < b for b in antichains)
    }


def diamond():
    return Poset("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])


def test_antichains_chain():
    p = Poset("ab", [("a", "b")])
    assert maximal_antichains(p) == {frozenset("a"), frozenset("b")}


def test_antichains_two_incomparable():
    p = Poset("ab")
    assert maximal_antichains(p) == {frozenset("ab")}


def test_antichains_diamond_matches_oracle():
    p = diamond()
    got = maximal_antichains(p)
    assert got == brute_force_maximal_antichains(p)
    assert got == {frozenset("a"), frozenset("bc"), frozenset("d")}


def test_antichains_random_matches_oracle():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randrange(2, 7)
        elems = list(range(n))
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]
        p = Poset(elems, pairs)
        got = maximal_antichains(p)
        assert got == brute_force_maximal_antichains(p)
        for a in got:
            assert is_antichain(p, a)
            for x in p.elements:
                if x not in a:
                    assert not is_antichain(p, a | {x})


def test_antichain_size_guard():
    p = Poset(range(30))
    with pytest.raises(SizeLimitError):
        maximal_antichains(p)


# -- prefixes ----------------------------------------------------------------

def test_prefix_closed_and_open():
    p = Poset("abc", [("a", "b"), ("b", "c")])
    assert set(prefix(p, frozenset("b")).elements) == {"a", "b"}
    assert set(prefix(p, frozenset("b"), closed=False).elements) == {"a"}


def test_restrict_matches_closed_pairs_filter():
    # reference: filter every closed pair of the whole order to the members
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randrange(0, 40)
        labels = [f"e{k}" for k in range(n)]
        rng.shuffle(labels)
        pairs = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.15]
        rng.shuffle(labels)
        p = Poset(labels, pairs)
        members = [x for x in labels if rng.random() < 0.4]
        rng.shuffle(members)
        kept = set(members)
        expected = Poset([x for x in p.elements if x in kept],
                         [(x, y) for x, y in closed_pairs(p) if x in kept and y in kept])
        got = p.restrict(members)
        assert got.elements == expected.elements
        assert got.rows() == expected.rows()
        assert closed_pairs(got) == closed_pairs(expected)


# -- linearizations ----------------------------------------------------------

def brute_force_linearizations(p):
    out = set()
    for perm in permutations(p.elements):
        pos = {x: i for i, x in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in closed_pairs(p)):
            out.add(perm)
    return out


def test_linearizations_two_incomparable():
    p = Poset("ab")
    assert set(linearizations(p)) == {("a", "b"), ("b", "a")}


def test_linearizations_chain():
    p = Poset("ab", [("a", "b")])
    assert linearizations(p) == [("a", "b")]


def test_linearizations_diamond_matches_oracle():
    p = diamond()
    got = set(linearizations(p))
    assert got == brute_force_linearizations(p)
    assert len(got) == 2


def test_linearizations_random_matches_oracle():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randrange(1, 6)
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        p = Poset(range(n), pairs)
        assert set(linearizations(p)) == brute_force_linearizations(p)


# -- reduction ---------------------------------------------------------------

def test_transitive_reduction_roundtrip():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(2, 7)
        pairs = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        ]
        p = Poset(range(n), pairs)
        rp = p.covering_pairs()
        assert set(closed_pairs(Poset(range(n), rp))) == set(closed_pairs(p))
        # reduction is minimal: dropping any pair changes the closure
        for k in range(len(rp)):
            smaller = Poset(range(n), rp[:k] + rp[k + 1:])
            assert set(closed_pairs(smaller)) != set(closed_pairs(p))
