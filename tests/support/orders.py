"""Queries and exhaustive enumerations over a ``Poset``: closed pairs (and
the JSON form of a report that holds its order as a ``Poset``),
incomparability, antichains, minimal and maximal elements and intervals,
plus maximal antichains, prefixes and linearizations, each enumeration
guarded by a size cap."""

from __future__ import annotations

from itertools import combinations

from nualign.poset import Poset, set_bits

MAX_ANTICHAIN_ELEMENTS = 25
MAX_LINEARIZATIONS = 500_000


class SizeLimitError(RuntimeError):
    """Raised when an enumeration would exceed its configured size cap."""


def closed_pairs(order: Poset) -> list:
    """Every pair ``(x, y)`` with x before y, in row order."""
    elements = order.elements
    return [(elements[i], elements[j])
            for i, row in enumerate(order.rows()) for j in set_bits(row)]


def report_json(doc: dict) -> dict:
    """The JSON-equal form of a report document that ``build_report``
    made: its ``order``, a ``Poset``, listed as the closed [i, j] pairs."""
    return dict(doc, order=[list(p) for p in closed_pairs(doc["order"])])


def incomparable(order: Poset, x, y) -> bool:
    return x != y and not order.precedes(x, y) and not order.precedes(y, x)


def is_antichain(order: Poset, members) -> bool:
    return all(incomparable(order, x, y) for x, y in combinations(list(members), 2))


def minimal(order: Poset) -> frozenset:
    """Elements with no predecessor (a maximal antichain)."""
    preceded = 0
    for row in order.rows():
        preceded |= row
    return frozenset(x for i, x in enumerate(order.elements) if not preceded >> i & 1)


def maximal(order: Poset) -> frozenset:
    """Elements with no successor (a maximal antichain)."""
    return frozenset(x for x, row in zip(order.elements, order.rows()) if not row)


def _check_antichain(order: Poset, a, what):
    for x in a:
        if x not in order:
            raise ValueError(f"{what} contains {x!r}, not an element")
    if not is_antichain(order, a):
        raise ValueError(f"{what} is not an antichain")


def interval(order: Poset, a, b) -> Poset:
    """Subposet of the elements x with a <= x <= b, for antichains a and b."""
    _check_antichain(order, a, "lower antichain")
    _check_antichain(order, b, "upper antichain")
    return order.restrict([
        x for x in order.elements
        if any(y == x or order.precedes(y, x) for y in a)
        and any(x == y or order.precedes(x, y) for y in b)
    ])


def maximal_antichains(order: Poset, limit=MAX_ANTICHAIN_ELEMENTS):
    """All maximal antichains, as frozensets.

    Maximal antichains are exactly the maximal cliques of the
    incomparability graph; enumerated with Bron-Kerbosch.  Guarded by a
    size cap: this is only ever needed at alignment/oracle scale.
    """
    elements = order.elements
    n = len(elements)
    if limit is not None and n > limit:
        raise SizeLimitError(
            f"maximal_antichains limited to {limit} elements, got {n}"
        )
    full = (1 << n) - 1
    incomp = [full & ~(row | pred | 1 << i)
              for i, (row, pred) in enumerate(zip(order.rows(), order.predecessor_rows()))]

    out = []

    def expand(r, p, x):
        if not p and not x:
            out.append(r)
            return
        pivot_pool = p | x
        pivot = (pivot_pool & -pivot_pool).bit_length() - 1
        cand = p & ~incomp[pivot]
        while cand:
            v = (cand & -cand).bit_length() - 1
            vbit = 1 << v
            expand(r | vbit, p & incomp[v], x & incomp[v])
            p &= ~vbit
            x |= vbit
            cand &= ~vbit

    expand(0, full, 0)
    return {frozenset(elements[i] for i in set_bits(mask)) for mask in out}


def prefix(order: Poset, a, closed=True) -> Poset:
    """Everything at-or-below (closed) / strictly below (open) antichain a."""
    _check_antichain(order, a, "upper antichain")
    return order.restrict([
        x for x in order.elements
        if any(x == y or order.precedes(x, y) for y in a) and (closed or x not in a)
    ])


def linearizations(order: Poset, cap=MAX_LINEARIZATIONS):
    """All topological orders, as tuples. Oracle use: small posets only."""
    elements = order.elements
    n = len(elements)
    preds = order.predecessor_rows()
    out = []

    def backtrack(done_mask, acc):
        if len(acc) == n:
            out.append(tuple(elements[i] for i in acc))
            if len(out) > cap:
                raise SizeLimitError(f"more than {cap} linearizations")
            return
        for i in range(n):
            if not (done_mask >> i) & 1 and preds[i] & ~done_mask == 0:
                backtrack(done_mask | (1 << i), acc + [i])

    backtrack(0, [])
    return out
