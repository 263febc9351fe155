"""Multiset and finite partial-order algebra.

Everything downstream (markings, event logs, alignments) is built on the
two structures in this module:

- ``Multiset``: a mapping from elements to positive counts, with the
  elementwise sum, the clamped difference and the pointwise ``<=`` order.
- ``Poset``: a finite set of elements with a strict (irreflexive, acyclic)
  precedence relation, plus the operations needed by the alignment engine:
  covering pairs, predecessor rows and restriction.

Posets assign each element a stable integer index at construction and
hold the order only as its reachability rows, one int bitmask per element,
closed once by a depth-first pass.  All iteration is in ascending index
order, so results are deterministic.
"""

from __future__ import annotations


class CycleError(ValueError):
    """Raised when a relation that must be acyclic contains a cycle."""


# ---------------------------------------------------------------------------
# Multisets
# ---------------------------------------------------------------------------

class Multiset:
    """Finite multiset: elements mapped to counts >= 1.

    Zero counts are never stored, so ``support()`` is exactly the key set.
    Subtraction clamps at zero; signed counts, such as pseudo-markings,
    are plain dicts.
    """

    __slots__ = ("_counts",)

    def __init__(self, items=()):
        if isinstance(items, Multiset):
            counts = dict(items._counts)
        elif isinstance(items, dict):
            # one C-level copy and one check; only a zero or negative count
            # takes the per-element pass
            counts = dict(items)
            if counts and min(counts.values()) <= 0:
                for x, n in items.items():
                    if n < 0:
                        raise ValueError(f"negative multiplicity {n} for {x!r}")
                    if not n:
                        del counts[x]
        else:
            counts = {}
            for x in items:
                counts[x] = counts.get(x, 0) + 1
        self._counts = counts

    def count(self, x):
        return self._counts.get(x, 0)

    def support(self):
        return set(self._counts)

    def items(self):
        return self._counts.items()

    def total(self):
        return sum(self._counts.values())

    def __len__(self):
        return self.total()

    def __bool__(self):
        return bool(self._counts)

    def __contains__(self, x):
        return x in self._counts

    def __eq__(self, other):
        return isinstance(other, Multiset) and self._counts == other._counts

    def __hash__(self):
        return hash(frozenset(self._counts.items()))

    def __le__(self, other):
        return all(n <= other.count(x) for x, n in self._counts.items())

    def __add__(self, other):
        out = dict(self._counts)
        for x, n in other._counts.items():
            out[x] = out.get(x, 0) + n
        return Multiset(out)

    def __sub__(self, other):
        """Elementwise difference clamped at zero."""
        out = {}
        for x, n in self._counts.items():
            m = n - other.count(x)
            if m > 0:
                out[x] = m
        return Multiset(out)

    def __repr__(self):
        inner = ", ".join(
            (f"{n}*{x!r}" if n > 1 else repr(x))
            for x, n in sorted(self._counts.items(), key=lambda kv: repr(kv[0]))
        )
        return f"[{inner}]"


# ---------------------------------------------------------------------------
# Posets
# ---------------------------------------------------------------------------

def set_bits(mask):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def masks_by_value(values: dict) -> dict:
    """``{value: mask}`` of an ``{index: value}`` map, zero values left out:
    bit i of value v's mask is set iff index i has value v."""
    masks = {}
    for i, v in values.items():
        if v:
            masks[v] = masks.get(v, 0) | 1 << i
    return masks


def _close(rows):
    """Reachability rows of the relation ``rows`` (bit j of row i: i -> j).

    One depth-first pass, lowest index first.  A row is finished after its
    successors' rows, as their OR, skipping every successor that an earlier
    one reaches: a closed input in index order costs one OR per element.
    Raises CycleError, naming its indices, on a successor still on the path."""
    n = len(rows)
    closed = [0] * n
    done = 0
    for root in range(n):
        if done >> root & 1:
            continue
        path = [root]
        on_path = 1 << root
        while path:
            i = path[-1]
            todo = rows[i] & ~done
            fresh = todo & ~on_path
            if fresh:
                low = fresh & -fresh
                path.append(low.bit_length() - 1)
                on_path |= low
                continue
            if todo:
                low = (todo & -todo).bit_length() - 1
                cycle = " -> ".join(map(str, path[path.index(low):] + [low]))
                raise CycleError(f"order relation contains a cycle: {cycle} (element indices)")
            reach = 0
            pending = rows[i]
            while pending:
                low = pending & -pending
                reach |= low | closed[low.bit_length() - 1]
                pending &= ~reach
            closed[i] = reach
            done |= 1 << i
            on_path ^= 1 << i
            path.pop()
    return tuple(closed)


class Poset:
    """Finite strict partial order over arbitrary hashable elements, held
    only as its reachability rows: an int per element, in index order, with
    bit j of row i set iff element i precedes element j.  Both constructors
    close their relation (``Poset`` of pairs, ``of_rows`` of rows) and raise
    ``CycleError`` on a reflexive or cyclic one."""

    def __init__(self, elements, pairs=()):
        self._elements = tuple(elements)
        self._index = {x: i for i, x in enumerate(self._elements)}
        if len(self._index) != len(self._elements):
            raise ValueError("duplicate elements")
        rows = [0] * len(self._elements)
        for a, b in pairs:
            i, j = self._index[a], self._index[b]
            if i == j:
                raise CycleError(f"reflexive pair on {a!r}")
            rows[i] |= 1 << j
        self._rows = _close(rows) if pairs else tuple(rows)

    @classmethod
    def of_rows(cls, elements, rows):
        """The order over ``elements`` in which element i precedes element
        j iff bit j of ``rows[i]`` is set, closed."""
        poset = cls(elements)
        n = len(poset)
        if len(rows) != n or any(row >> n for row in rows):
            raise ValueError(f"rows do not fit {n} elements")
        poset._rows = _close(rows)
        return poset

    # -- basic queries ------------------------------------------------

    @property
    def elements(self):
        return self._elements

    def __len__(self):
        return len(self._elements)

    def __contains__(self, x):
        return x in self._index

    def __iter__(self):
        return iter(self._elements)

    def rows(self):
        """Reachability rows, index-ordered: bit j of row i is set iff
        element i precedes element j."""
        return self._rows

    def _covers(self):
        """Per element, the mask of the elements it covers: i covers j
        when no successor of i precedes j."""
        rows = self._rows
        out = []
        for row in rows:
            cover = pending = row
            while pending:
                low = pending & -pending
                beyond = rows[low.bit_length() - 1]
                cover &= ~beyond
                pending &= ~(low | beyond)
            out.append(cover)
        return out

    def covering_pairs(self):
        """The pairs of the transitive reduction, index-ordered."""
        elements = self._elements
        return [(elements[i], elements[j])
                for i, cover in enumerate(self._covers()) for j in set_bits(cover)]

    def precedes(self, x, y):
        """Strict precedence."""
        return bool(self._rows[self._index[x]] & (1 << self._index[y]))

    def predecessor_rows(self):
        """Per element, index-ordered, the mask of its predecessors: bit i
        of entry j is set iff element i precedes element j.  The covering
        pairs reversed, closed by the same depth-first pass as the rows."""
        reverse = [0] * len(self._elements)
        for i, cover in enumerate(self._covers()):
            for j in set_bits(cover):
                reverse[j] |= 1 << i
        return _close(reverse)

    def restrict(self, members):
        """Subposet on ``members``, in this poset's element order: the
        members' rows with every non-member's bit deleted, run by run of
        consecutive member indices.  A restricted closed order is closed,
        so the rows are stored as they are."""
        kept = set(members)
        keep = [i for i, x in enumerate(self._elements) if x in kept]
        runs = []           # (first index, width mask, first new index)
        for new, i in enumerate(keep):
            if new and keep[new - 1] == i - 1:
                lo, width, start = runs[-1]
                runs[-1] = (lo, width << 1 | 1, start)
            else:
                runs.append((i, 1, new))
        rows = [sum((self._rows[i] >> lo & width) << start for lo, width, start in runs)
                for i in keep]
        poset = Poset(self._elements[i] for i in keep)
        poset._rows = tuple(rows)
        return poset

    def __repr__(self):
        pairs = sum(row.bit_count() for row in self._rows)
        return f"Poset({len(self._elements)} elements, {pairs} pairs)"
