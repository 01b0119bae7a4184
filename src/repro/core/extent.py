"""Extents and extent pairs.

In the block layer, an I/O request is expressed as one or more *adjacent*
blocks given by a starting block number and a length -- what the paper calls
an *extent* (Section III-A).  The online analysis operates on whole extents
rather than individual blocks: pairing extents keeps the per-transaction cost
at ``C(N, 2)`` for ``N`` extents instead of the higher-order polynomial that
block-level pairing would incur, while sacrificing only the rare correlations
between extents requested in different "shapes".

This module defines the :class:`Extent` value type, the canonical
:class:`ExtentPair`, and the helpers used to expand extent-level objects back
into block-level pairs (needed when comparing online results against
block-granularity ground truth, as in Figures 7 and 8 of the paper).
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Iterable, Iterator, List, NamedTuple, Set, Tuple

_tuple_new = tuple.__new__


class _ExtentFields(NamedTuple):
    start: int
    length: int


class Extent(_ExtentFields):
    """A contiguous run of blocks: ``[start, start + length)``.

    ``start`` is a block number (the paper uses 64-bit block IDs) and
    ``length`` is the number of blocks (32-bit in the paper's memory model).
    Ordering is lexicographic on ``(start, length)``, which gives extent
    pairs a canonical orientation.

    An extent *is* the tuple ``(start, length)``: it compares equal to,
    orders like and hashes like that plain tuple, so the synopsis tables
    hash, compare and sort their keys in C.
    """

    __slots__ = ()

    def __new__(cls, start: int, length: int) -> "Extent":
        if start < 0:
            raise ValueError(f"extent start must be >= 0, got {start}")
        if length <= 0:
            raise ValueError(f"extent length must be > 0, got {length}")
        return _tuple_new(cls, (start, length))

    @property
    def end(self) -> int:
        """One past the last block covered by this extent."""
        return self.start + self.length

    def blocks(self) -> Iterator[int]:
        """Iterate over the individual block numbers in this extent."""
        return iter(range(self.start, self.end))

    def contains_block(self, block: int) -> bool:
        """Return whether ``block`` falls inside this extent."""
        return self.start <= block < self.end

    def overlaps(self, other: "Extent") -> bool:
        """Return whether the two extents share at least one block."""
        return self.start < other.end and other.start < self.end

    def is_adjacent(self, other: "Extent") -> bool:
        """Return whether the two extents touch without overlapping."""
        return self.end == other.start or other.end == self.start

    def union_span(self, other: "Extent") -> "Extent":
        """Smallest extent covering both extents (they need not touch)."""
        start = min(self.start, other.start)
        end = max(self.end, other.end)
        return Extent(start, end - start)

    def intra_block_pairs(self) -> int:
        """Number of intra-request block correlations, ``C(length, 2)``.

        The paper (Section II-A) counts every unique pairing of blocks
        within one request as an intra-request block correlation.
        """
        return self.length * (self.length - 1) // 2

    def __str__(self) -> str:  # e.g. "100+4", matching the paper's notation
        return f"{self.start}+{self.length}"

    @classmethod
    def parse(cls, text: str) -> "Extent":
        """Parse the ``start+length`` notation used throughout the paper."""
        try:
            start_text, length_text = text.split("+")
            return cls(int(start_text), int(length_text))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"not a valid extent: {text!r}") from exc


class _PairFields(NamedTuple):
    first: Extent
    second: Extent


class ExtentPair(_PairFields):
    """A canonical (unordered) pair of distinct extents.

    The constructor normalises orientation so that ``first <= second``;
    two pairs built from the same extents in either order compare equal and
    hash identically.  A pair of two *equal* extents is rejected: a
    deduplicated transaction never pairs an extent with itself.  Like
    :class:`Extent`, a pair is the tuple ``(first, second)``.
    """

    __slots__ = ()

    def __new__(cls, a: Extent, b: Extent) -> "ExtentPair":
        if a == b:
            raise ValueError(f"an extent cannot be paired with itself: {a}")
        if b < a:
            a, b = b, a
        return _tuple_new(cls, (a, b))

    def involves(self, extent: Extent) -> bool:
        """Return whether ``extent`` is one of the two members."""
        return extent == self.first or extent == self.second

    def other(self, extent: Extent) -> Extent:
        """Return the member that is not ``extent``.

        Raises ``ValueError`` when ``extent`` is not a member at all.
        """
        if extent == self.first:
            return self.second
        if extent == self.second:
            return self.first
        raise ValueError(f"{extent} is not a member of {self}")

    def inter_block_pairs(self) -> int:
        """Number of inter-request block correlations implied: ``n * m``."""
        return self.first.length * self.second.length

    def block_pairs(self) -> Iterator[Tuple[int, int]]:
        """Yield every implied block-level pair ``(a, b)``, a from first.

        This is the expansion the paper performs implicitly in Figures 7/8
        when plotting extent correlations at block granularity.
        """
        for a in self.first.blocks():
            for b in self.second.blocks():
                yield (a, b)

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"


#: Unchecked constructors for the hot loops, which build keys straight
#: from integer columns and sorted distinct-extent lists.  Each takes one
#: tuple, so ``map`` can feed it from ``zip`` or
#: ``itertools.combinations`` without a Python-level call:
#: ``extent_of_row((start, length))`` requires ``start >= 0`` and
#: ``length > 0``; ``pair_of_ordered((a, b))`` requires ``a < b``.
extent_of_row = partial(_tuple_new, Extent)
pair_of_ordered = partial(_tuple_new, ExtentPair)


def unique_pairs(extents: Iterable[Extent]) -> List[ExtentPair]:
    """Every unique pair of distinct extents in the iterable.

    Duplicated extents are collapsed first: the paper deduplicates a
    transaction before pairing (Section III-D2), so a repeated request never
    forms a self-pair nor double-counts a correlation.  For ``N`` distinct
    extents the result has ``C(N, 2)`` elements.
    """
    return list(map(pair_of_ordered, combinations(sorted(set(extents)), 2)))


def block_correlations(extents: Iterable[Extent]) -> Set[Tuple[int, int]]:
    """Block-level correlation set implied by one transaction.

    Returns canonical ``(low, high)`` block pairs covering both the
    intra-request correlations of each extent and the inter-request
    correlations between different extents (paper Fig. 2).  Intended for
    small examples and ground-truth checks; it is quadratic in total blocks.
    """
    distinct = sorted(set(extents))
    pairs: Set[Tuple[int, int]] = set()
    for extent in distinct:
        run = list(extent.blocks())
        for i, a in enumerate(run):
            for b in run[i + 1:]:
                pairs.add((a, b))
    for i, first in enumerate(distinct):
        for second in distinct[i + 1:]:
            for a in first.blocks():
                for b in second.blocks():
                    if a == b:
                        continue
                    pairs.add((min(a, b), max(a, b)))
    return pairs
