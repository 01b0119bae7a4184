"""The correlation table: a two-tier synopsis of extent pairs.

Beyond the plain two-tier behaviour, the correlation table maintains an
inverted index from each extent to the set of resident pairs that involve
it.  The index serves the coupling rule of Section III-D2: when an extent is
evicted from the *item* table, every pair involving it is *demoted* in the
correlation table (moved to the LRU end of its tier), making those pairs
next in line for eviction without discarding their tallies outright.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .extent import Extent, ExtentPair
from .two_tier import AccessResult, TableStats, TwoTierTable


class CorrelationTable:
    """Two-tier table of extent pairs with an extent -> pairs index."""

    def __init__(
        self,
        t1_capacity: int,
        t2_capacity: Optional[int] = None,
        promote_threshold: int = 2,
    ) -> None:
        self._table: TwoTierTable[ExtentPair] = TwoTierTable(
            t1_capacity, t2_capacity, promote_threshold
        )
        self._by_extent: Dict[Extent, Set[ExtentPair]] = {}

    @property
    def stats(self) -> TableStats:
        return self._table.stats

    @property
    def capacity(self) -> int:
        return self._table.capacity

    @property
    def t1(self):
        """The probationary tier's LRU queue (telemetry / inspection)."""
        return self._table.t1

    @property
    def t2(self):
        """The protected tier's LRU queue (telemetry / inspection)."""
        return self._table.t2

    def __len__(self) -> int:
        return len(self._table)

    def __contains__(self, pair: ExtentPair) -> bool:
        return pair in self._table

    def tally(self, pair: ExtentPair) -> Optional[int]:
        return self._table.tally(pair)

    def tier_of(self, pair: ExtentPair) -> Optional[int]:
        return self._table.tier_of(pair)

    # -- index maintenance ---------------------------------------------------

    def _index(self, pair: ExtentPair) -> None:
        self._by_extent.setdefault(pair.first, set()).add(pair)
        self._by_extent.setdefault(pair.second, set()).add(pair)

    def _unindex(self, pair: ExtentPair) -> None:
        for extent in (pair.first, pair.second):
            members = self._by_extent.get(extent)
            if members is None:
                continue
            members.discard(pair)
            if not members:
                del self._by_extent[extent]

    # -- operations ------------------------------------------------------------

    def access(self, pair: ExtentPair) -> AccessResult[ExtentPair]:
        """Record one co-occurrence of the pair's two extents."""
        result = self._table.access(pair)
        if not result.hit:
            self._index(pair)
        for evicted_pair, _tally, _tier in result.evicted:
            self._unindex(evicted_pair)
        return result

    def access_fast(self, pair: ExtentPair) -> Optional[ExtentPair]:
        """Allocation-light :meth:`access`: returns the evicted pair or None.

        State, stats, and inverted-index transitions are identical to
        :meth:`access`; only the :class:`AccessResult` is elided (see
        :meth:`TwoTierTable.access_fast`).
        """
        hit, evicted = self._table.access_fast(pair)
        if not hit:
            self._index(pair)
        if evicted is not None:
            self._unindex(evicted)
        return evicted

    def pairs_involving(self, extent: Extent) -> List[ExtentPair]:
        """Resident pairs that have ``extent`` as a member."""
        return sorted(self._by_extent.get(extent, ()))

    def top_involving(self, extent: Extent, k: int
                      ) -> List[Tuple[ExtentPair, int]]:
        """The ``k`` strongest resident pairs involving ``extent``, in
        :meth:`frequent` order, selected from the index without sorting
        it.  Among pairs sharing ``extent``, pair order is partner order."""
        return self._table.top(self._by_extent.get(extent, ()), k)

    def demote_involving(self, extent: Extent) -> int:
        """Demote every resident pair involving ``extent``.

        Called when ``extent`` is evicted from the item table.  Returns the
        number of pairs demoted.
        """
        demoted = 0
        for pair in self.pairs_involving(extent):
            if self._table.demote(pair):
                demoted += 1
        return demoted

    def remove(self, pair: ExtentPair) -> Optional[int]:
        tally = self._table.remove(pair)
        if tally is not None:
            self._unindex(pair)
        return tally

    def items(self) -> List[Tuple[ExtentPair, int, int]]:
        """Every ``(pair, tally, tier)`` currently held."""
        return self._table.items()

    def frequent(self, min_tally: int = 1) -> List[Tuple[ExtentPair, int]]:
        """Pairs with tally >= ``min_tally``, most frequent first.

        This is the synopsis output the paper compares against offline FIM:
        the resident pairs filtered by a minimum support (e.g. support 5 in
        Fig. 8, support 10 in Fig. 7).
        """
        return self._table.frequent(min_tally)

    def frequencies(self) -> Dict[ExtentPair, int]:
        """Mapping of every resident pair to its tally."""
        return {pair: tally for pair, tally, _tier in self._table.items()}

    def check_index(self) -> bool:
        """Verify the inverted index exactly mirrors residency (for tests)."""
        resident: Set[ExtentPair] = {pair for pair, _t, _tier in self._table.items()}
        indexed: Set[ExtentPair] = set()
        for members in self._by_extent.values():
            indexed.update(members)
        return resident == indexed

    def clear(self) -> None:
        self._table.clear()
        self._by_extent.clear()
