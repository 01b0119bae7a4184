"""The item table: a two-tier synopsis of individual extents."""

from __future__ import annotations

from typing import List, Optional, Tuple

from .extent import Extent
from .two_tier import AccessResult, TableStats, TwoTierTable


class ItemTable:
    """Two-tier table of individual extents (paper Fig. 4, left).

    Every extent of every transaction is recorded here.  The table's role in
    the synopsis is twofold: it tracks which *individual* extents are
    frequent, and its evictions drive demotions in the correlation table --
    "since frequent correlations must involve frequent extents, when an
    extent is evicted from the item table, we also demote it in the
    correlation table" (Section III-D2).
    """

    def __init__(
        self,
        t1_capacity: int,
        t2_capacity: Optional[int] = None,
        promote_threshold: int = 2,
    ) -> None:
        self._table: TwoTierTable[Extent] = TwoTierTable(
            t1_capacity, t2_capacity, promote_threshold
        )

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

    def __contains__(self, extent: Extent) -> bool:
        return extent in self._table

    def tally(self, extent: Extent) -> Optional[int]:
        return self._table.tally(extent)

    def tier_of(self, extent: Extent) -> Optional[int]:
        return self._table.tier_of(extent)

    def access(self, extent: Extent) -> AccessResult[Extent]:
        """Record one sighting; see :meth:`TwoTierTable.access`."""
        return self._table.access(extent)

    def access_fast(self, extent: Extent) -> Optional[Extent]:
        """Allocation-light :meth:`access`: returns the evicted extent or
        ``None`` (see :meth:`TwoTierTable.access_fast`)."""
        return self._table.access_fast(extent)[1]

    def evicted_from(self, result: AccessResult[Extent]) -> List[Extent]:
        """Extents evicted as a consequence of ``result``."""
        return [key for key, _tally, _tier in result.evicted]

    def items(self) -> List[Tuple[Extent, int, int]]:
        """Every ``(extent, tally, tier)`` currently held."""
        return self._table.items()

    def frequent(self, min_tally: int = 1) -> List[Tuple[Extent, int]]:
        """Extents with tally >= ``min_tally``, most frequent first."""
        return self._table.frequent(min_tally)

    def clear(self) -> None:
        self._table.clear()
