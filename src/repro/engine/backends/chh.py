"""Correlated Heavy Hitters: nested Misra-Gries over item->partner streams.

Lahiri, Tirthapura & Woodruff's CHH summary answers "which pairs (x, y)
are frequent, where x is a frequent item and y is frequent *given* x"
with two nested Misra-Gries levels: an **outer** summary tracks the heavy
primary items of the stream, and each tracked item owns an **inner**
summary of its co-accessed partners.  When the outer level evicts an
item, its inner summary is dropped wholesale -- the nested structure
keeps total space at ``outer * (1 + partners)`` counters regardless of
how many distinct pairs the stream contains.

Both levels here are :class:`~repro.core.sketches.SpaceSaving` instances
whose lazy min-heap update is exactly the Epicoco, Cafaro & Pulimeno
*fast variant* of CHH: instead of scanning all counters for the minimum
on every eviction (the textbook Misra-Gries step), the O(log k) heap pop
finds it, which is what makes the nested update affordable on the hot
path.

Mapping onto this repo's stream: every canonical co-access pair (a, b)
updates the summary in **both directions** (a as primary with partner b,
and b as primary with partner a), so a pair's estimate can be recovered
from either endpoint that survived in the outer summary.  Feeding the
outer level from the pair stream (rather than the item stream) keeps a
shard's outer and inner levels consistent under pair-hash routing.
A separate item-level Space-Saving summary answers ``frequent_extents``.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from ...core.config import AnalyzerConfig
from ...core.extent import Extent, ExtentPair, extent_of_row, pair_of_ordered
from ...core.memory_model import chh_backend_bytes
from ...core.sketches import SpaceSaving
from ...core.two_tier import rank
from .base import BackendBase


def _dump_entries(summary: SpaceSaving) -> List[List[int]]:
    return [[key.start, key.length, count, error]
            for key, count, error in summary.entries()]


def _load_entries(summary: SpaceSaving, rows: Iterable[List[int]],
                  total: int) -> None:
    summary.restore_entries(
        [(extent_of_row((start, length)), count, error)
         for start, length, count, error in rows],
        total=total,
    )


class CHHBackend(BackendBase):
    """The nested Misra-Gries correlated-heavy-hitters backend."""

    name = "chh"

    def __init__(self, config: Optional[AnalyzerConfig] = None) -> None:
        super().__init__(config)
        items, partners = self.config.chh_dimensions()
        self._outer_capacity = items
        self._partner_capacity = partners
        self._outer: SpaceSaving = SpaceSaving(items)
        self._inners: Dict[Extent, SpaceSaving] = {}
        self._items: SpaceSaving = SpaceSaving(items)

    # -- primitive updates -------------------------------------------------

    def update_item(self, extent: Extent) -> None:
        self._items.update(extent)
        return None

    def update_pair(self, pair: ExtentPair, mix: Optional[int] = None
                    ) -> None:
        self._update_direction(pair.first, pair.second)
        self._update_direction(pair.second, pair.first)

    def _update_direction(self, item: Extent, partner: Extent) -> None:
        evicted = self._outer.update(item)
        if evicted is not None:
            # The fast-variant eviction: the displaced item's whole inner
            # summary goes with it (nested Misra-Gries space bound).
            self._inners.pop(evicted, None)
        inner = self._inners.get(item)
        if inner is None:
            inner = self._inners[item] = SpaceSaving(
                self._partner_capacity
            )
        inner.update(partner)

    # -- queries -----------------------------------------------------------

    def _pair_estimates(self, min_support: int = 1
                        ) -> Dict[ExtentPair, int]:
        """Canonical pair -> estimate, taking the better-surviving
        direction (an inner summary may have been dropped and re-grown)."""
        best: Dict[ExtentPair, int] = {}
        for item, inner in self._inners.items():
            for partner, count, _error in inner.entries():
                if count < min_support or item == partner:
                    continue
                pair = pair_of_ordered((item, partner) if item < partner
                                       else (partner, item))
                if count > best.get(pair, 0):
                    best[pair] = count
        return best

    def top_pairs(self, k: int = 100, min_support: int = 1
                  ) -> List[Tuple[ExtentPair, int]]:
        return rank(list(self._pair_estimates(min_support).items()))[:k]

    def frequent_pairs(self, min_support: int = 2
                       ) -> List[Tuple[ExtentPair, int]]:
        return rank(list(self._pair_estimates(min_support).items()))

    def pair_frequencies(self) -> Dict[ExtentPair, int]:
        return self._pair_estimates(1)

    def correlated_with(self, extent: Extent, k: int = 16
                        ) -> List[Tuple[Extent, int]]:
        partners: Dict[Extent, int] = {}
        inner = self._inners.get(extent)
        if inner is not None:
            for partner, count, _error in inner.entries():
                partners[partner] = count
        # The reverse direction may have survived where the forward
        # inner summary was dropped.
        for item, other in self._inners.items():
            count = other.count(extent)
            if count > partners.get(item, 0):
                partners[item] = count
        return rank(list(partners.items()))[:k]

    def frequent_extents(self, min_support: int = 2
                         ) -> List[Tuple[Extent, int]]:
        return rank(self._items.frequent(min_support))

    # -- accounting and lifecycle ------------------------------------------

    def memory_bytes(self) -> int:
        return chh_backend_bytes(self._outer_capacity,
                                 self._partner_capacity)

    def occupancy(self) -> Tuple[int, int]:
        return (len(self._items),
                sum(len(inner) for inner in self._inners.values()))

    def merge(self, other: "CHHBackend") -> None:
        """Fold ``other``'s summaries in (approximate: counts re-inserted
        through the Misra-Gries update, so the merged summary keeps the
        overestimate guarantees of a summary built from the concatenated
        streams)."""
        for key, count, _error in other._outer.entries():
            evicted = self._outer.update(key, count)
            if evicted is not None:
                self._inners.pop(evicted, None)
        for item, inner in other._inners.items():
            if item not in self._outer:
                continue
            mine = self._inners.get(item)
            if mine is None:
                mine = self._inners[item] = SpaceSaving(
                    self._partner_capacity
                )
            for partner, count, _error in inner.entries():
                mine.update(partner, count)
        for key, count, _error in other._items.entries():
            self._items.update(key, count)
        self._transactions += other._transactions
        self._extents_seen += other._extents_seen
        self._pairs_seen += other._pairs_seen

    def serialize(self) -> bytes:
        state = {
            "counters": self._counters(),
            "outer": _dump_entries(self._outer),
            "outer_total": self._outer.total,
            "items": _dump_entries(self._items),
            "items_total": self._items.total,
            "inner": [
                [item.start, item.length, _dump_entries(inner), inner.total]
                for item, inner in self._inners.items()
            ],
        }
        return json.dumps(state, separators=(",", ":")).encode("utf-8")

    @classmethod
    def deserialize(cls, payload: bytes,
                    config: Optional[AnalyzerConfig] = None
                    ) -> "CHHBackend":
        state = json.loads(payload.decode("utf-8"))
        backend = cls(config)
        backend._restore_counters(state["counters"])
        _load_entries(backend._outer, state["outer"], state["outer_total"])
        _load_entries(backend._items, state["items"], state["items_total"])
        for start, length, rows, total in state["inner"]:
            inner = SpaceSaving(backend._partner_capacity)
            _load_entries(inner, rows, total)
            backend._inners[extent_of_row((start, length))] = inner
        return backend

    def reset(self) -> None:
        super().reset()
        self._outer = SpaceSaving(self._outer_capacity)
        self._inners = {}
        self._items = SpaceSaving(self._outer_capacity)
