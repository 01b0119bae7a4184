"""Count-min pair sketch with a heavy-pair candidate heap.

Cormode & Muthukrishnan's count-min sketch gives a never-underestimating
frequency oracle over the full pair space in ``width x depth`` counters;
a sketch alone cannot *enumerate* its heavy keys, so -- following the
sketch-based correlation-recovery pattern of Cormode & Dark -- a bounded
candidate set tracks the pairs whose estimates were large when they were
last updated, and queries rank those candidates by their current sketch
estimate.  Recall is bounded by the candidate set (a heavy pair whose
estimate only grew large while it was outside the set can be missed);
precision is bounded by the sketch's collision overestimates.  Both knobs
(``cms_width``/``cms_depth`` and ``cms_candidates``) are priced by the
memory model, which is what the Pareto benchmark sweeps.

A small Space-Saving summary over the item stream answers
``frequent_extents``, mirroring the CHH backend.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from ...core.config import AnalyzerConfig
from ...core.extent import Extent, ExtentPair
from ...core.memory_model import cms_backend_bytes
from ...core.sketches import CountMinParams, CountMinSketch, SpaceSaving
from .base import BackendBase
from .chh import _dump_entries, _load_entries


class CountMinPairBackend(BackendBase):
    """The count-min pair-sketch backend."""

    name = "cms"

    def __init__(self, config: Optional[AnalyzerConfig] = None) -> None:
        super().__init__(config)
        width, depth, candidates = self.config.cms_dimensions()
        self._params = CountMinParams(width=width, depth=depth)
        self._candidate_capacity = candidates
        self._sketch: CountMinSketch = CountMinSketch(
            self._params, track_top=candidates, conservative=True
        )
        self._items: SpaceSaving = SpaceSaving(candidates)

    # -- primitive updates -------------------------------------------------

    def update_item(self, extent: Extent) -> None:
        self._items.update(extent)
        return None

    def update_pair(self, pair: ExtentPair, mix: Optional[int] = None
                    ) -> None:
        self._sketch.update(pair)

    # -- queries -----------------------------------------------------------

    def estimate(self, pair: ExtentPair) -> int:
        """Point estimate for any pair (never underestimates)."""
        return self._sketch.count(pair)

    def top_pairs(self, k: int = 100, min_support: int = 1
                  ) -> List[Tuple[ExtentPair, int]]:
        ranked = self._sketch.heavy_hitters(min_support)
        ranked.sort(key=lambda entry: (-entry[1], entry[0]))
        return ranked[:k]

    def frequent_pairs(self, min_support: int = 2
                       ) -> List[Tuple[ExtentPair, int]]:
        ranked = self._sketch.heavy_hitters(min_support)
        ranked.sort(key=lambda entry: (-entry[1], entry[0]))
        return ranked

    def pair_frequencies(self) -> Dict[ExtentPair, int]:
        return dict(self._sketch.heavy_hitters(1))

    def frequent_extents(self, min_support: int = 2
                         ) -> List[Tuple[Extent, int]]:
        ranked = self._items.frequent(min_support)
        ranked.sort(key=lambda entry: (-entry[1], entry[0]))
        return ranked

    # -- accounting and lifecycle ------------------------------------------

    def memory_bytes(self) -> int:
        return cms_backend_bytes(self._params.width, self._params.depth,
                                 self._candidate_capacity)

    def occupancy(self) -> Tuple[int, int]:
        return len(self._items), len(self._sketch.candidates())

    def merge(self, other: "CountMinPairBackend") -> None:
        """Fold ``other`` in: counter arrays add element-wise (identical
        dimensions required -- the hashes must agree), candidate sets
        union and re-rank against the merged counters.  Addition stays an
        upper bound under conservative update: every cell a key touches
        holds at least that key's per-substream count, so the summed cell
        holds at least its total."""
        if other._params != self._params:
            raise ValueError(
                f"cannot merge count-min sketches of different dimensions: "
                f"{self._params} vs {other._params}"
            )
        mine = self._sketch.counter_rows()
        theirs = other._sketch.counter_rows()
        merged = [
            [a + b for a, b in zip(mine_row, their_row)]
            for mine_row, their_row in zip(mine, theirs)
        ]
        union = {key for key, _est in self._sketch.candidates()}
        union.update(key for key, _est in other._sketch.candidates())
        total = self._sketch.total + other._sketch.total
        self._sketch.restore_state(merged, total, [])
        reranked = sorted(
            ((key, self._sketch.count(key)) for key in union),
            key=lambda entry: -entry[1],
        )[: self._candidate_capacity]
        self._sketch.restore_state(merged, total, reranked)
        for key, count, _error in other._items.entries():
            self._items.update(key, count)
        self._transactions += other._transactions
        self._extents_seen += other._extents_seen
        self._pairs_seen += other._pairs_seen

    def serialize(self) -> bytes:
        state = {
            "counters": self._counters(),
            "rows": self._sketch.counter_rows(),
            "total": self._sketch.total,
            "candidates": [
                [pair.first.start, pair.first.length,
                 pair.second.start, pair.second.length, estimate]
                for pair, estimate in self._sketch.candidates()
            ],
            "items": _dump_entries(self._items),
            "items_total": self._items.total,
        }
        return json.dumps(state, separators=(",", ":")).encode("utf-8")

    @classmethod
    def deserialize(cls, payload: bytes,
                    config: Optional[AnalyzerConfig] = None
                    ) -> "CountMinPairBackend":
        state = json.loads(payload.decode("utf-8"))
        backend = cls(config)
        intern_extent = backend._interner.extent
        intern_pair = backend._interner.pair
        backend._restore_counters(state["counters"])
        backend._sketch.restore_state(
            state["rows"],
            state["total"],
            [
                (intern_pair(intern_extent(a_start, a_length),
                             intern_extent(b_start, b_length)), estimate)
                for a_start, a_length, b_start, b_length, estimate
                in state["candidates"]
            ],
        )
        _load_entries(backend._items, state["items"],
                      state["items_total"], intern_extent)
        return backend

    def reset(self) -> None:
        super().reset()
        self._sketch = CountMinSketch(
            self._params, track_top=self._candidate_capacity,
            conservative=True,
        )
        self._items = SpaceSaving(self._candidate_capacity)
