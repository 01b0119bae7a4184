"""Cache hit/miss accounting with prefetch effectiveness split out.

This is the statistics surface of the cache subsystem (paper Section I /
Section V: "caching & prefetching" is the first optimization the framework
is built to enable), with exact prefetch attribution:

* ``prefetches_issued`` counts *blocks* speculatively loaded;
* ``prefetch_hits`` counts blocks whose **first demand access after the
  prefetch that loaded them** was a hit -- each issued prefetch is
  attributed at most once, and a block that was prefetched, evicted
  unused, and then *re-fetched on demand* is a plain demand fill: later
  hits on it must not be re-counted as prefetch hits (the accounting bug
  this port fixes -- keeping the prefetched flag anywhere but on the
  resident entry itself lets it survive eviction and double-count);
* ``prefetch_evicted_unused`` counts prefetched blocks that left the
  cache without ever being demanded (pure pollution);
* ``demand_refetches`` counts demand misses on blocks that had been
  prefetched earlier but were evicted before use -- the "too early"
  failure mode, useful when tuning the prefetch budget.

Together these guarantee the invariant::

    prefetch_hits + prefetch_evicted_unused + (still-resident unused)
        == prefetches_issued

so ``prefetch_accuracy`` can never exceed 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    """Hit/miss accounting, with prefetch effectiveness split out."""

    hits: int = 0
    misses: int = 0
    prefetches_issued: int = 0
    prefetch_hits: int = 0   # hits on blocks that entered via prefetch
    prefetch_evicted_unused: int = 0  # prefetched blocks evicted untouched
    demand_refetches: int = 0  # demand misses on evicted-unused prefetches

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    @property
    def prefetch_accuracy(self) -> float:
        """Fraction of issued prefetched blocks that saw a demand hit.

        Attribution is once per issued prefetch: a prefetched block that
        is evicted unused and later re-fetched on demand contributes a
        ``demand_refetches`` tick, never a second ``prefetch_hits`` one.
        """
        if self.prefetches_issued == 0:
            return 0.0
        return self.prefetch_hits / self.prefetches_issued

    def merged(self, other: "CacheStats") -> "CacheStats":
        """A new ``CacheStats`` with both sets of counters summed."""
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            prefetches_issued=self.prefetches_issued
            + other.prefetches_issued,
            prefetch_hits=self.prefetch_hits + other.prefetch_hits,
            prefetch_evicted_unused=self.prefetch_evicted_unused
            + other.prefetch_evicted_unused,
            demand_refetches=self.demand_refetches + other.demand_refetches,
        )

    def as_dict(self) -> dict:
        """A JSON-friendly view (benchmarks and the CLI record this)."""
        return {
            "accesses": self.accesses,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": round(self.hit_ratio, 6),
            "prefetches_issued": self.prefetches_issued,
            "prefetch_hits": self.prefetch_hits,
            "prefetch_accuracy": round(self.prefetch_accuracy, 6),
            "prefetch_evicted_unused": self.prefetch_evicted_unused,
            "demand_refetches": self.demand_refetches,
        }
