"""Shared streaming-sketch primitives.

Space-Saving and Count-Min are the FIM baselines of :mod:`repro.fim`;
the synopsis backends (:mod:`repro.engine.backends`) reuse the exact
same structures as building blocks -- Space-Saving is the Misra-Gries
summary at both levels of the CHH backend (the lazy min-heap *is* the
Epicoco/Cafaro/Pulimeno fast-variant update path), and Count-Min with a
candidate heap is the pair-sketch backend.  They therefore live here,
in :mod:`repro.core`, below both consumers.

* **Space-Saving** (Metwally, Agrawal & El Abbadi, 2005) -- maintains
  exactly ``capacity`` counters; a new item takes over the minimum counter
  (inheriting its count as an overestimate).  Guarantees: every item with
  true frequency > N/capacity is in the summary, and each counter
  overestimates by at most the minimum counter value.
* **Count-Min sketch** (Cormode & Muthukrishnan, 2005) -- a ``depth x
  width`` counter array; estimates never underestimate and overestimate
  by at most ``e * N / width`` with probability ``1 - e^-depth``.  Paired
  with a top-k heap it yields a frequent-pair summary.

Both optimise pure *frequency* with no recency dimension, so they cannot
forget old concepts (compare Fig. 10) -- the trade the backend Pareto
benchmark makes visible against the paper's two-tier tables.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import (
    Dict,
    Generic,
    Hashable,
    Iterable,
    List,
    Optional,
    Tuple,
    TypeVar,
)

K = TypeVar("K", bound=Hashable)


class SpaceSaving(Generic[K]):
    """The Space-Saving heavy-hitters summary.

    ``update(key)`` is O(log capacity) via a lazy min-heap and returns the
    key the new entry displaced (``None`` when nothing was evicted), so
    hierarchical summaries -- the CHH backend's outer level owns one inner
    summary per tracked key -- can drop dependent state exactly when its
    anchor leaves the summary.  ``count(key)`` returns the (over)estimate
    and ``error(key)`` its maximum overcount.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._counts: Dict[K, int] = {}
        self._errors: Dict[K, int] = {}
        self._heap: List[Tuple[int, K]] = []  # lazy (count, key) min-heap
        self.total = 0

    def __len__(self) -> int:
        return len(self._counts)

    def __contains__(self, key: K) -> bool:
        return key in self._counts

    def __iter__(self):
        return iter(self._counts)

    def _push(self, key: K) -> None:
        heapq.heappush(self._heap, (self._counts[key], key))

    def _pop_minimum(self) -> K:
        """Pop the key with the (currently) smallest count, lazily fixing
        stale heap entries."""
        while True:
            count, key = heapq.heappop(self._heap)
            current = self._counts.get(key)
            if current == count:
                return key
            if current is not None:
                heapq.heappush(self._heap, (current, key))

    def update(self, key: K, increment: int = 1) -> Optional[K]:
        """Record ``increment`` occurrences of ``key``.

        Returns the key evicted to make room, or ``None`` when ``key`` was
        already tracked or the summary still had space.
        """
        if increment < 1:
            raise ValueError(f"increment must be >= 1, got {increment}")
        self.total += increment
        if key in self._counts:
            self._counts[key] += increment
            self._push(key)
            return None
        if len(self._counts) < self.capacity:
            self._counts[key] = increment
            self._errors[key] = 0
            self._push(key)
            return None
        victim = self._pop_minimum()
        inherited = self._counts.pop(victim)
        self._errors.pop(victim, None)
        self._counts[key] = inherited + increment
        self._errors[key] = inherited
        self._push(key)
        return victim

    def count(self, key: K) -> int:
        """Estimated count (0 when not tracked); never underestimates
        tracked keys."""
        return self._counts.get(key, 0)

    def error(self, key: K) -> int:
        """Maximum overestimate of ``key``'s count."""
        return self._errors.get(key, 0)

    def guaranteed_count(self, key: K) -> int:
        """A lower bound on the true count: estimate minus error."""
        return self.count(key) - self.error(key)

    def frequent(self, min_count: int = 1) -> List[Tuple[K, int]]:
        """Tracked keys with estimate >= ``min_count``, strongest first."""
        selected = [
            (key, count) for key, count in self._counts.items()
            if count >= min_count
        ]
        selected.sort(key=lambda entry: (-entry[1], repr(entry[0])))
        return selected

    # -- state transfer (checkpointing) ------------------------------------

    def entries(self) -> List[Tuple[K, int, int]]:
        """Tracked ``(key, count, error)`` rows, unordered."""
        return [
            (key, count, self._errors.get(key, 0))
            for key, count in self._counts.items()
        ]

    def restore_entries(self, rows: Iterable[Tuple[K, int, int]],
                        total: Optional[int] = None) -> None:
        """Replace the summary's contents with ``rows``.

        ``total`` restores the stream length (defaults to the sum of the
        restored counts, a lower bound when evictions have happened).
        """
        self._counts = {}
        self._errors = {}
        for key, count, error in rows:
            self._counts[key] = count
            self._errors[key] = error
        if len(self._counts) > self.capacity:
            raise ValueError(
                f"{len(self._counts)} entries exceed capacity "
                f"{self.capacity}"
            )
        self._heap = [(count, key) for key, count in self._counts.items()]
        heapq.heapify(self._heap)
        self.total = total if total is not None \
            else sum(self._counts.values())


@dataclass(frozen=True)
class CountMinParams:
    """Sketch dimensions; defaults give ~0.1% relative error w.h.p."""

    width: int = 2048
    depth: int = 4

    def __post_init__(self) -> None:
        if self.width < 1 or self.depth < 1:
            raise ValueError("width and depth must be >= 1")


class CountMinSketch(Generic[K]):
    """A Count-Min sketch with an optional top-k heavy-hitter heap."""

    def __init__(self, params: Optional[CountMinParams] = None,
                 track_top: int = 0, conservative: bool = False) -> None:
        self.params = params or CountMinParams()
        self._rows: List[List[int]] = [
            [0] * self.params.width for _ in range(self.params.depth)
        ]
        self.total = 0
        self._track_top = track_top
        self._top: Dict[K, int] = {}
        #: Conservative update (Estan & Varghese): raise only the cells
        #: below the key's new estimate instead of incrementing all of
        #: them.  Point estimates still never underestimate (every cell a
        #: key touches is kept >= that key's running estimate), but
        #: colliding keys no longer inflate each other on every update,
        #: which tightens the error severalfold on skewed streams.
        self.conservative = conservative

    def _indexes(self, key: K) -> List[int]:
        base = hash(key)
        return [
            hash((row, base)) % self.params.width
            for row in range(self.params.depth)
        ]

    def update(self, key: K, increment: int = 1) -> None:
        if increment < 1:
            raise ValueError(f"increment must be >= 1, got {increment}")
        self.total += increment
        indexes = self._indexes(key)
        if self.conservative:
            estimate = increment + min(
                row[index] for row, index in zip(self._rows, indexes)
            )
            for row, index in zip(self._rows, indexes):
                if row[index] < estimate:
                    row[index] = estimate
        else:
            estimate = None
            for row, index in zip(self._rows, indexes):
                row[index] += increment
                value = row[index]
                estimate = value if estimate is None else min(estimate, value)
        if self._track_top:
            self._top[key] = estimate
            if len(self._top) > 2 * self._track_top:
                keep = sorted(self._top.items(),
                              key=lambda entry: -entry[1])[:self._track_top]
                self._top = dict(keep)

    def count(self, key: K) -> int:
        """Point estimate; never underestimates the true count."""
        return min(
            row[index]
            for row, index in zip(self._rows, self._indexes(key))
        )

    def heavy_hitters(self, min_count: int = 1) -> List[Tuple[K, int]]:
        """Tracked candidates with estimate >= ``min_count`` (requires
        ``track_top`` > 0), strongest first."""
        selected = [
            (key, self.count(key))
            for key in self._top
            if self.count(key) >= min_count
        ]
        selected.sort(key=lambda entry: (-entry[1], repr(entry[0])))
        if self._track_top:
            selected = selected[: self._track_top]
        return selected

    @property
    def memory_counters(self) -> int:
        return self.params.width * self.params.depth

    # -- state transfer (checkpointing) ------------------------------------

    @property
    def track_top(self) -> int:
        return self._track_top

    def counter_rows(self) -> List[List[int]]:
        """A copy of the ``depth x width`` counter array."""
        return [list(row) for row in self._rows]

    def candidates(self) -> List[Tuple[K, int]]:
        """The tracked heavy-hitter candidates with their last estimates."""
        return list(self._top.items())

    def restore_state(self, rows: List[List[int]], total: int,
                      candidates: Iterable[Tuple[K, int]]) -> None:
        """Replace the sketch's counters and candidate set."""
        if len(rows) != self.params.depth or any(
                len(row) != self.params.width for row in rows):
            raise ValueError(
                f"counter array shape mismatch: expected "
                f"{self.params.depth}x{self.params.width}"
            )
        self._rows = [list(row) for row in rows]
        self.total = total
        self._top = dict(candidates)
