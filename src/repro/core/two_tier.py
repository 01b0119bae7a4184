"""The two-tier synopsis table (paper Section III-D1).

Inspired by ARC, each table in the synopsis keeps two LRU tiers:

* **T1** holds entries seen *infrequently* (typically once).  A miss inserts
  at T1's MRU end, evicting T1's LRU entry when full.
* **T2** holds entries seen *frequently*.  When an entry's tally in T1
  reaches the promotion threshold (by default on its first hit, i.e. the
  second sighting), it is moved to T2's MRU end, evicting T2's LRU entry
  when full.

Unlike ARC the tier sizes are fixed (no ghost-cache adaptation), and instead
of ghost lists the structure supports *demotion*: moving an entry to the LRU
end of its tier so it is next in line for eviction.  The combination of
frequency-gated promotion and LRU recency is what lets the synopsis balance
frequency against recency with a single pass over the transaction stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Generic, Hashable, List, Optional, Tuple, TypeVar

from .lru import LruQueue

K = TypeVar("K", bound=Hashable)

#: Which tier an entry lives in.
TIER1 = 1
TIER2 = 2


@dataclass
class TableStats:
    """Operation counters for one two-tier table."""

    lookups: int = 0
    t1_hits: int = 0
    t2_hits: int = 0
    misses: int = 0
    promotions: int = 0
    t1_evictions: int = 0
    t2_evictions: int = 0
    demotions: int = 0

    @property
    def hits(self) -> int:
        return self.t1_hits + self.t2_hits

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        """Field name -> value, in declaration order (telemetry seam)."""
        return {f.name: getattr(self, f.name) for f in
                dataclass_fields(self)}


@dataclass
class AccessResult(Generic[K]):
    """Outcome of recording one sighting of a key.

    ``evicted`` lists every ``(key, tally, tier)`` removed as a consequence
    (at most one from each tier: a T1 insert can evict from T1, and a
    promotion can evict from T2).  Callers that maintain secondary indexes
    (the correlation table's extent index, the analyzer's eviction hook)
    consume this list.
    """

    key: K
    hit: bool
    tier: int
    tally: int
    promoted: bool = False
    evicted: List[Tuple[K, int, int]] = field(default_factory=list)


class TwoTierTable(Generic[K]):
    """Fixed-size, two-tier, LRU + frequency synopsis table."""

    def __init__(
        self,
        t1_capacity: int,
        t2_capacity: Optional[int] = None,
        promote_threshold: int = 2,
    ) -> None:
        """Create a table.

        ``t2_capacity`` defaults to ``t1_capacity``; the paper found equal
        tier sizes appropriate (Section IV-C1).  ``promote_threshold`` is
        the tally at which a T1 entry moves to T2 -- the paper promotes on
        the first T1 hit, i.e. a threshold of 2.
        """
        if promote_threshold < 2:
            raise ValueError(
                f"promote_threshold must be >= 2 (first sighting lands in T1), "
                f"got {promote_threshold}"
            )
        self._t1: LruQueue[K] = LruQueue(t1_capacity)
        self._t2: LruQueue[K] = LruQueue(
            t1_capacity if t2_capacity is None else t2_capacity
        )
        self._promote_threshold = promote_threshold
        self.stats = TableStats()

    # -- capacity and membership --------------------------------------------

    @property
    def t1(self) -> LruQueue[K]:
        return self._t1

    @property
    def t2(self) -> LruQueue[K]:
        return self._t2

    @property
    def promote_threshold(self) -> int:
        return self._promote_threshold

    @property
    def capacity(self) -> int:
        return self._t1.capacity + self._t2.capacity

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    def __contains__(self, key: K) -> bool:
        return key in self._t2 or key in self._t1

    def tier_of(self, key: K) -> Optional[int]:
        if key in self._t2:
            return TIER2
        if key in self._t1:
            return TIER1
        return None

    def tally(self, key: K) -> Optional[int]:
        value = self._t2.tally(key)
        if value is None:
            value = self._t1.tally(key)
        return value

    def items(self) -> List[Tuple[K, int, int]]:
        """Every ``(key, tally, tier)``, T2 first, in LRU-to-MRU order."""
        out = [(key, tally, TIER2) for key, tally in self._t2.items()]
        out.extend((key, tally, TIER1) for key, tally in self._t1.items())
        return out

    # -- the single-pass access operation ------------------------------------

    def access(self, key: K) -> AccessResult[K]:
        """Record one sighting of ``key``.

        * T2 hit: tally incremented, entry moved to T2 MRU.
        * T1 hit: tally incremented, entry moved to T1 MRU; if the tally
          reaches the promotion threshold the entry moves to T2 (possibly
          evicting T2's LRU entry).
        * miss: entry inserted at T1 MRU with tally 1 (possibly evicting
          T1's LRU entry).
        """
        stats = self.stats
        stats.lookups += 1
        tally = self._t2.hit(key)
        if tally is not None:
            stats.t2_hits += 1
            return AccessResult(key, hit=True, tier=TIER2, tally=tally)

        tally = self._t1.hit(key)
        if tally is not None:
            stats.t1_hits += 1
            if tally >= self._promote_threshold:
                self._t1.pop(key)
                displaced = self._t2.insert(key, tally)
                stats.promotions += 1
                result = AccessResult(
                    key, hit=True, tier=TIER2, tally=tally, promoted=True
                )
                if displaced is not None:
                    stats.t2_evictions += 1
                    result.evicted.append((displaced[0], displaced[1], TIER2))
                return result
            return AccessResult(key, hit=True, tier=TIER1, tally=tally)

        stats.misses += 1
        displaced = self._t1.insert(key, 1)
        result = AccessResult(key, hit=False, tier=TIER1, tally=1)
        if displaced is not None:
            stats.t1_evictions += 1
            result.evicted.append((displaced[0], displaced[1], TIER1))
        return result

    def access_fast(self, key: K) -> Tuple[bool, Optional[K]]:
        """Allocation-light :meth:`access` for the columnar hot loop.

        Performs *exactly* the same state transitions and stats mutations as
        :meth:`access`, but returns only ``(hit, evicted_key)`` -- no
        :class:`AccessResult` is built (its construction costs about as much
        as the dict work itself) and the LRU queues' ``OrderedDict``s are
        manipulated directly to skip per-call method dispatch.  At most one
        key can be evicted per access, so the second element is a single key
        or ``None``.
        """
        stats = self.stats
        stats.lookups += 1
        t2 = self._t2._entries
        tally = t2.get(key)
        if tally is not None:
            stats.t2_hits += 1
            t2[key] = tally + 1
            t2.move_to_end(key)
            return True, None
        t1 = self._t1._entries
        tally = t1.get(key)
        if tally is not None:
            tally += 1
            stats.t1_hits += 1
            if tally >= self._promote_threshold:
                # Promote: remove from T1, insert at T2 MRU.  access() touches
                # T1 before popping; the pop makes that touch unobservable, so
                # it is skipped here -- final OrderedDict state is identical.
                del t1[key]
                stats.promotions += 1
                evicted_key: Optional[K] = None
                if len(t2) >= self._t2._capacity:
                    evicted_key = t2.popitem(last=False)[0]
                    stats.t2_evictions += 1
                t2[key] = tally
                return True, evicted_key
            t1[key] = tally
            t1.move_to_end(key)
            return True, None
        stats.misses += 1
        evicted_key = None
        if len(t1) >= self._t1._capacity:
            evicted_key = t1.popitem(last=False)[0]
            stats.t1_evictions += 1
        t1[key] = 1
        return False, evicted_key

    # -- demotion and removal -------------------------------------------------

    def demote(self, key: K) -> bool:
        """Move ``key`` to the LRU end of its tier (next for eviction)."""
        demoted = self._t2.demote(key) or self._t1.demote(key)
        if demoted:
            self.stats.demotions += 1
        return demoted

    def remove(self, key: K) -> Optional[int]:
        """Remove ``key`` outright, returning its tally if present."""
        tally = self._t2.pop(key)
        if tally is None:
            tally = self._t1.pop(key)
        return tally

    def clear(self) -> None:
        """Forget every entry and the operation counters."""
        self._t1.clear()
        self._t2.clear()
        self.stats = TableStats()
