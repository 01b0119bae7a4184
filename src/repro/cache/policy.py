"""Pluggable eviction policies for the block-cache simulator.

The cache core (:mod:`repro.cache.simcache`) is policy-agnostic: it does
hit/miss/prefetch accounting and delegates *which block to evict* to an
:class:`EvictionPolicy`.  Three policies ship:

* ``lru`` -- classic least-recently-used, the baseline every cache paper
  measures against;
* ``arc`` -- the real Adaptive Replacement Cache, reusing
  :class:`repro.core.arc.ArcTable` (Megiddo & Modha) so the synopsis
  benchmark's ARC implementation doubles as a cache policy;
* ``clock2q`` -- a Clock2Q+-style scan-resistant policy (clock
  second-chance over a protected region, FIFO probation, ghost-queue
  promotion), in :mod:`repro.cache.clock2q`.

The protocol is deliberately small.  Residency is owned by the policy;
every mutating call returns the keys it evicted so the cache core can
keep its own per-block metadata (the prefetched flag) in sync -- the flag
must die with the resident entry, or a block prefetched, evicted unused,
and re-fetched on demand would still read as "prefetched" and
double-count (see :mod:`repro.cache.stats`).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (Callable, Dict, Hashable, List, Protocol, Union,
                    runtime_checkable)

from ..core.arc import ArcTable


@runtime_checkable
class EvictionPolicy(Protocol):
    """What the cache simulator requires of a replacement policy.

    A key is *resident* when ``key in policy``.  :meth:`admit` makes a
    missing key resident (demand fill and prefetch fill both land here);
    :meth:`touch` records a demand hit on a resident key.  Both return
    the keys evicted as a consequence -- possibly none, never the key
    itself.
    """

    capacity: int

    def __contains__(self, key) -> bool:
        ...

    def __len__(self) -> int:
        ...

    def touch(self, key) -> List:
        """Record a demand hit on a resident key; returns evicted keys."""
        ...

    def admit(self, key) -> List:
        """Make a missing key resident; returns evicted keys."""
        ...

    def reset(self) -> None:
        ...


class LruPolicy:
    """Least-recently-used over a single recency queue."""

    name = "lru"

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("cache needs >= 1 block of capacity")
        self.capacity = capacity
        self._blocks: "OrderedDict[Hashable, None]" = OrderedDict()

    def __contains__(self, key) -> bool:
        return key in self._blocks

    def __len__(self) -> int:
        return len(self._blocks)

    def touch(self, key) -> List:
        self._blocks.move_to_end(key)
        return []

    def admit(self, key) -> List:
        if key in self._blocks:
            self._blocks.move_to_end(key)
            return []
        evicted = []
        while len(self._blocks) >= self.capacity:
            victim, _none = self._blocks.popitem(last=False)
            evicted.append(victim)
        self._blocks[key] = None
        return evicted

    def reset(self) -> None:
        self._blocks.clear()


class ArcPolicy:
    """The real ARC algorithm as a cache replacement policy.

    Reuses :class:`repro.core.arc.ArcTable` (T1/T2 resident lists, B1/B2
    ghosts, adaptive target ``p``); the table's eviction listener feeds
    the evicted-keys return channel the simulator needs.  ARC requires
    capacity >= 2.
    """

    name = "arc"

    def __init__(self, capacity: int) -> None:
        if capacity < 2:
            raise ValueError(f"ARC needs capacity >= 2, got {capacity}")
        self.capacity = capacity
        self._evicted: List = []
        self._table: ArcTable = ArcTable(
            capacity, evict_listener=self._evicted.append
        )

    def __contains__(self, key) -> bool:
        return key in self._table

    def __len__(self) -> int:
        return len(self._table)

    def _drain(self) -> List:
        evicted, self._evicted[:] = list(self._evicted), []
        return evicted

    def touch(self, key) -> List:
        self._table.access(key)
        return self._drain()

    def admit(self, key) -> List:
        self._table.access(key)
        return self._drain()

    def reset(self) -> None:
        self._evicted.clear()
        self._table = ArcTable(
            self.capacity, evict_listener=self._evicted.append
        )


def _make_clock2q(capacity: int) -> EvictionPolicy:
    from .clock2q import Clock2QPolicy
    return Clock2QPolicy(capacity)


#: Policy registry: name -> factory taking the capacity in blocks.
POLICY_FACTORIES: Dict[str, Callable[[int], EvictionPolicy]] = {
    "lru": LruPolicy,
    "arc": ArcPolicy,
    "clock2q": _make_clock2q,
}

POLICY_NAMES = tuple(POLICY_FACTORIES)


def make_policy(policy: Union[str, EvictionPolicy],
                capacity: int) -> EvictionPolicy:
    """Resolve a policy name (or pass an instance through)."""
    if isinstance(policy, str):
        factory = POLICY_FACTORIES.get(policy)
        if factory is None:
            raise ValueError(
                f"unknown eviction policy {policy!r}; know {POLICY_NAMES}"
            )
        return factory(capacity)
    return policy
