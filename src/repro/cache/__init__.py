"""repro.cache -- the correlation-driven prefetching cache (paper §I/§V).

Everything upstream of this package *detects* correlations; this package
*spends* them.  A block-cache simulator with pluggable eviction policies
(:mod:`~repro.cache.policy`), prefetchers that consume a live synopsis or
a mined trace (:mod:`~repro.cache.prefetcher`, :mod:`~repro.cache.miner`),
the closed-loop driver that interleaves serving with training
(:mod:`~repro.cache.loop`), and the service integration
(:mod:`~repro.cache.service`).  See ``docs/caching.md``.
"""

from .clock2q import Clock2QPolicy
from .loop import (
    DEFAULT_FEEDBACK_INTERVAL,
    CacheDriver,
    run_closed_loop,
    simulate_cache,
)
from .miner import OfflineMiner
from .policy import (
    POLICY_NAMES,
    ArcPolicy,
    EvictionPolicy,
    LruPolicy,
    make_policy,
)
from .prefetcher import (
    CorrelationPrefetcher,
    Prefetcher,
    RulePrefetcher,
    SynopsisPrefetcher,
)
from .service import DEFAULT_CACHE_BLOCKS, CachedCharacterizationService
from .simcache import SimulatedBlockCache
from .stats import CacheStats

__all__ = [
    "ArcPolicy",
    "CacheDriver",
    "CacheStats",
    "CachedCharacterizationService",
    "Clock2QPolicy",
    "CorrelationPrefetcher",
    "DEFAULT_CACHE_BLOCKS",
    "DEFAULT_FEEDBACK_INTERVAL",
    "EvictionPolicy",
    "LruPolicy",
    "OfflineMiner",
    "POLICY_NAMES",
    "Prefetcher",
    "RulePrefetcher",
    "SimulatedBlockCache",
    "SynopsisPrefetcher",
    "make_policy",
    "run_closed_loop",
    "simulate_cache",
]
