"""The synopsis engine layer: one analyzer, or hash-partitioned backends.

Three engine shapes answer the same ingest and query surface, and
:func:`build_engine` picks among them:

* one shard of the two-tier tables in-process is a bare
  :class:`~repro.core.typed.TypedOnlineAnalyzer` -- the paper's analyzer,
  checkpointed as format v2;
* :class:`BackendEngine` hosts 1..N shards of any pluggable synopsis
  backend (:mod:`repro.engine.backends`: two-tier tables, Correlated
  Heavy Hitters, count-min pair sketches) in-process, with serial or
  thread-per-shard execution;
* :class:`ProcessShardedAnalyzer` hosts one backend per worker process.

Both sharded hosts checkpoint as format v4 (backend-tagged per-shard CRC
envelopes, :mod:`repro.engine.checkpoint`); v3 files from earlier
releases still load.
"""

from typing import Optional

from ..core.config import AnalyzerConfig
from ..core.typed import TypedOnlineAnalyzer
from ..telemetry.metrics import MetricsRegistry
from .backends import (
    BACKEND_NAMES,
    BackendBase,
    CHHBackend,
    CountMinPairBackend,
    SynopsisBackend,
    TwoTierBackend,
    create_backend,
    deserialize_backend,
)
from .backends.host import BackendEngine, shard_config
from .checkpoint import (
    LoadedEngine,
    dump_engine,
    load_engine,
    load_engine_checkpoint,
    save_engine_checkpoint,
)
from .procshard import ProcessShardedAnalyzer, ShardWorkerError, route_batch


def build_engine(
    config: Optional[AnalyzerConfig] = None,
    shards: int = 1,
    processes: bool = False,
    registry: Optional[MetricsRegistry] = None,
):
    """The synopsis engine for ``config`` on ``shards`` shards.

    ``processes=True`` runs one worker process per shard
    (:class:`ProcessShardedAnalyzer`; call its ``close`` when done).
    In-process, one shard of the two-tier tables is the bare
    :class:`TypedOnlineAnalyzer`; every other layout is a
    :class:`BackendEngine`.  ``registry`` selects the telemetry registry
    (``None``: the process-local default).
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    config = config or AnalyzerConfig()
    if processes:
        return ProcessShardedAnalyzer(config, shards=shards,
                                      registry=registry)
    if shards == 1 and config.backend == TwoTierBackend.name:
        return TypedOnlineAnalyzer(config, registry=registry)
    return BackendEngine(config, shards=shards, registry=registry)


__all__ = [
    "BACKEND_NAMES",
    "BackendBase",
    "BackendEngine",
    "CHHBackend",
    "CountMinPairBackend",
    "LoadedEngine",
    "ProcessShardedAnalyzer",
    "ShardWorkerError",
    "SynopsisBackend",
    "TwoTierBackend",
    "build_engine",
    "create_backend",
    "deserialize_backend",
    "dump_engine",
    "load_engine",
    "load_engine_checkpoint",
    "route_batch",
    "save_engine_checkpoint",
    "shard_config",
]
