"""The system under test, as each workload deploys it.

This module imports only the program's own serving modules, so a set-up
probe that imports it pays exactly the imports the system needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.monitor.events import BlockIOEvent
from repro.service import CharacterizationService
from repro.telemetry.metrics import MetricsRegistry
from repro.trace.record import OpType

#: The services' default support, which the queries also use.
MIN_SUPPORT = 5
#: Entries a top-k query asks for.
TOP_K = 20
#: Cache capacity as a share of the trace's block footprint (prefetch-hm).
CACHE_FRACTION = 0.125

SERVER_WORKLOADS = ("serve-hm",)


def build(workload: str, registry=None,
          cache_blocks: Optional[int] = None) -> CharacterizationService:
    """A fresh in-process system for ``workload``, with the program's
    default synopsis (16 K entries per table, the paper's configuration)
    and support.

    ``registry=None`` publishes to the process default registry, as a
    deployed service does.
    """
    if workload == "ingest-stg-procs":
        return CharacterizationService(shards=2, shard_processes=True,
                                       registry=registry)
    if workload == "prefetch-hm":
        from repro.cache.service import CachedCharacterizationService

        if cache_blocks is None:
            raise ValueError("prefetch-hm needs a cache size")
        return CachedCharacterizationService(
            registry=registry, cache=cache_blocks, cache_policy="lru",
            prefetch=True,
        )
    raise KeyError(f"{workload!r} is not an in-process workload")


def reference() -> CharacterizationService:
    """A plain single-shard service, whose per-event lane the output
    checks compare a single-shard system's answers with."""
    return CharacterizationService(registry=MetricsRegistry())


def serve_args(unix_path: str, wal_dir: str) -> List[str]:
    """``repro serve`` arguments for serve-hm: Unix socket, WAL on with the
    default ``interval`` fsync, default synopsis and support."""
    return ["serve", "--unix", unix_path, "--wal-dir", wal_dir]


def event_to_dict(event: BlockIOEvent) -> Dict[str, object]:
    return {"timestamp": event.timestamp, "pid": event.pid,
            "op": event.op.value, "start": event.start,
            "length": event.length, "latency": event.latency,
            "pgid": event.pgid}


def event_from_dict(row: Dict[str, object]) -> BlockIOEvent:
    return BlockIOEvent(
        timestamp=row["timestamp"], pid=row["pid"], op=OpType(row["op"]),
        start=row["start"], length=row["length"], latency=row["latency"],
        pgid=row["pgid"],
    )
