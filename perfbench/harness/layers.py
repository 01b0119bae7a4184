"""Per-layer metrics of a traced run.

Times come from the benchmark's spans (:mod:`.spans`); counts come from
the names the program already exports in Prometheus text -- rendered from
the in-process default registry, or fetched with a METRICS frame from the
server -- so the benchmark and an operator's ``/metrics`` read the same
numbers.  A layer the workload does not exercise reports 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .spans import layer_of, layer_self_times

_SAMPLE = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)(\{(.*)\})?\s+(\S+)")
_LABEL = re.compile(r'([A-Za-z_][A-Za-z0-9_]*)="((?:[^"\\]|\\.)*)"')

Sample = Tuple[str, Dict[str, str], float]

#: Layers whose self time is shared out in ``share.<layer>``.
SHARE_LAYERS = ("service", "monitor", "core", "engine", "cache", "wal",
                "server")


def parse_prometheus(text: str) -> List[Sample]:
    """(name, labels, value) for every sample line of a text exposition."""
    samples: List[Sample] = []
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match is None:
            continue
        labels = {key: value.replace('\\"', '"').replace("\\\\", "\\")
                  for key, value in _LABEL.findall(match.group(3) or "")}
        samples.append((match.group(1), labels, float(match.group(4))))
    return samples


def metric_sum(samples: List[Sample], name: str, **labels: str) -> float:
    """Sum of every sample called ``name`` whose labels include ``labels``."""
    return sum(value for sample_name, sample_labels, value in samples
               if sample_name == name and all(
                   sample_labels.get(key) == wanted
                   for key, wanted in labels.items()))


@dataclass
class RunFacts:
    """What one traced run measured, before it is turned into metrics."""

    events: int
    wall_s: float
    #: the run's events_per_s, by the same estimator as untraced runs
    events_per_s: float
    #: span name -> {"count", "total_s", "self_s"} on the system's side
    spans: Dict[str, Dict[str, float]]
    #: spans taken in the benchmark's own client (serve-hm)
    client_spans: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Prometheus samples of the system's registry
    counters: List[Sample] = field(default_factory=list)
    #: True when ``counters`` came from the server (METRICS frame)
    server_counters: bool = False
    cpu_s: float = 0.0
    worker_cpu_s: List[float] = field(default_factory=list)
    server_cpu_s: float = 0.0
    routed_pairs: List[int] = field(default_factory=list)
    client_call_s: float = 0.0
    gc_s: float = 0.0
    import_s: float = 0.0
    steal_frac: float = 0.0
    span_count: int = 0
    cache: Dict[str, float] = field(default_factory=dict)


def _total(spans: Dict[str, Dict[str, float]], name: str,
           key: str = "total_s") -> float:
    row = spans.get(name)
    return row[key] if row else 0.0


def layer_metrics(facts: RunFacts) -> Dict[str, float]:
    """Every per-layer metric the benchmark defines, by name."""
    spans = facts.spans
    layers = layer_self_times(spans)
    counters = facts.counters
    out: Dict[str, float] = {}

    out["service.self_s"] = layers.get("service", 0.0)
    out["monitor.self_s"] = layers.get("monitor", 0.0)
    out["monitor.ns_per_event"] = (
        1e9 * out["monitor.self_s"] / facts.events if facts.events else 0.0)

    worker_cpu = sum(facts.worker_cpu_s)
    # Process shards apply pairs inside their workers, so there the
    # workers' CPU time is the core's apply time.
    apply_s = layers.get("core.apply", 0.0) + worker_cpu
    # Process shards count routed pairs in the engine (their workers'
    # analyzer counter stays 0); other engines count in the analyzer.
    pairs = metric_sum(counters, "repro_engine_pairs_total") or \
        metric_sum(counters, "repro_analyzer_pairs_total")
    out["core.apply_s"] = apply_s
    out["core.pair_updates"] = pairs
    out["core.ns_per_pair_update"] = 1e9 * apply_s / pairs if pairs else 0.0
    lookups = metric_sum(counters, "repro_synopsis_lookups_total",
                         table="correlations")
    misses = metric_sum(counters, "repro_synopsis_misses_total",
                        table="correlations")
    out["core.pair_miss_ratio"] = misses / lookups if lookups else 0.0
    out["core.evictions"] = sum(
        metric_sum(counters, f"repro_synopsis_{tier}_evictions_total",
                   table="correlations") for tier in ("t1", "t2"))
    out["core.query_s"] = layers.get("core.query", 0.0)
    out["core.query_calls"] = sum(
        row["count"] for name, row in spans.items()
        if layer_of(name) == "core.query")

    route_s = _total(spans, "engine.route_batch")
    round_s = _total(spans, "engine.round")
    out["engine.route_s"] = route_s
    out["engine.round_s"] = round_s
    out["engine.worker_cpu_s"] = worker_cpu
    out["engine.wait_s"] = (round_s - route_s - max(facts.worker_cpu_s)
                            if facts.worker_cpu_s else 0.0)
    routed = facts.routed_pairs
    out["engine.shard_skew"] = (
        max(routed) * len(routed) / sum(routed) if sum(routed) else 0.0)

    server = counters if facts.server_counters else []
    latency = "repro_server_frame_latency_seconds_sum"
    out["server.batch_frame_s"] = metric_sum(server, latency, type="BATCH")
    out["server.event_frame_s"] = metric_sum(server, latency, type="EVENT")
    out["server.query_frame_s"] = metric_sum(server, latency, type="QUERY")
    out["server.drain_s"] = metric_sum(
        server, "repro_service_submit_latency_seconds_sum", path="batch")
    out["server.queue_depth_max"] = metric_sum(
        server, "repro_server_queue_high_watermark")
    out["server.busy_frac"] = (facts.server_cpu_s / facts.wall_s
                               if facts.wall_s else 0.0)
    encode_s = sum(row["self_s"] for row in facts.client_spans.values())
    out["client.encode_s"] = encode_s
    out["client.wait_s"] = (facts.client_call_s - encode_s
                            if facts.client_spans else 0.0)

    out["wal.append_s"] = _total(spans, "wal.append")
    out["wal.bytes"] = metric_sum(server, "repro_wal_bytes")

    out["cache.access_s"] = _total(spans, "cache.access")
    out["cache.prefetch_s"] = _total(spans, "cache.prefetch")
    out["cache.partner_query_s"] = _total(spans, "cache.partners_of")
    hits = metric_sum(counters, "repro_cache_hits_total")
    demand = hits + metric_sum(counters, "repro_cache_misses_total")
    issued = metric_sum(counters, "repro_cache_prefetches_total")
    out["cache.hit_ratio"] = hits / demand if demand else 0.0
    out["cache.prefetch_accuracy"] = (
        metric_sum(counters, "repro_cache_prefetch_hits_total") / issued
        if issued else 0.0)
    out["cache.evicted_unused"] = facts.cache.get("evicted_unused", 0.0)

    out["runtime.gc_s"] = facts.gc_s
    out["runtime.cpu_s"] = facts.cpu_s + worker_cpu + facts.server_cpu_s
    out["setup.import_s"] = facts.import_s
    out["host.steal_frac"] = facts.steal_frac
    out["trace.events_per_s"] = facts.events_per_s
    out["trace.spans"] = float(facts.span_count)

    # Shares of the system's busy time: the time inside the wrapped calls
    # in-process, the server process's CPU time for serve-hm (where the
    # rest -- frame decoding, replies, the event loop -- is "server").
    by_layer = {name: 0.0 for name in SHARE_LAYERS}
    for layer, seconds in layers.items():
        by_layer[layer.partition(".")[0]] += seconds
    busy = facts.server_cpu_s if facts.server_counters else \
        sum(by_layer.values())
    if facts.server_counters:
        by_layer["server"] = busy - sum(by_layer.values())
    for name in SHARE_LAYERS:
        out[f"share.{name}"] = by_layer[name] / busy if busy else 0.0
    return out
