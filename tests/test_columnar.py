"""Columnar ingest equivalence: one stream, three lanes, one answer.

The property under test (ISSUE 7 acceptance criteria): pushing the same
event stream through

* the per-event lane (``Monitor.on_event`` via ``submit``),
* the amortized object lane (``submit_many`` with columnar conversion
  disabled), and
* the columnar lane (``submit_many`` over :class:`EventBatch` chunks)

produces *identical* :class:`MonitorStats`, identical top-k frequent
pairs and identical R/W kind summaries -- on a Zipf-correlated stream and
an MSR-like enterprise stream, with both static and dynamic (EWMA)
windows, at ``shards=1`` (the single-analyzer tally-identity anchor) and
``shards=4`` -- and that the columnar lane really ran columnar (its
fallback counter stays 0).  A separate check pins the thread-parallel
columnar path to its object-path twin.
"""

import random

import pytest

from repro.core.config import AnalyzerConfig
from repro.monitor.batch import EventBatch
from repro.monitor.events import BlockIOEvent
from repro.monitor.monitor import Monitor
from repro.monitor.window import DynamicLatencyWindow, StaticWindow
from repro.service import CharacterizationService
from repro.telemetry import NULL_REGISTRY, MetricsRegistry, snapshot
from repro.trace.record import OpType
from repro.workloads.enterprise import generate_named

#: Deliberately unaligned with every batch boundary in the streams, so
#: pending transactions carry across chunk edges.
CHUNK = 257
TOP_K = 30
CONFIG = AnalyzerConfig(item_capacity=512, correlation_capacity=1024)


def zipf_events(seed=11, count=8000, groups=120):
    """Zipf-popular correlated extent groups plus uniform noise."""
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) for rank in range(groups)]
    group_extents = [
        [((rank * 7 + offset) * 16, 8 + 8 * (offset % 2))
         for offset in range(2 + rank % 2)]
        for rank in range(groups)
    ]
    events, now = [], 0.0
    while len(events) < count:
        if rng.random() < 0.15:  # noise access
            now += rng.random() * 0.004
            events.append(BlockIOEvent(
                now, rng.randrange(4),
                rng.choice([OpType.READ, OpType.WRITE]),
                rng.randrange(50_000) * 8, 8,
                latency=rng.random() * 0.002,
            ))
            continue
        (group,) = rng.choices(range(groups), weights=weights)
        now += rng.random() * 0.004
        for start, length in group_extents[group]:
            now += rng.random() * 0.0005
            events.append(BlockIOEvent(
                now, rng.randrange(4),
                rng.choice([OpType.READ, OpType.WRITE]),
                start, length,
                latency=rng.random() * 0.002,
            ))
    return events[:count]


def msr_events(name="hm", count=6000, seed=7):
    """An MSR-like enterprise stream (timestamps and latencies included)."""
    records, _truth = generate_named(name, requests=count, seed=seed)
    return [
        BlockIOEvent(record.timestamp, record.pid, record.op,
                     record.start, record.length, record.latency)
        for record in records
    ]


def fallbacks(registry):
    """Columnar batches the monitor replayed through the scalar lane."""
    family = snapshot(registry)["metrics"].get(
        "repro_monitor_columnar_fallbacks_total", {"samples": []})
    return sum(sample["value"] for sample in family["samples"])


def run_lane(events, lane, *, shards, window, parallel_shards=False,
             registry=NULL_REGISTRY):
    service = CharacterizationService(
        config=CONFIG,
        window=window,
        min_support=1,
        registry=registry,
        shards=shards,
        parallel_shards=parallel_shards,
        columnar_threshold=None if lane == "object" else CHUNK,
    )
    if lane == "per_event":
        for event in events:
            service.submit(event)
    else:
        for i in range(0, len(events), CHUNK):
            chunk = events[i:i + CHUNK]
            if lane == "columnar":
                chunk = EventBatch.from_events(chunk)
            service.submit_many(chunk)
    service.close()
    snap = service.snapshot()
    return (
        service.monitor.stats,
        snap.frequent_pairs[:TOP_K],
        service.transactions,
        snap.kind_summary,
    )


STREAMS = {
    "zipf": (zipf_events, StaticWindow(0.002)),
    "msr_hm": (msr_events, None),  # None: fresh dynamic window per lane
}


@pytest.mark.parametrize("stream", sorted(STREAMS))
@pytest.mark.parametrize("shards", [1, 4])
def test_three_lanes_agree(stream, shards):
    make_events, window = STREAMS[stream]
    events = make_events()
    reference = None
    registry = MetricsRegistry()
    for lane in ("per_event", "object", "columnar"):
        lane_window = window if window is not None \
            else DynamicLatencyWindow()
        result = run_lane(events, lane, shards=shards, window=lane_window,
                          registry=registry if lane == "columnar"
                          else NULL_REGISTRY)
        if reference is None:
            reference = result
            continue
        ref_stats, ref_pairs, ref_txns, ref_kinds = reference
        stats, pairs, txns, kinds = result
        assert stats == ref_stats, f"{stream}/{shards}: {lane} stats differ"
        assert pairs == ref_pairs, f"{stream}/{shards}: {lane} pairs differ"
        assert txns == ref_txns
        assert kinds == ref_kinds, f"{stream}/{shards}: {lane} kinds differ"
    assert fallbacks(registry) == 0


def test_thread_parallel_columnar_matches_object_path():
    events = zipf_events(seed=23, count=6000)
    object_result = run_lane(events, "object", shards=4,
                             window=StaticWindow(0.002),
                             parallel_shards=True)
    columnar_result = run_lane(events, "columnar", shards=4,
                               window=StaticWindow(0.002),
                               parallel_shards=True)
    assert columnar_result == object_result


def test_backwards_batch_counts_one_fallback():
    registry = MetricsRegistry()
    monitor = Monitor(window=StaticWindow(0.002), registry=registry)
    events = [BlockIOEvent(t, 1, OpType.READ, 8 * i, 8)
              for i, t in enumerate((0.0, 0.002, 0.001, 0.003))]
    assert monitor.on_events(EventBatch.from_events(events)) == 4
    assert fallbacks(registry) == 1
    family = snapshot(registry)["metrics"][
        "repro_monitor_columnar_fallbacks_total"]
    counted = {sample["labels"]["reason"]: sample["value"]
               for sample in family["samples"] if sample["value"]}
    assert counted == {"unordered": 1}
