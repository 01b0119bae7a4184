"""Tests for the telemetry subsystem: registry, tracing, exporters."""

import json
import math
import re

import pytest

from repro.core.analyzer import OnlineAnalyzer
from repro.core.config import AnalyzerConfig
from repro.engine import BackendEngine
from repro.monitor.events import BlockIOEvent
from repro.monitor.monitor import Monitor
from repro.monitor.window import StaticWindow
from repro.resilience.service import ResilientCharacterizationService
from repro.service import CharacterizationService
from repro.telemetry import (
    NULL_REGISTRY,
    MetricError,
    MetricsRegistry,
    NullRegistry,
    SnapshotEmitter,
    StageTimer,
    get_default_registry,
    render_digest,
    render_prometheus,
    set_default_registry,
    snapshot_value,
)
from repro.telemetry.metrics import NULL_INSTRUMENT
from repro.trace.record import OpType


def event(ts, start, length=8, op=OpType.READ):
    return BlockIOEvent(ts, 1, op, start, length)


# ---------------------------------------------------------------------------
# Instruments and registry
# ---------------------------------------------------------------------------

class TestCounter:
    def test_inc_accumulates(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_inc_rejected(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(MetricError):
            counter.inc(-1)

    def test_set_total_publishes_external_counter(self):
        counter = MetricsRegistry().counter("c_total")
        counter.set_total(41)
        counter.set_total(42)
        assert counter.value == 42

    def test_labelled_children_are_independent_and_cached(self):
        family = MetricsRegistry().counter("c_total", labelnames=("shard",))
        family.labels(shard="0").inc()
        family.labels(shard=1).inc(4)
        assert family.labels(shard="0") is family.labels(shard=0)
        assert family.labels(shard="0").value == 1
        assert family.labels(shard="1").value == 4

    def test_wrong_label_set_rejected(self):
        family = MetricsRegistry().counter("c_total", labelnames=("shard",))
        with pytest.raises(MetricError):
            family.labels(tier="t1")
        with pytest.raises(MetricError):
            family.labels()

    def test_unlabelled_api_on_labelled_family_rejected(self):
        family = MetricsRegistry().counter("c_total", labelnames=("shard",))
        with pytest.raises(MetricError):
            family.inc()


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13


class TestHistogram:
    def test_observe_tracks_count_and_sum(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        hist.observe(99.0)
        child = hist.labels()
        assert child.count == 3
        assert child.sum == pytest.approx(101.0)

    def test_buckets_cumulative_and_end_at_inf(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 0.6, 1.5, 99.0):
            hist.observe(value)
        buckets = hist.labels().buckets()
        assert buckets == [(1.0, 2), (2.0, 3), (math.inf, 4)]

    def test_bucket_counts_monotonic_non_decreasing(self):
        hist = MetricsRegistry().histogram(
            "h", buckets=(0.001, 0.01, 0.1, 1.0)
        )
        for value in (0.0005, 0.005, 0.005, 0.5, 2.0, 0.05):
            hist.observe(value)
        counts = [count for _bound, count in hist.labels().buckets()]
        assert counts == sorted(counts)
        assert counts[-1] == 6

    def test_boundary_value_lands_in_its_bucket(self):
        # Prometheus buckets are le= (inclusive upper bound).
        hist = MetricsRegistry().histogram("h", buckets=(1.0, 2.0))
        hist.observe(1.0)
        assert hist.labels().buckets()[0] == (1.0, 1)

    def test_unsorted_bounds_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(MetricError):
            registry.histogram("h2", buckets=(1.0, 1.0))
        with pytest.raises(MetricError):
            registry.histogram("h3", buckets=())

    def test_trailing_inf_bound_stripped(self):
        hist = MetricsRegistry().histogram("h", buckets=(1.0, math.inf))
        assert hist.bounds == (1.0,)


class TestRegistry:
    def test_get_or_create_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("c_total") is registry.counter("c_total")

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.gauge("x")

    def test_labelnames_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x", labelnames=("a",))
        with pytest.raises(MetricError):
            registry.counter("x", labelnames=("b",))

    def test_bucket_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(MetricError):
            registry.histogram("h", buckets=(1.0, 3.0))
        # identical bounds (modulo implicit +Inf) are fine
        registry.histogram("h", buckets=(1.0, 2.0, math.inf))

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(MetricError):
            registry.counter("0starts-with-digit")
        with pytest.raises(MetricError):
            registry.counter("ok", labelnames=("bad-label",))
        with pytest.raises(MetricError):
            registry.counter("ok", labelnames=("__reserved",))
        with pytest.raises(MetricError):
            registry.counter("ok", labelnames=("a", "a"))

    def test_collector_runs_at_collect_time(self):
        registry = MetricsRegistry()
        counter = registry.counter("pull_total")
        state = {"n": 0}
        registry.register_collector(lambda: counter.set_total(state["n"]))
        state["n"] = 7
        registry.collect()
        assert counter.value == 7

    def test_dead_component_collector_pruned(self):
        registry = MetricsRegistry()

        class Component:
            def __init__(self):
                self.counter = registry.counter("component_total")

            def publish(self):
                self.counter.set_total(1)

        component = Component()
        registry.register_collector(component.publish)
        registry.collect()
        assert registry.counter("component_total").value == 1
        del component
        registry.collect()  # must not raise on the dead weakref

    def test_default_registry_is_process_local_singleton(self):
        assert get_default_registry() is get_default_registry()

    def test_set_default_registry_swaps_and_restores(self):
        mine = MetricsRegistry()
        previous = set_default_registry(mine)
        try:
            assert get_default_registry() is mine
        finally:
            set_default_registry(previous)
        assert get_default_registry() is previous


class TestNullRegistry:
    def test_disabled_and_shared_instrument(self):
        registry = NullRegistry()
        assert not registry.enabled
        assert registry.counter("c") is NULL_INSTRUMENT
        assert registry.gauge("g") is NULL_INSTRUMENT
        assert registry.histogram("h") is NULL_INSTRUMENT

    def test_whole_api_is_noop(self):
        instrument = NULL_REGISTRY.counter("c")
        instrument.inc()
        instrument.set(3)
        instrument.observe(0.5)
        instrument.set_total(9)
        assert instrument.labels(shard="3") is instrument
        assert instrument.value == 0.0

    def test_collectors_discarded(self):
        registry = NullRegistry()
        registry.register_collector(lambda: 1 / 0)
        assert registry.collect() == []
        assert registry.snapshot() == {"metrics": {}}


# ---------------------------------------------------------------------------
# Stage tracing
# ---------------------------------------------------------------------------

class TestStageTimer:
    def test_span_records_elapsed_into_stage_series(self):
        registry = MetricsRegistry()
        ticks = iter([10.0, 10.5])
        timer = StageTimer(registry, clock=lambda: next(ticks))
        with timer.span("monitor") as span:
            pass
        assert span.elapsed == pytest.approx(0.5)
        child = registry.get("repro_stage_duration_seconds").labels(
            stage="monitor"
        )
        assert child.count == 1
        assert child.sum == pytest.approx(0.5)

    def test_predeclared_stages_appear_before_use(self):
        registry = MetricsRegistry()
        StageTimer(registry, stages=("monitor", "analyze"))
        labels = [
            labels["stage"]
            for labels, _child in
            registry.get("repro_stage_duration_seconds").samples()
        ]
        assert labels == ["monitor", "analyze"]

    def test_null_registry_returns_shared_noop_span(self):
        timer = StageTimer(NULL_REGISTRY)
        assert timer.span("a") is timer.span("b")
        with timer.span("a"):
            pass

    def test_time_wraps_a_callable(self):
        registry = MetricsRegistry()
        timer = StageTimer(registry)
        assert timer.time("work", lambda value: value + 1, 41) == 42
        child = registry.get("repro_stage_duration_seconds").labels(
            stage="work"
        )
        assert child.count == 1

    def test_unstarted_span_stop_raises(self):
        timer = StageTimer(MetricsRegistry())
        with pytest.raises(RuntimeError):
            timer.span("x").stop()


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})? (?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'(\w+)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text):
    """A minimal exposition-format parser (the round-trip oracle).

    Returns ``{(name, (("label", "value"), ...)): float}`` plus the
    ``# TYPE`` map.  Raises on any malformed sample line, which is the
    point: whatever :func:`render_prometheus` writes must parse.
    """
    samples = {}
    types = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _hash, _kw, name, kind = line.split(" ", 3)
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        labels = []
        if match.group("labels"):
            for name, value in _LABEL_RE.findall(match.group("labels")):
                labels.append((name, value.replace(r"\"", '"')
                                          .replace(r"\n", "\n")
                                          .replace("\\\\", "\\")))
        key = (match.group("name"), tuple(labels))
        assert key not in samples, f"duplicate sample: {key}"
        samples[key] = float(match.group("value"))
    return samples, types


class TestPrometheusExposition:
    def make_registry(self):
        registry = MetricsRegistry()
        registry.counter("events_total", "Events seen").inc(42)
        shard = registry.counter("shard_total", labelnames=("shard",))
        shard.labels(shard="0").inc(5)
        shard.labels(shard="1").inc(7)
        registry.gauge("occupancy", "entries").set(13.5)
        hist = registry.histogram(
            "latency_seconds", "it varies", buckets=(0.1, 1.0)
        )
        for value in (0.05, 0.5, 5.0):
            hist.observe(value)
        return registry

    def test_round_trips_through_line_parser(self):
        registry = self.make_registry()
        samples, types = parse_prometheus(render_prometheus(registry))
        assert types == {
            "events_total": "counter",
            "shard_total": "counter",
            "occupancy": "gauge",
            "latency_seconds": "histogram",
        }
        assert samples[("events_total", ())] == 42
        assert samples[("shard_total", (("shard", "0"),))] == 5
        assert samples[("shard_total", (("shard", "1"),))] == 7
        assert samples[("occupancy", ())] == 13.5
        assert samples[("latency_seconds_sum", ())] == pytest.approx(5.55)
        assert samples[("latency_seconds_count", ())] == 3

    def test_histogram_buckets_cumulative_monotonic_in_exposition(self):
        registry = self.make_registry()
        samples, _types = parse_prometheus(render_prometheus(registry))
        by_bound = {
            dict(labels)["le"]: value
            for (name, labels), value in samples.items()
            if name == "latency_seconds_bucket"
        }
        assert by_bound == {"0.1": 1, "1": 2, "+Inf": 3}
        ordered = [by_bound["0.1"], by_bound["1"], by_bound["+Inf"]]
        assert ordered == sorted(ordered)
        assert by_bound["+Inf"] == samples[("latency_seconds_count", ())]

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        family = registry.counter("weird_total", labelnames=("path",))
        family.labels(path='a"b\\c\nd').inc()
        samples, _types = parse_prometheus(render_prometheus(registry))
        assert samples[("weird_total", (("path", 'a"b\\c\nd'),))] == 1

    def test_snapshot_matches_exposition_values(self):
        registry = self.make_registry()
        samples, _types = parse_prometheus(render_prometheus(registry))
        snap = registry.snapshot()
        assert snapshot_value(snap, "events_total") == \
            samples[("events_total", ())]
        assert snapshot_value(snap, "shard_total") == 12  # summed over shards
        assert snapshot_value(snap, "shard_total", {"shard": "1"}) == 7


class TestJsonSnapshot:
    def test_schema(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "help here").inc(3)
        hist = registry.histogram("h_seconds", buckets=(1.0,))
        hist.observe(0.5)
        snap = registry.snapshot()
        assert set(snap) == {"metrics"}
        counter = snap["metrics"]["c_total"]
        assert counter["type"] == "counter"
        assert counter["help"] == "help here"
        assert counter["samples"] == [{"labels": {}, "value": 3.0}]
        histogram = snap["metrics"]["h_seconds"]
        assert histogram["samples"][0]["count"] == 1
        assert histogram["samples"][0]["buckets"] == {"1": 1, "+Inf": 1}

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(math.inf)  # clamped, not emitted as Infinity
        text = json.dumps(registry.snapshot())
        assert json.loads(text)["metrics"]["g"]["samples"][0]["value"] == 0.0

    def test_snapshot_value_default_for_missing(self):
        assert snapshot_value({"metrics": {}}, "nope", default=-1) == -1

    def test_digest_renders_one_line_per_sample(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc(2)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        lines = render_digest(registry).splitlines()
        assert "c_total 2" in lines
        assert any(
            line.startswith("h count=1 sum=0.5") for line in lines
        )


class TestSnapshotEmitter:
    def test_maybe_emit_gated_by_interval(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        path = tmp_path / "metrics.ndjson"
        emitter = SnapshotEmitter(registry, path, interval=10.0,
                                  clock=lambda: 0.0)
        assert emitter.maybe_emit(now=0.0) is not None
        assert emitter.maybe_emit(now=5.0) is None
        assert emitter.maybe_emit(now=10.0) is not None
        assert emitter.emitted == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for seq, line in enumerate(lines, start=1):
            record = json.loads(line)
            assert record["seq"] == seq
            assert record["ts"] > 0
            assert record["metrics"]["c_total"]["samples"][0]["value"] == 1.0

    def test_on_snapshot_callback_sees_every_emission(self):
        registry = MetricsRegistry()
        seen = []
        emitter = SnapshotEmitter(registry, path=None, interval=1.0,
                                  on_snapshot=seen.append)
        emitter.emit()
        emitter.emit()
        assert [snap["seq"] for snap in seen] == [1, 2]

    def test_write_errors_counted_not_raised(self, tmp_path):
        emitter = SnapshotEmitter(MetricsRegistry(), path=tmp_path,
                                  interval=1.0)  # a directory: open() fails
        emitter.emit()
        assert emitter.write_errors == 1

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            SnapshotEmitter(MetricsRegistry(), interval=0)

    def test_background_thread_mode(self, tmp_path):
        registry = MetricsRegistry()
        path = tmp_path / "bg.ndjson"
        with SnapshotEmitter(registry, path, interval=60.0) as emitter:
            emitter.start()
        # stop() on context exit emits one final snapshot
        assert emitter.emitted >= 1
        assert len(path.read_text().splitlines()) == emitter.emitted


# ---------------------------------------------------------------------------
# Pipeline integration: every layer publishes into one registry
# ---------------------------------------------------------------------------

class TestComponentIntegration:
    def test_monitor_publishes_stats_through_registry(self):
        registry = MetricsRegistry()
        monitor = Monitor(window=StaticWindow(1e-3), registry=registry)
        monitor.on_event(event(0.0, 100))
        monitor.on_event(event(1e-5, 200))
        monitor.flush()
        snap = registry.snapshot()
        assert snapshot_value(snap, "repro_monitor_events_seen_total") == 2
        assert snapshot_value(
            snap, "repro_monitor_transactions_emitted_total"
        ) == 1
        # the registry numbers are the dataclass numbers
        assert snapshot_value(snap, "repro_monitor_events_seen_total") == \
            monitor.stats.events_seen

    def test_analyzer_publishes_table_and_flow_counters(self):
        registry = MetricsRegistry()
        analyzer = OnlineAnalyzer(
            AnalyzerConfig(item_capacity=64, correlation_capacity=64),
            registry=registry,
        )
        from conftest import ext
        analyzer.process([ext(1), ext(2)])
        analyzer.process([ext(1), ext(2)])
        snap = registry.snapshot()
        assert snapshot_value(
            snap, "repro_analyzer_transactions_total", {"shard": ""}
        ) == 2
        assert snapshot_value(
            snap, "repro_synopsis_lookups_total", {"table": "items"}
        ) == 4
        assert snapshot_value(
            snap, "repro_synopsis_occupancy",
            {"table": "items", "tier": "t1"},
        ) >= 0

    def test_sharded_engine_publishes_per_shard_series(self):
        registry = MetricsRegistry()
        engine = BackendEngine(
            AnalyzerConfig(item_capacity=64, correlation_capacity=64),
            shards=2, registry=registry,
        )
        from conftest import ext
        engine.process_stream([[ext(i), ext(i + 100)] for i in range(20)])
        snap = registry.snapshot()
        assert snapshot_value(snap, "repro_engine_shards") == 2
        per_shard = [
            snapshot_value(snap, "repro_engine_shard_occupancy",
                           {"table": "items", "shard": str(index)})
            for index in range(2)
        ]
        shards = [backend.analyzer for backend in engine.shard_backends]
        assert sum(per_shard) == \
            len(shards[0].items) + len(shards[1].items)
        assert snapshot_value(
            snap, "repro_engine_shard_imbalance", {"table": "items"}
        ) >= 1.0
        assert snapshot_value(
            snap, "repro_engine_transactions_total"
        ) == 20
        shard_labels = {
            labels["shard"]
            for labels, _child in
            registry.get("repro_synopsis_lookups_total").samples()
        }
        assert shard_labels == {"0", "1"}

    def test_service_latency_histograms_and_stage_spans(self):
        registry = MetricsRegistry()
        service = CharacterizationService(
            config=AnalyzerConfig(item_capacity=64, correlation_capacity=64),
            window=StaticWindow(1e-3),
            snapshot_interval=5,
            registry=registry,
        )
        service.submit(event(0.0, 100))
        service.submit_many(
            [event(0.1 + index * 0.05, 100 + index) for index in range(10)]
        )
        service.flush()
        service.snapshot()
        snap = registry.snapshot()
        assert snapshot_value(
            snap, "repro_service_submit_latency_seconds", {"path": "event"}
        ) == 1
        assert snapshot_value(
            snap, "repro_service_submit_latency_seconds", {"path": "batch"}
        ) == 1
        assert snapshot_value(snap, "repro_service_batch_events") == 1
        assert snapshot_value(snap, "repro_service_snapshots_total") == 1
        assert snapshot_value(
            snap, "repro_stage_duration_seconds", {"stage": "monitor"}
        ) >= 1

    def test_service_with_null_registry_still_works(self):
        service = CharacterizationService(
            window=StaticWindow(1e-3), registry=NULL_REGISTRY
        )
        service.submit(event(0.0, 100))
        service.submit_many([event(0.1, 200), event(0.10001, 300)])
        service.flush()
        assert service.snapshot().events == 3
        assert NULL_REGISTRY.snapshot() == {"metrics": {}}

    def test_resilient_service_publishes_failure_counters(self, tmp_path):
        registry = MetricsRegistry()
        service = ResilientCharacterizationService(
            window=StaticWindow(1e-3),
            max_io_retries=0,
            registry=registry,
        )
        with pytest.raises(OSError):
            service.checkpoint_to(tmp_path)  # a directory: open() fails
        snap = registry.snapshot()
        assert snapshot_value(
            snap, "repro_resilience_checkpoint_failures_total"
        ) == 1
        assert snapshot_value(snap, "repro_resilience_degraded") == 1.0

    def test_restore_rebinds_engine_telemetry_to_service_registry(self):
        import io

        donor = CharacterizationService(
            window=StaticWindow(1e-3), shards=2, registry=MetricsRegistry()
        )
        donor.submit_many(
            [event(index * 1e-5, 100 + index % 4) for index in range(40)]
        )
        buffer = io.BytesIO()
        donor.checkpoint(buffer)

        registry = MetricsRegistry()
        service = CharacterizationService(
            window=StaticWindow(1e-3), shards=2, registry=registry
        )
        buffer.seek(0)
        service.restore(buffer)
        # The loaded engine was built against the default registry; the
        # service must re-home it so restored tables stay observable.
        assert service.analyzer.registry is registry
        snap = registry.snapshot()
        occupancy = sum(
            sample["value"]
            for sample in snap["metrics"]["repro_synopsis_occupancy"][
                "samples"
            ]
            if sample["labels"]["table"] == "items"
        )
        assert occupancy > 0

    def test_run_pipeline_returns_registry(self):
        from repro.pipeline import run_pipeline
        from repro.workloads.synthetic import (
            SyntheticKind,
            SyntheticSpec,
            generate_synthetic,
        )
        records, _truth = generate_synthetic(
            SyntheticSpec(SyntheticKind.ONE_TO_ONE, duration=5.0)
        )
        registry = MetricsRegistry()
        result = run_pipeline(records, record_offline=False,
                              registry=registry)
        assert result.registry is registry
        snap = registry.snapshot()
        assert snapshot_value(snap, "repro_monitor_events_seen_total") == \
            result.monitor_stats.events_seen
