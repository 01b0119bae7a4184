"""The cross-process observability plane (ISSUE 8).

Covers the four tentpole pieces and their seams:

* trace propagation -- context codecs, sampling with slow exemplars,
  and the acceptance test: one client request produces a *linked* span
  tree across three processes (client -> server worker -> shard worker);
* worker metrics aggregation -- shard-process counters surfacing in the
  parent registry (and in ``/metrics``) under ``shard=N`` labels, plus
  clean deregistration on release (satellite 1);
* the ops HTTP sidecar -- ``/metrics``, ``/healthz``, ``/readyz``
  (including the 503 -> 200 flip around recovery and promotion), and
  ``/vars``;
* structured logging -- JSON lines carrying trace correlation;
* tenant-labelled server latency/error metrics behind a bounded
  cardinality guard (satellite 2).
"""

import json
import os
import time
import urllib.error
import urllib.request

import pytest

from repro.core.config import AnalyzerConfig
from repro.engine.procshard import ProcessShardedAnalyzer
from repro.monitor.batch import TransactionBatch
from repro.monitor.events import BlockIOEvent
from repro.server.client import CharacterizationClient
from repro.server.metrics import TENANT_OVERFLOW, ServerMetrics, \
    TenantLabelGuard
from repro.server.server import CharacterizationServer, ServerThread
from repro.server.supervisor import Supervisor, WarmStandby, WorkerConfig
from repro.service import CharacterizationService
from repro.telemetry import (
    JsonLogger,
    MetricsRegistry,
    OpsServer,
    TraceContext,
    TraceLog,
    configure_logging,
    current_context,
    get_logger,
    histogram_quantile,
    install_tracelog,
    merge_worker_snapshot,
    read_trace_records,
    render_prometheus,
    snapshot,
    snapshot_value,
    trace_span,
    use_context,
)
from repro.workloads.enterprise import generate_named

from test_procshard import make_batches
from test_server import hot_events, make_server
from test_telemetry import parse_prometheus


@pytest.fixture(autouse=True)
def _no_leaked_tracelog():
    """Every test leaves the process-wide trace sink as it found it."""
    previous = install_tracelog(None)
    yield
    install_tracelog(previous)


def http_get(url, timeout=5.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read().decode("utf-8")
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read().decode("utf-8")


# ---------------------------------------------------------------------------
# Trace contexts and the NDJSON span log
# ---------------------------------------------------------------------------

class TestTraceContext:
    def test_wire_round_trip(self):
        ctx = TraceContext.new_trace(sampled=True)
        back = TraceContext.from_wire(ctx.to_wire())
        assert back.trace_id == ctx.trace_id
        assert back.span_id == ctx.span_id
        assert back.sampled is True

    def test_tuple_round_trip(self):
        ctx = TraceContext.new_trace(sampled=False).child()
        back = TraceContext.from_tuple(ctx.to_tuple())
        assert (back.trace_id, back.span_id) == (ctx.trace_id, ctx.span_id)
        assert back.sampled is False

    @pytest.mark.parametrize("garbage", [
        None, 17, "nope", [], {}, {"tid": 5, "sid": "x"},
        {"tid": "a"}, ("a",), ("a", "b", True, "extra"),
    ])
    def test_malformed_decodes_to_none(self, garbage):
        assert TraceContext.from_wire(garbage) is None
        assert TraceContext.from_tuple(garbage) is None

    def test_child_keeps_trace_and_sampling(self):
        root = TraceContext.new_trace(sampled=True)
        child = root.child()
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.span_id != root.span_id
        assert child.sampled is True

    def test_ambient_context_nests_and_restores(self):
        assert current_context() is None
        outer = TraceContext.new_trace()
        inner = outer.child()
        with use_context(outer):
            assert current_context() is outer
            with use_context(inner):
                assert current_context() is inner
            assert current_context() is outer
        assert current_context() is None


class TestTraceLog:
    def make_log(self, tmp_path, **kw):
        return TraceLog(str(tmp_path / "trace.ndjson"), **kw)

    def test_sampled_span_is_recorded_with_linkage(self, tmp_path):
        log = self.make_log(tmp_path, sample_rate=1.0)
        with log.span("outer", tags={"k": "v"}) as outer:
            with log.span("inner"):
                pass
        log.close()
        records = {r["name"]: r for r in read_trace_records(log.path)}
        assert set(records) == {"outer", "inner"}
        assert records["inner"]["trace_id"] == records["outer"]["trace_id"]
        assert records["inner"]["parent_id"] == records["outer"]["span_id"]
        assert records["outer"]["tags"] == {"k": "v"}
        assert records["outer"]["pid"] == os.getpid()
        assert outer.context.sampled

    def test_unsampled_fast_span_is_dropped(self, tmp_path):
        log = self.make_log(tmp_path, sample_rate=0.0)
        with log.span("quick"):
            pass
        assert log.records_written == 0
        assert read_trace_records(log.path) == []

    def test_slow_exemplar_recorded_despite_sampling(self, tmp_path):
        ticks = iter([0.0, 10.0])  # perf: start, end -> 10s elapsed
        log = self.make_log(tmp_path, sample_rate=0.0, slow_threshold=0.5,
                            perf=lambda: next(ticks))
        with log.span("glacial"):
            pass
        (record,) = read_trace_records(log.path)
        assert record["name"] == "glacial"
        assert record["slow"] is True
        assert record["duration"] == pytest.approx(10.0)

    def test_error_span_recorded_and_tagged(self, tmp_path):
        log = self.make_log(tmp_path, sample_rate=0.0)
        with pytest.raises(ValueError):
            with log.span("doomed"):
                raise ValueError("boom")
        (record,) = read_trace_records(log.path)
        assert record["tags"]["error"] == "ValueError"

    def test_trace_span_helper_requires_installed_sink(self, tmp_path):
        with trace_span("noop") as span:
            assert span.context is None  # the shared NULL_SPAN
        log = self.make_log(tmp_path, sample_rate=1.0)
        install_tracelog(log)
        with trace_span("real") as span:
            assert span.context is not None
        # require_parent: no ambient context -> no span, no new root
        assert trace_span("interior", require_parent=True).context is None
        with use_context(TraceContext.new_trace(sampled=True)):
            assert trace_span("interior",
                              require_parent=True).context is not None

    def test_torn_lines_are_skipped_on_read(self, tmp_path):
        path = tmp_path / "trace.ndjson"
        good = json.dumps({"name": "ok", "trace_id": "t", "span_id": "s"})
        path.write_text(good + "\n{\"torn\": \n" + good + "\n")
        assert len(read_trace_records(str(path))) == 2


# ---------------------------------------------------------------------------
# Structured JSON logging
# ---------------------------------------------------------------------------

class TestJsonLogger:
    def test_records_are_json_with_standard_fields(self, capsys):
        import io
        stream = io.StringIO()
        configure_logging(stream=stream, min_level="debug")
        try:
            log = get_logger("unit", zone="a")
            log.info("unit.event", answer=42)
            record = json.loads(stream.getvalue())
        finally:
            configure_logging(stream=None, min_level="info")
        assert record["component"] == "unit"
        assert record["event"] == "unit.event"
        assert record["level"] == "info"
        assert record["answer"] == 42
        assert record["zone"] == "a"
        assert record["pid"] == os.getpid()
        assert "ts" in record

    def test_trace_ids_attached_from_ambient_context(self):
        import io
        stream = io.StringIO()
        configure_logging(stream=stream, min_level="info")
        try:
            ctx = TraceContext.new_trace(sampled=True)
            with use_context(ctx):
                get_logger("unit").warning("traced.event")
            record = json.loads(stream.getvalue())
        finally:
            configure_logging(stream=None, min_level="info")
        assert record["trace_id"] == ctx.trace_id
        assert record["span_id"] == ctx.span_id

    def test_min_level_filters(self):
        import io
        stream = io.StringIO()
        configure_logging(stream=stream, min_level="warning")
        try:
            log = JsonLogger("unit")
            log.info("dropped")
            log.error("kept")
        finally:
            configure_logging(stream=None, min_level="info")
        lines = [json.loads(line) for line in
                 stream.getvalue().splitlines()]
        assert [r["event"] for r in lines] == ["kept"]


# ---------------------------------------------------------------------------
# Registry aggregation: merge, quantiles, deregistration
# ---------------------------------------------------------------------------

class TestAggregation:
    def worker_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("repro_worker_ops_total", "ops").inc(7)
        registry.gauge("repro_worker_depth", "depth").set(3)
        hist = registry.histogram("repro_worker_latency_seconds", "lat",
                                  buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 2.0):
            hist.observe(value)
        return registry.snapshot()

    def test_merge_adds_shard_label_and_values(self):
        parent = MetricsRegistry()
        touched = merge_worker_snapshot(parent, self.worker_snapshot(),
                                        shard=2)
        assert touched
        assert snapshot_value(snapshot(parent), "repro_worker_ops_total",
                              {"shard": "2"}) == 7
        assert snapshot_value(snapshot(parent), "repro_worker_depth",
                              {"shard": "2"}) == 3
        snap = snapshot(parent)["metrics"]["repro_worker_latency_seconds"]
        (sample,) = snap["samples"]
        assert sample["labels"] == {"shard": "2"}
        assert sample["count"] == 3
        assert sample["buckets"]["+Inf"] == 3

    def test_merge_is_idempotent_per_snapshot(self):
        parent = MetricsRegistry()
        snap = self.worker_snapshot()
        merge_worker_snapshot(parent, snap, shard=0)
        merge_worker_snapshot(parent, snap, shard=0)  # newest wins, no 2x
        assert snapshot_value(snapshot(parent), "repro_worker_ops_total",
                              {"shard": "0"}) == 7

    def test_histogram_quantile_interpolates(self):
        buckets = [(0.1, 10), (1.0, 90), (float("inf"), 100)]
        assert histogram_quantile(buckets, 0.05) <= 0.1
        p50 = histogram_quantile(buckets, 0.5)
        assert 0.1 < p50 < 1.0
        # +Inf bucket: clamp to the last finite bound
        assert histogram_quantile(buckets, 0.99) == pytest.approx(1.0)

    def test_deregister_collector_stops_callbacks(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_unit_pull", "pull")

        class Owner:
            calls = 0

            def collect(self):
                Owner.calls += 1
                gauge.set(Owner.calls)

        owner = Owner()
        registry.register_collector(owner.collect)
        registry.snapshot()
        assert Owner.calls == 1
        registry.deregister_collector(owner.collect)
        registry.snapshot()
        assert Owner.calls == 1


# ---------------------------------------------------------------------------
# Worker metrics surface in the parent registry (and /metrics)
# ---------------------------------------------------------------------------

class TestWorkerMetricsAggregation:
    def test_shard_counters_reach_parent_and_exposition(self):
        registry = MetricsRegistry()
        engine = ProcessShardedAnalyzer(
            AnalyzerConfig(item_capacity=64, correlation_capacity=128),
            shards=2, registry=registry)
        try:
            for batch in make_batches(seed=5, count=400, chunk=100):
                engine.process_transaction_batch(batch)
            assert engine.collect_worker_metrics() == 2
            text = render_prometheus(registry)
            samples, _types = parse_prometheus(text)
            by_shard = {
                labels: value for (name, labels), value in samples.items()
                if name == "repro_synopsis_lookups_total"
                and ("table", "items") in labels
            }
            shard_values = {dict(labels)["shard"]: value
                            for labels, value in by_shard.items()
                            if "shard" in dict(labels)}
            assert set(shard_values) == {"0", "1"}
            assert all(value > 0 for value in shard_values.values())
        finally:
            engine.close()

    def test_release_removes_shard_series_and_zeroes_gauges(self):
        """Satellite 1: a closed fleet must not leave stale shard gauges
        or orphaned pull collectors behind in a shared registry."""
        registry = MetricsRegistry()
        engine = ProcessShardedAnalyzer(
            AnalyzerConfig(item_capacity=64, correlation_capacity=128),
            shards=2, registry=registry)
        for batch in make_batches(seed=6, count=200, chunk=100):
            engine.process_transaction_batch(batch)
        assert engine.collect_worker_metrics() == 2
        before = snapshot(registry)["metrics"]
        assert any(
            sample["labels"].get("shard") is not None
            for sample in before["repro_synopsis_lookups_total"]["samples"]
        )
        engine.close()
        after = snapshot(registry)["metrics"]
        assert snapshot_value(snapshot(registry), "repro_engine_shards") == 0
        shard_samples = [
            sample
            for family in after.values()
            for sample in family["samples"]
            if sample["labels"].get("shard") is not None
        ]
        assert shard_samples == []


class TestShardFlowCounters:
    @pytest.mark.parametrize("processes", [False, True],
                             ids=["in_process", "processes"])
    def test_shard_counters_sum_to_engine_totals(self, processes):
        """Each shard counts the extents and pairs it applies, so the
        ``repro_analyzer_*_total{shard}`` series sum to the engine's
        totals on the in-process and the process host alike."""
        registry = MetricsRegistry()
        service = CharacterizationService(
            config=AnalyzerConfig(item_capacity=512,
                                  correlation_capacity=512),
            shards=2, shard_processes=processes, registry=registry)
        records, _truth = generate_named("hm", requests=5000, seed=3)
        try:
            service.submit_many(
                [BlockIOEvent.from_record(record) for record in records])
            service.flush()
            if processes:
                assert service.analyzer.collect_worker_metrics() == 2
            snap = snapshot(registry)
            for flow in ("extents", "pairs"):
                total = snapshot_value(snap, f"repro_engine_{flow}_total")
                per_shard = [
                    snapshot_value(snap, f"repro_analyzer_{flow}_total",
                                   {"shard": str(index)})
                    for index in range(2)
                ]
                assert total > 0 and all(per_shard), (flow, per_shard)
                assert sum(per_shard) == total
        finally:
            service.release()


# ---------------------------------------------------------------------------
# The ops HTTP sidecar
# ---------------------------------------------------------------------------

class TestOpsServer:
    def test_endpoints_and_readiness_flip(self):
        registry = MetricsRegistry()
        registry.counter("repro_unit_total", "unit").inc(5)
        state = {"ready": False}
        with OpsServer(registry=registry, port=0,
                       ready=lambda: (state["ready"], {"why": "warming"}),
                       vars_probe=lambda: {"build": "test"}) as ops:
            base = ops.address
            status, body = http_get(base + "/healthz")
            assert status == 200 and json.loads(body)["status"] == "ok"
            status, body = http_get(base + "/readyz")
            assert status == 503
            assert json.loads(body)["status"] == "unavailable"
            state["ready"] = True
            status, body = http_get(base + "/readyz")
            assert status == 200 and json.loads(body)["status"] == "ready"
            status, body = http_get(base + "/metrics")
            assert status == 200
            samples, types = parse_prometheus(body)
            assert samples[("repro_unit_total", ())] == 5.0
            assert types["repro_unit_total"] == "counter"
            status, body = http_get(base + "/vars")
            payload = json.loads(body)
            assert payload["build"] == "test"
            assert payload["pid"] == os.getpid()
            assert "repro_unit_total" in payload["metrics"]
            status, _body = http_get(base + "/nope")
            assert status == 404

    def test_broken_ready_probe_reads_not_ready(self):
        def explode():
            raise RuntimeError("probe wiring error")

        with OpsServer(registry=MetricsRegistry(), port=0,
                       ready=explode) as ops:
            status, body = http_get(ops.address + "/readyz")
            assert status == 503
            assert "probe wiring error" in body


class TestServerOpsEndpoint:
    def test_server_metrics_and_readyz_over_http(self, tmp_path):
        server = make_server(tmp_path, http_port=0)
        assert server._readiness()[0] is False  # not started yet
        with ServerThread(server) as handle:
            base = server.ops.address
            status, _body = http_get(base + "/healthz")
            assert status == 200
            status, body = http_get(base + "/readyz")
            assert status == 200
            with CharacterizationClient(handle.address) as client:
                client.send_events(hot_events(10))
                client.query_top(k=5, min_support=3)
            status, body = http_get(base + "/metrics")
            samples, _types = parse_prometheus(body)
            frames = {dict(labels).get("type"): value
                      for (name, labels), value in samples.items()
                      if name == "repro_server_frames_total"}
            assert frames.get("BATCH", 0) >= 1
            assert frames.get("QUERY", 0) >= 1
            status, body = http_get(base + "/vars")
            assert json.loads(body)["server"]["ready"] is True
        assert server.ops is None  # shutdown stopped the sidecar
        assert server.ready is False

    def test_promoted_standby_serves_ready(self, tmp_path):
        """After failover, the successor's /readyz must flip to 200 only
        once catch-up finished and its socket is accepting."""
        wal_dir = tmp_path / "wal"
        primary = make_server(tmp_path, wal_dir=str(wal_dir),
                              checkpoint_path=str(tmp_path / "ckpt"))
        with ServerThread(primary) as handle:
            with CharacterizationClient(handle.address) as client:
                client.send_events(hot_events(10))
                client.query_top(k=5, min_support=3)
        standby = WarmStandby(str(wal_dir),
                              checkpoint_path=str(tmp_path / "ckpt"),
                              registry=MetricsRegistry())
        standby.warm_up()
        successor = standby.promote(
            unix_path=str(tmp_path / "successor.sock"),
            registry=MetricsRegistry(), http_port=0)
        assert successor._readiness()[0] is False
        with ServerThread(successor):
            status, body = http_get(successor.ops.address + "/readyz")
            assert status == 200
            assert json.loads(body)["status"] == "ready"
            status, _body = http_get(successor.ops.address + "/healthz")
            assert status == 200


# ---------------------------------------------------------------------------
# Tenant-labelled server metrics with a cardinality guard (satellite 2)
# ---------------------------------------------------------------------------

class TestTenantLabels:
    def test_guard_caps_distinct_values(self):
        guard = TenantLabelGuard(max_values=2)
        assert guard.label("a") == "a"
        assert guard.label("b") == "b"
        assert guard.label("c") == TENANT_OVERFLOW
        assert guard.label("a") == "a"  # established tenants keep theirs
        assert guard.label("") == TENANT_OVERFLOW  # default arrived late

    def test_frame_latency_carries_tenant_label(self):
        registry = MetricsRegistry()
        metrics = ServerMetrics(registry, max_tenant_labels=2)
        metrics.frame("BATCH", 0.01, tenant="acme")
        metrics.frame("BATCH", 0.02, tenant="")
        for flood in range(5):
            metrics.frame("BATCH", 0.01, tenant=f"mint-{flood}")
        metrics.frame_error("bad_request", tenant="acme")
        snap = snapshot(registry)["metrics"]
        latency = snap["repro_server_frame_latency_seconds"]["samples"]
        tenants = {sample["labels"]["tenant"] for sample in latency}
        assert tenants == {"acme", "default", TENANT_OVERFLOW}
        overflow = [sample for sample in latency
                    if sample["labels"]["tenant"] == TENANT_OVERFLOW]
        assert overflow[0]["count"] == 5
        errors = snap["repro_server_frame_errors_total"]["samples"]
        assert errors[0]["labels"] == {"code": "bad_request",
                                      "tenant": "acme"}

    def test_server_end_to_end_labels_by_tenant(self, tmp_path):
        registry = MetricsRegistry()
        with ServerThread(make_server(tmp_path,
                                      registry=registry)) as handle:
            with CharacterizationClient(handle.address,
                                        tenant="blue") as client:
                client.send_events(hot_events(5))
                client.query_top(k=3, min_support=2)
        latency = snapshot(registry)["metrics"][
            "repro_server_frame_latency_seconds"]["samples"]
        assert {"type": "BATCH", "tenant": "blue"} in \
            [sample["labels"] for sample in latency]


# ---------------------------------------------------------------------------
# The acceptance test: one request, one linked tree, three processes
# ---------------------------------------------------------------------------

class TestCrossProcessTrace:
    def _wait_for_socket(self, path, timeout=30.0):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if os.path.exists(path):
                return
            time.sleep(0.02)
        raise AssertionError(f"server socket {path} never appeared")

    def test_span_tree_links_client_server_and_shard(self, tmp_path):
        trace_path = str(tmp_path / "trace.ndjson")
        sock = str(tmp_path / "server.sock")
        config = WorkerConfig(
            unix_path=sock,
            wal_dir=str(tmp_path / "wal"),
            checkpoint_path=str(tmp_path / "ckpt"),
            heartbeat_path=str(tmp_path / "wal" / "heartbeat.json"),
            capacity=4096,
            support=2,
            shards=2,
            shard_processes=True,
            trace_log=trace_path,
            trace_sample_rate=1.0,
        )
        supervisor = Supervisor(config, registry=MetricsRegistry())
        # The client (this process) writes to the same O_APPEND file.
        install_tracelog(TraceLog(trace_path, sample_rate=1.0))
        try:
            supervisor.start()
            self._wait_for_socket(sock)
            with CharacterizationClient(sock, request_deadline=60.0,
                                        tenant="traced") as client:
                client.send_events(hot_events(20))
                client.query_top(k=5, min_support=2)
        finally:
            supervisor.stop()

        records = read_trace_records(trace_path)
        by_span = {r["span_id"]: r for r in records}
        shard_spans = [r for r in records if r["name"] == "shard.apply"]
        assert shard_spans, f"no shard spans in {sorted({r['name'] for r in records})}"

        # Walk one shard span's parent chain back to the client root.
        chain = [shard_spans[0]]
        while chain[-1].get("parent_id"):
            parent = by_span.get(chain[-1]["parent_id"])
            assert parent is not None, \
                f"broken parent link at {chain[-1]['name']}"
            chain.append(parent)
        names = [r["name"] for r in chain]
        assert names[0] == "shard.apply"
        assert names[-1] == "client.request"
        assert "server.frame" in names and "server.ingest" in names
        # One coherent trace across at least three distinct processes.
        assert len({r["trace_id"] for r in chain}) == 1
        pids = {r["pid"] for r in chain}
        assert len(pids) >= 3, f"span tree spans only pids {pids}"
        assert os.getpid() in pids  # the client leg really is this process
