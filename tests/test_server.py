"""Tests for the serving layer: protocol, backpressure, server, client."""

import os
import socket
import threading

import pytest

from repro.core.config import AnalyzerConfig
from repro.monitor.events import BlockIOEvent
from repro.monitor.window import StaticWindow
from repro.pipeline import run_pipeline
from repro.resilience.policy import BackoffPolicy
from repro.server import protocol
from repro.server.backpressure import Admission, BoundedIngestQueue
from repro.server.client import (
    BatchingWriter,
    CharacterizationClient,
    ServerError,
    ServerOverloadedError,
)
from repro.server.protocol import FrameDecoder, encode_frame
from repro.server.server import CharacterizationServer, ServerThread
from repro.service import CharacterizationService
from repro.telemetry.export import snapshot, snapshot_value
from repro.telemetry.metrics import NULL_REGISTRY, MetricsRegistry
from repro.trace.record import OpType, TraceRecord

from conftest import pair

R = OpType.READ


def event(ts, start, length=8, op=R):
    return BlockIOEvent(ts, 1, op, start, length)


def hot_events(rounds, base=0.0, first=100, second=9000):
    """``rounds`` two-request transactions on one hot extent pair."""
    events = []
    clock = base
    for _ in range(rounds):
        events.append(event(clock, first, 8))
        events.append(event(clock + 1e-5, second, 16))
        clock += 0.05
    return events


def make_service(**overrides):
    defaults = dict(
        config=AnalyzerConfig(item_capacity=512, correlation_capacity=512),
        window=StaticWindow(1e-3),
        min_support=2,
        snapshot_interval=1000,
    )
    defaults.update(overrides)
    return CharacterizationService(**defaults)


def make_server(tmp_path, service=None, registry=None, **kw):
    registry = registry if registry is not None else MetricsRegistry()
    if service is None:
        service = make_service(registry=registry)
    return CharacterizationServer(
        service, unix_path=tmp_path / "server.sock", registry=registry, **kw
    )


class RawConnection:
    """A bare socket speaking the frame protocol, for wire-level tests."""

    def __init__(self, address):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(10.0)
        self.sock.connect(address)
        self.decoder = FrameDecoder()

    def send_raw(self, data: bytes):
        self.sock.sendall(data)

    def read_reply(self):
        while True:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            frames = self.decoder.feed(chunk)
            if frames:
                assert frames[0].ok, frames[0].error
                return frames[0].payload

    def request(self, payload):
        self.send_raw(encode_frame(payload))
        return self.read_reply()

    def close(self):
        self.sock.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


# ---------------------------------------------------------------------------
# Wire format
# ---------------------------------------------------------------------------

class TestFrameCodec:
    def test_roundtrip_single(self):
        decoder = FrameDecoder()
        frames = decoder.feed(encode_frame({"type": "PING", "id": 7}))
        assert len(frames) == 1
        assert frames[0].ok
        assert frames[0].payload == {"type": "PING", "id": 7}

    def test_byte_at_a_time(self):
        """A frame fragmented into 1-byte reads decodes exactly once."""
        decoder = FrameDecoder()
        data = encode_frame({"type": "PING"})
        frames = []
        for i in range(len(data)):
            frames.extend(decoder.feed(data[i:i + 1]))
        assert [f.payload for f in frames] == [{"type": "PING"}]
        assert decoder.pending_bytes == 0

    def test_many_frames_one_feed(self):
        decoder = FrameDecoder()
        blob = b"".join(encode_frame({"type": "PING", "id": i})
                        for i in range(5))
        frames = decoder.feed(blob)
        assert [f.payload["id"] for f in frames] == list(range(5))

    def test_split_across_frame_boundary(self):
        decoder = FrameDecoder()
        blob = encode_frame({"type": "STATS"}) + encode_frame({"type": "PING"})
        cut = len(encode_frame({"type": "STATS"})) + 2  # mid length prefix
        first = decoder.feed(blob[:cut])
        second = decoder.feed(blob[cut:])
        assert [f.type for f in first + second] == ["STATS", "PING"]

    def test_oversized_skipped_and_stream_recovers(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        big = encode_frame({"type": "BATCH", "events": [{"x": 1}] * 50})
        frames = decoder.feed(big + encode_frame({"type": "PING"}))
        assert not frames[0].ok
        assert frames[0].error_code == protocol.ERR_TOO_LARGE
        assert frames[1].ok and frames[1].type == "PING"

    def test_oversized_discard_spans_feeds(self):
        decoder = FrameDecoder(max_frame_bytes=64)
        big = encode_frame({"type": "BATCH", "events": [{"x": 1}] * 50})
        frames = []
        for i in range(0, len(big), 7):
            frames.extend(decoder.feed(big[i:i + 7]))
        frames.extend(decoder.feed(encode_frame({"type": "PING"})))
        assert [f.ok for f in frames] == [False, True]
        assert frames[0].error_code == protocol.ERR_TOO_LARGE

    def test_malformed_json(self):
        decoder = FrameDecoder()
        body = b"{not json}\n"
        frames = decoder.feed(protocol._LENGTH.pack(len(body)) + body)
        assert not frames[0].ok
        assert frames[0].error_code == protocol.ERR_MALFORMED

    def test_non_object_frame_rejected(self):
        decoder = FrameDecoder()
        body = b"[1,2,3]\n"
        frames = decoder.feed(protocol._LENGTH.pack(len(body)) + body)
        assert frames[0].error_code == protocol.ERR_MALFORMED

    def test_missing_type_rejected(self):
        decoder = FrameDecoder()
        frames = decoder.feed(encode_frame({"nope": 1}))
        assert frames[0].error_code == protocol.ERR_MALFORMED

    def test_event_payload_roundtrip(self):
        original = BlockIOEvent(1.5, 7, OpType.WRITE, 4096, 16,
                                latency=2e-3, pgid=3)
        restored = protocol.event_from_payload(
            protocol.event_to_payload(original))
        assert restored == original

    def test_event_payload_omits_defaults(self):
        payload = protocol.event_to_payload(event(0.0, 100))
        assert set(payload) == {"ts", "op", "start", "len", "pid"}
        restored = protocol.event_from_payload(payload)
        assert restored.latency is None and restored.pgid == 0

    def test_events_from_frame_validates(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.events_from_frame({"type": "BATCH", "events": "nope"})
        with pytest.raises(protocol.ProtocolError):
            protocol.events_from_frame({"type": "EVENT",
                                        "event": {"ts": 0.0}})


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

class TestBoundedQueue:
    def test_soft_throttle_hard_reject(self):
        queue = BoundedIngestQueue(soft_limit=10, hard_limit=20)
        assert queue.offer([event(0.0, 1)] * 5) is Admission.ACCEPTED
        assert queue.offer([event(0.0, 1)] * 10) is Admission.THROTTLED
        assert queue.offer([event(0.0, 1)] * 10) is Admission.REJECTED
        assert queue.depth == 15  # the rejected frame left no residue

    def test_whole_frame_admission(self):
        """A frame is accepted or rejected atomically, never split."""
        queue = BoundedIngestQueue(soft_limit=5, hard_limit=10)
        assert queue.offer([event(0.0, 1)] * 8) is Admission.THROTTLED
        assert queue.offer([event(0.0, 1)] * 3) is Admission.REJECTED
        assert queue.stats.rejected_events == 3
        assert queue.stats.accepted_events == 8

    def test_pop_preserves_order_and_tags(self):
        queue = BoundedIngestQueue(soft_limit=100, hard_limit=100)
        queue.offer([event(0.0, 1)], tag="a")
        queue.offer([event(0.0, 2), event(0.0, 3)], tag="b")
        assert queue.pop() == ("a", [event(0.0, 1)])
        tag, batch = queue.pop()
        assert tag == "b" and len(batch) == 2
        assert queue.pop() is None
        assert queue.empty

    def test_watermark_tracks_peak(self):
        queue = BoundedIngestQueue(soft_limit=100, hard_limit=100)
        queue.offer([event(0.0, 1)] * 30)
        queue.drain()
        queue.offer([event(0.0, 1)] * 5)
        assert queue.stats.high_watermark == 30
        assert queue.depth == 5

    def test_retry_after_grows_with_overage(self):
        queue = BoundedIngestQueue(soft_limit=10, hard_limit=100)
        queue.offer([event(0.0, 1)] * 20)
        shallow = queue.retry_after()
        queue.offer([event(0.0, 1)] * 60)
        assert queue.retry_after() > shallow > 0


# ---------------------------------------------------------------------------
# Server + client, end to end over a Unix socket
# ---------------------------------------------------------------------------

class TestServerBasics:
    def test_ping_reports_protocol_version(self, tmp_path):
        with ServerThread(make_server(tmp_path)) as handle:
            with CharacterizationClient(handle.address) as client:
                reply = client.ping()
        assert reply["version"] == protocol.PROTOCOL_VERSION

    def test_ingest_then_query_reads_own_writes(self, tmp_path):
        """A QUERY drains the same connection's queue first."""
        with ServerThread(make_server(tmp_path)) as handle:
            with CharacterizationClient(handle.address) as client:
                client.send_events(hot_events(10))
                top = client.query_top(k=5, min_support=3)
        assert top[0][0] == pair(100, 9000, 8, 16)
        assert top[0][1] >= 9  # the 10th transaction may still be open

    def test_query_items(self, tmp_path):
        with ServerThread(make_server(tmp_path)) as handle:
            with CharacterizationClient(handle.address) as client:
                client.send_events(hot_events(10))
                items = client.query_items(k=4, min_support=3)
        starts = {extent.start for extent, _count in items}
        assert {100, 9000} <= starts

    def test_single_event_frames(self, tmp_path):
        with ServerThread(make_server(tmp_path)) as handle:
            with CharacterizationClient(handle.address) as client:
                for evt in hot_events(5):
                    reply = client.send_event(evt)
                    assert reply["accepted"] == 1
                stats = client.stats()
        assert stats["monitor"]["events_seen"] == 10

    def test_stats_shape(self, tmp_path):
        with ServerThread(make_server(tmp_path)) as handle:
            with CharacterizationClient(handle.address) as client:
                client.send_events(hot_events(4))
                stats = client.stats()
        assert stats["monitor"]["events_seen"] == 8
        assert stats["transactions"] == 3  # last window still open
        assert stats["connections"] == 1
        assert stats["tenants"] == [""]
        assert stats["poisoned_batches"] == 0

    def test_default_backend_is_resilient(self, tmp_path):
        registry = MetricsRegistry()
        server = CharacterizationServer(unix_path=tmp_path / "server.sock",
                                        registry=registry)
        with ServerThread(server) as handle:
            with CharacterizationClient(handle.address) as client:
                stats = client.stats()
        assert stats["health"]["status"] == "ok"

    def test_request_id_echoed(self, tmp_path):
        with ServerThread(make_server(tmp_path)) as handle:
            with RawConnection(handle.address) as raw:
                reply = raw.request({"type": "PING", "id": "req-42"})
        assert reply["id"] == "req-42"

    def test_metrics_frame_serves_prometheus(self, tmp_path):
        with ServerThread(make_server(tmp_path)) as handle:
            with CharacterizationClient(handle.address) as client:
                client.send_events(hot_events(3))
                text = client.metrics_prometheus()
        assert "repro_server_frames_total" in text
        assert "repro_server_connections" in text


class TestFrameErrors:
    """Bad frames get ERROR replies; the connection always survives."""

    def test_malformed_json_keeps_connection(self, tmp_path):
        with ServerThread(make_server(tmp_path)) as handle:
            with RawConnection(handle.address) as raw:
                body = b"this is not json\n"
                raw.send_raw(protocol._LENGTH.pack(len(body)) + body)
                reply = raw.read_reply()
                assert reply["type"] == protocol.REPLY_ERROR
                assert reply["code"] == protocol.ERR_MALFORMED
                # Same socket, next frame: still served.
                assert raw.request({"type": "PING"})["type"] == "PONG"

    def test_oversized_frame_rejected_not_fatal(self, tmp_path):
        server = make_server(tmp_path, max_frame_bytes=512)
        with ServerThread(server) as handle:
            with RawConnection(handle.address) as raw:
                raw.send_raw(encode_frame(
                    protocol.batch_frame(hot_events(100))))
                reply = raw.read_reply()
                assert reply["code"] == protocol.ERR_TOO_LARGE
                assert raw.request({"type": "PING"})["type"] == "PONG"
            with CharacterizationClient(handle.address) as client:
                assert client.stats()["monitor"]["events_seen"] == 0

    def test_unknown_frame_type(self, tmp_path):
        with ServerThread(make_server(tmp_path)) as handle:
            with RawConnection(handle.address) as raw:
                reply = raw.request({"type": "FROBNICATE"})
                assert reply["code"] == protocol.ERR_BAD_REQUEST
                assert raw.request({"type": "PING"})["type"] == "PONG"

    def test_bad_query_parameters(self, tmp_path):
        with ServerThread(make_server(tmp_path)) as handle:
            with CharacterizationClient(handle.address) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.request({"type": "QUERY", "what": "correlations",
                                    "k": -3})
        assert excinfo.value.code == protocol.ERR_BAD_REQUEST

    def test_bad_event_field_rejected(self, tmp_path):
        with ServerThread(make_server(tmp_path)) as handle:
            with RawConnection(handle.address) as raw:
                reply = raw.request({"type": "EVENT",
                                     "event": {"ts": "yesterday", "op": "R",
                                               "start": 0, "len": 1}})
                assert reply["code"] == protocol.ERR_BAD_REQUEST
                assert raw.request({"type": "PING"})["type"] == "PONG"


class TestBackpressure:
    def test_throttle_acknowledges_and_keeps_events(self, tmp_path):
        """Soft overload: events accepted, client told to back off, and
        the accepted events all reach the engine (observably, in both
        STATS and telemetry)."""
        registry = MetricsRegistry()
        server = make_server(tmp_path, registry=registry, soft_limit=50)
        slept = []
        with ServerThread(server) as handle:
            client = CharacterizationClient(handle.address,
                                            sleep=slept.append)
            with client:
                reply = client.send_events(hot_events(100))  # 200 events
                assert reply["type"] == protocol.REPLY_THROTTLE
                assert reply["accepted"] == 200
                assert reply["retry_after"] > 0
                stats = client.stats()  # drains before answering
        assert client.throttle_count == 1
        assert slept == [reply["retry_after"]]
        assert stats["monitor"]["events_seen"] == 200  # nothing lost
        snap = snapshot(registry)
        assert snapshot_value(snap, "repro_server_throttles_total") == 1
        assert snapshot_value(snap, "repro_server_ingested_events_total") == 200

    def test_hard_rejection_drops_whole_frame(self, tmp_path):
        registry = MetricsRegistry()
        server = make_server(tmp_path, registry=registry,
                             soft_limit=10, hard_limit=100)
        policy = BackoffPolicy(base=1e-4, cap=1e-3, retries=1)
        with ServerThread(server) as handle:
            with CharacterizationClient(handle.address,
                                        policy=policy) as client:
                with pytest.raises(ServerOverloadedError):
                    client.send_events(hot_events(80))  # 160 > hard limit
                assert client.overload_retries == 1
                # The server is alive and no partial frame leaked in.
                assert client.ping()["type"] == "PONG"
                assert client.stats()["monitor"]["events_seen"] == 0
        snap = snapshot(registry)
        assert snapshot_value(snap, "repro_server_rejected_frames_total") == 2
        assert snapshot_value(snap,
                              "repro_server_rejected_events_total") == 320

    def test_batching_writer_flushes_by_count(self, tmp_path):
        with ServerThread(make_server(tmp_path)) as handle:
            with CharacterizationClient(handle.address) as client:
                with BatchingWriter(client, max_batch=16) as writer:
                    writer.add_many(hot_events(40))  # 80 events
                    assert len(writer) < 16
                stats = client.stats()
        assert stats["monitor"]["events_seen"] == 80
        assert writer.batches_flushed == client.frames_sent == 5


class TestConcurrencyAndTenants:
    def test_concurrent_clients_lose_nothing(self, tmp_path):
        """Four producers on one engine: every accepted event is counted."""
        with ServerThread(make_server(tmp_path)) as handle:
            errors = []

            def produce(base):
                try:
                    with CharacterizationClient(handle.address) as client:
                        client.send_events(hot_events(10, base=base))
                        client.stats()  # drain this connection's queue
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=produce, args=(i * 100.0,))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            with CharacterizationClient(handle.address) as client:
                stats = client.stats()
        assert errors == []
        assert stats["monitor"]["events_seen"] == 80

    def test_tenants_get_independent_engines(self, tmp_path):
        with ServerThread(make_server(tmp_path)) as handle:
            alpha = CharacterizationClient(handle.address, tenant="alpha")
            beta = CharacterizationClient(handle.address)
            with alpha, beta:
                alpha.send_events(hot_events(8, first=100, second=9000))
                beta.send_events(hot_events(8, first=5000, second=7000))
                top_alpha = alpha.query_top(k=5, min_support=3)
                top_beta = beta.query_top(k=5, min_support=3)
                stats = alpha.stats()
        pairs_alpha = {p for p, _count in top_alpha}
        pairs_beta = {p for p, _count in top_beta}
        assert pair(100, 9000, 8, 16) in pairs_alpha
        assert pair(5000, 7000, 8, 16) in pairs_beta
        assert pairs_alpha.isdisjoint(pairs_beta)
        assert sorted(stats["tenants"]) == ["", "alpha"]

    def test_tenant_limit_enforced(self, tmp_path):
        with ServerThread(make_server(tmp_path, max_tenants=2)) as handle:
            with CharacterizationClient(handle.address,
                                        tenant="second") as client:
                client.send_events(hot_events(2))  # admits tenant 2 of 2
            with CharacterizationClient(handle.address,
                                        tenant="third") as client:
                with pytest.raises(ServerError) as excinfo:
                    client.send_events(hot_events(2))
        assert excinfo.value.code == protocol.ERR_UNAVAILABLE


class PoisonService(CharacterizationService):
    """Raises on any batch containing the poison extent."""

    def submit_many(self, events):
        events = list(events)
        if any(evt.start == 666 for evt in events):
            raise RuntimeError("poisoned batch")
        return super().submit_many(events)


class TestFailureIsolation:
    def test_poisoned_batch_degrades_batch_only(self, tmp_path):
        registry = MetricsRegistry()
        service = PoisonService(window=StaticWindow(1e-3), min_support=2,
                                registry=registry)
        server = make_server(tmp_path, service=service, registry=registry)
        with ServerThread(server) as handle:
            with CharacterizationClient(handle.address) as client:
                client.send_events([event(0.0, 666), event(1e-5, 667)])
                stats = client.stats()
                assert stats["poisoned_batches"] == 1
                # The connection and engine still work.
                client.send_events(hot_events(6, base=1.0))
                top = client.query_top(k=3, min_support=3)
        assert top[0][0] == pair(100, 9000, 8, 16)
        snap = snapshot(registry)
        assert snapshot_value(snap,
                              "repro_server_poisoned_frames_total") == 1


class TestLifecycle:
    def test_shutdown_flushes_final_open_transaction(self, tmp_path):
        """The last partial transaction reaches the analyzer and the
        checkpoint -- the stream's tail is not lost on shutdown."""
        checkpoint = tmp_path / "state.ckpt"
        service = make_service(min_support=1)
        server = make_server(tmp_path, service=service,
                             checkpoint_path=checkpoint)
        with ServerThread(server) as handle:
            with CharacterizationClient(handle.address) as client:
                # One transaction whose window never closes on its own.
                client.send_events([event(0.0, 100), event(1e-5, 9000)])
                client.stats()  # ensure it is ingested (still unflushed)
        assert service.closed
        assert service.analyzer.correlations.tally(pair(100, 9000, 8, 8)) == 1
        restored = make_service(min_support=1)
        with open(checkpoint, "rb") as stream:
            restored.restore(stream)
        assert restored.analyzer.correlations.tally(
            pair(100, 9000, 8, 8)) == 1

    def test_restore_on_start(self, tmp_path):
        checkpoint = tmp_path / "state.ckpt"
        first = make_server(tmp_path, checkpoint_path=checkpoint)
        with ServerThread(first) as handle:
            with CharacterizationClient(handle.address) as client:
                client.send_events(hot_events(6))
        assert checkpoint.exists()
        second = make_server(tmp_path, checkpoint_path=checkpoint)
        with ServerThread(second) as handle:
            with CharacterizationClient(handle.address) as client:
                top = client.query_top(k=3, min_support=3)
        assert top[0][0] == pair(100, 9000, 8, 16)
        assert top[0][1] == 6  # shutdown flushed the 6th transaction

    def test_remote_checkpoint_frame(self, tmp_path):
        checkpoint = tmp_path / "state.ckpt"
        server = make_server(tmp_path, checkpoint_path=checkpoint)
        with ServerThread(server) as handle:
            with CharacterizationClient(handle.address) as client:
                client.send_events(hot_events(5))
                reply = client.checkpoint()
        assert reply["bytes"] > 0
        assert reply["path"] == str(checkpoint)

    def test_checkpoint_without_path_is_unavailable(self, tmp_path):
        with ServerThread(make_server(tmp_path)) as handle:
            with CharacterizationClient(handle.address) as client:
                with pytest.raises(ServerError) as excinfo:
                    client.checkpoint()
        assert excinfo.value.code == protocol.ERR_UNAVAILABLE

    def test_unix_socket_removed_on_shutdown(self, tmp_path):
        server = make_server(tmp_path)
        with ServerThread(server) as handle:
            path = handle.address
            with CharacterizationClient(path) as client:
                client.ping()
        assert not os.path.exists(path)


class TestClientResilience:
    def test_reconnect_after_server_restart(self, tmp_path):
        """The client retries through a connection loss (same address)."""
        sock_path = tmp_path / "server.sock"
        registry = MetricsRegistry()
        first = CharacterizationServer(make_service(registry=registry),
                                       unix_path=sock_path,
                                       registry=registry)
        policy = BackoffPolicy(base=0.05, cap=0.5, retries=8)
        client = CharacterizationClient(str(sock_path), policy=policy)
        with ServerThread(first) as handle:
            client.ping()
        # Server gone: restart on the same path while the client retries.
        registry2 = MetricsRegistry()
        second = CharacterizationServer(make_service(registry=registry2),
                                        unix_path=sock_path,
                                        registry=registry2)
        restarter = threading.Timer(
            0.2, lambda: ServerThread(second).start())
        restarter.start()
        try:
            reply = client.send_events(hot_events(3))
        finally:
            restarter.join()
        assert reply["accepted"] == 6
        assert client.reconnects >= 1
        client.close()

    def test_retries_exhausted_raise(self, tmp_path):
        policy = BackoffPolicy(base=1e-4, cap=1e-3, retries=2)
        client = CharacterizationClient(str(tmp_path / "nobody.sock"),
                                        policy=policy)
        with pytest.raises(OSError):
            client.ping()


# ---------------------------------------------------------------------------
# End-to-end equivalence: socket path vs in-process pipeline
# ---------------------------------------------------------------------------

def correlated_records(transactions, groups=50, seed=7):
    """Zipf-flavoured stream: each transaction hits one group's extent
    pair, so the true correlations are the ``groups`` hot pairs."""
    import random

    rng = random.Random(seed)
    records = []
    clock = 0.0
    for _ in range(transactions):
        group = min(int(rng.expovariate(8.0 / groups)), groups - 1)
        base = 10_000 * (group + 1)
        records.append(TraceRecord(clock, 1, OpType.READ, base, 8))
        records.append(TraceRecord(clock + 2e-5, 1, OpType.READ,
                                   base + 64, 16))
        clock += 0.05
    return records


def jaccard(left, right):
    left, right = set(left), set(right)
    if not left and not right:
        return 1.0
    return len(left & right) / len(left | right)


class TestEndToEnd:
    def test_streamed_ingest_matches_in_process_pipeline(self, tmp_path):
        """100k events through the socket reproduce the in-process result:
        the serving layer adds a network boundary, not an accuracy cost."""
        records = correlated_records(50_000)
        assert len(records) == 100_000
        config = AnalyzerConfig(item_capacity=2048,
                                correlation_capacity=2048)
        window = StaticWindow(1e-3)

        reference = run_pipeline(
            records, config=config, window=window,
            record_offline=False, registry=NULL_REGISTRY,
        )
        expected = [p for p, _count in reference.frequent_pairs(5)[:20]]

        service = make_service(config=config, window=window, min_support=5)
        server = make_server(tmp_path, service=service)
        with ServerThread(server) as handle:
            with CharacterizationClient(handle.address) as client:
                with BatchingWriter(client, max_batch=2000) as writer:
                    for record in records:
                        writer.add(BlockIOEvent.from_record(record))
                top = client.query_top(k=20, min_support=5)
        assert client.events_sent == 100_000
        served = [p for p, _count in top]
        assert jaccard(expected, served) >= 0.95
