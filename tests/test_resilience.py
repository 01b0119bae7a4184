"""The fault-injection suite: the service must survive messy reality.

Drives the stack with the deterministic fault harness from
:mod:`repro.resilience.faults` and pins the acceptance bounds of the
resilience layer: lenient ingestion under corrupt trace rows, frequent-pair
recall under dropped/duplicated/reordered/corrupted events, CRC rejection
of bit-flipped checkpoints, atomic checkpoint writes, and sink/observer
quarantine.
"""

import io
import os
import struct

import pytest

import repro.engine.checkpoint as checkpoint_module
from repro.core.config import AnalyzerConfig
from repro.core.serialize import (
    CheckpointCorruptError,
    dumps_analyzer,
    load_checkpoint,
    loads_analyzer,
    save_checkpoint,
)
from repro.monitor.events import BlockIOEvent
from repro.monitor.monitor import ClockPolicy, Monitor, TransactionRecorder
from repro.monitor.window import StaticWindow, WindowPolicy
from repro.resilience import (
    DeadLetterBuffer,
    ErrorPolicy,
    FaultInjector,
    FaultSpec,
    IngestReport,
    ResilientCharacterizationService,
    RowError,
    SimulatedCrash,
    SinkGuard,
    corrupt_msr_csv,
    crash_before_rename,
    flip_bits,
)
from repro.service import CharacterizationService
from repro.trace.io import read_msr_csv, write_msr_csv
from repro.trace.record import OpType
from repro.workloads.enterprise import generate_named

from conftest import ext


def event(ts, start=0, length=8, op=OpType.READ):
    return BlockIOEvent(ts, 1, op, start, length)


def workload_events(requests=6000, seed=7):
    records, _truth = generate_named("wdev", requests=requests, seed=seed)
    return [BlockIOEvent.from_record(record) for record in records]


def service_kwargs():
    return dict(
        config=AnalyzerConfig(item_capacity=4096,
                              correlation_capacity=4096),
        window=StaticWindow(1e-3),
        min_support=5,
        snapshot_interval=500,
    )


def frequent_set(service, min_support=None):
    if min_support is None:
        return {pair for pair, _tally in service.snapshot().frequent_pairs}
    return {
        pair for pair, _tally in service.analyzer.frequent_pairs(min_support)
    }


# ---------------------------------------------------------------------------
# Fault harness
# ---------------------------------------------------------------------------

class TestFaultInjector:
    def test_deterministic_for_same_seed(self):
        events = workload_events(requests=800)
        spec = FaultSpec(drop=0.05, duplicate=0.03, reorder=0.04,
                         corrupt=0.05, seed=11)
        first = list(FaultInjector(spec).inject(events))
        second = list(FaultInjector(spec).inject(events))
        assert first == second

    def test_different_seeds_differ(self):
        events = workload_events(requests=800)
        base = FaultSpec(drop=0.05, duplicate=0.03, corrupt=0.05, seed=1)
        a = list(FaultInjector(base).inject(events))
        b = list(FaultInjector(FaultSpec(drop=0.05, duplicate=0.03,
                                         corrupt=0.05, seed=2)).inject(events))
        assert a != b

    def test_counters_add_up(self):
        events = workload_events(requests=2000)
        injector = FaultInjector(FaultSpec(drop=0.1, duplicate=0.05, seed=3))
        out = list(injector.inject(events))
        counters = injector.counters
        assert counters.events_in == len(events)
        assert counters.events_out == len(out)
        assert (counters.events_out
                == counters.events_in - counters.dropped + counters.duplicated)
        assert counters.dropped > 0 and counters.duplicated > 0

    def test_reorder_preserves_multiset(self):
        events = workload_events(requests=1000)
        injector = FaultInjector(FaultSpec(reorder=0.2, seed=5))
        out = list(injector.inject(events))
        assert sorted(out, key=lambda e: (e.timestamp, e.start)) == \
            sorted(events, key=lambda e: (e.timestamp, e.start))
        assert out != events
        assert injector.counters.reordered > 0

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(drop=1.5)
        with pytest.raises(ValueError):
            FaultSpec(corrupt=-0.1)

    def test_flip_bits_deterministic_and_minimal(self):
        data = bytes(range(256))
        flipped = flip_bits(data, flips=3, seed=9)
        assert flipped != data
        assert flipped == flip_bits(data, flips=3, seed=9)
        differing_bits = sum(
            bin(a ^ b).count("1") for a, b in zip(data, flipped)
        )
        assert differing_bits == 3


# ---------------------------------------------------------------------------
# Lenient ingestion
# ---------------------------------------------------------------------------

class TestLenientIngestion:
    def make_csv(self, requests=2000, seed=13):
        records, _truth = generate_named("rsrch", requests=requests,
                                         seed=seed)
        stream = io.StringIO()
        write_msr_csv(records, stream)
        return stream.getvalue(), len(records)

    def test_strict_dies_lenient_survives(self):
        text, total = self.make_csv()
        corrupted, n_bad = corrupt_msr_csv(text, fraction=0.06, seed=21)
        assert n_bad >= total * 0.05
        with pytest.raises(ValueError):
            list(read_msr_csv(io.StringIO(corrupted)))
        report = IngestReport()
        records = list(read_msr_csv(io.StringIO(corrupted),
                                    policy=ErrorPolicy.LENIENT,
                                    report=report))
        assert report.rows_bad == n_bad
        assert report.rows_ok == len(records) == total - n_bad
        assert report.rows_total == total
        assert report.dead_letters is None  # lenient does not quarantine

    def test_quarantine_samples_dead_letters(self):
        text, total = self.make_csv()
        corrupted, n_bad = corrupt_msr_csv(text, fraction=0.1, seed=22)
        report = IngestReport()
        list(read_msr_csv(io.StringIO(corrupted),
                          policy=ErrorPolicy.QUARANTINE, report=report))
        assert report.rows_bad == n_bad
        letters = report.dead_letters
        assert letters is not None
        assert letters.total == n_bad
        assert 0 < len(letters) <= letters.capacity
        for row_error in letters.rows():
            assert row_error.error
            assert row_error.line_number >= 1

    def test_dead_letter_buffer_bounded_reservoir(self):
        buffer = DeadLetterBuffer(capacity=8, seed=1)
        for index in range(1000):
            buffer.offer(RowError(index, f"row{index}", "bad"))
        assert len(buffer) == 8
        assert buffer.total == 1000
        # Reservoir property: retained rows are not simply the first 8.
        assert any(error.line_number >= 8 for error in buffer.rows())

    def test_corruption_is_deterministic(self):
        text, _total = self.make_csv()
        first = corrupt_msr_csv(text, fraction=0.05, seed=33)
        second = corrupt_msr_csv(text, fraction=0.05, seed=33)
        assert first == second


# ---------------------------------------------------------------------------
# End-to-end accuracy under injected faults (acceptance bound)
# ---------------------------------------------------------------------------

class TestAccuracyUnderFaults:
    def test_recall_under_faults(self):
        """>=5% corrupt rows plus >=2% reordered/duplicated events: the
        service finishes, counts faults accurately, and keeps >=0.9 recall
        of the clean run's frequent pairs."""
        records, _truth = generate_named("wdev", requests=8000, seed=17)

        clean = ResilientCharacterizationService(**service_kwargs())
        clean.submit_many(BlockIOEvent.from_record(r) for r in records)
        clean.flush()
        # The reference set is the clean run's *robustly* frequent pairs
        # (2x the support threshold): a pair whose clean tally sits exactly
        # at the threshold is demoted by losing a single occurrence, so
        # any 5% data loss necessarily sheds some of those -- that is a
        # property of threshold queries, not of the resilience layer.
        min_support = clean.min_support
        clean_pairs = frequent_set(clean, min_support=2 * min_support)
        clean_pairs_at_threshold = frequent_set(clean)
        assert len(clean_pairs) >= 5  # the workload must plant signal

        # Stage 1: the trace file itself has >=5% corrupt rows.
        stream = io.StringIO()
        write_msr_csv(records, stream)
        corrupted_text, n_bad = corrupt_msr_csv(stream.getvalue(),
                                                fraction=0.05, seed=41)
        assert n_bad >= len(records) * 0.05
        report = IngestReport()
        surviving = list(read_msr_csv(io.StringIO(corrupted_text),
                                      policy=ErrorPolicy.QUARANTINE,
                                      report=report))
        assert report.rows_bad == n_bad

        # Stage 2: the event stream is reordered/duplicated/dropped.
        spec = FaultSpec(duplicate=0.01, reorder=0.02, drop=0.005, seed=43)
        injector = FaultInjector(spec)
        faulty = ResilientCharacterizationService(**service_kwargs())
        faulty.submit_many(injector.inject(
            BlockIOEvent.from_record(r) for r in surviving
        ))
        faulty.flush()

        counters = injector.counters
        assert counters.reordered + counters.duplicated \
            >= 0.02 * counters.events_in
        assert counters.events_out \
            == counters.events_in - counters.dropped + counters.duplicated
        assert faulty.monitor.stats.events_seen == counters.events_out
        # Reordered delivery must be visible in the monitor's counters.
        assert faulty.monitor.stats.clock_anomalies > 0

        faulty_pairs = frequent_set(faulty)
        recall = len(clean_pairs & faulty_pairs) / len(clean_pairs)
        assert recall >= 0.9, (
            f"recall {recall:.3f} under faults "
            f"({len(clean_pairs)} clean pairs, {len(faulty_pairs)} faulty)"
        )
        # Borderline pairs (tally at exactly the threshold) may legitimately
        # fall below it when ~5% of their occurrences are destroyed, but the
        # bulk of the threshold set must still survive.
        threshold_recall = (
            len(clean_pairs_at_threshold & faulty_pairs)
            / len(clean_pairs_at_threshold)
        )
        assert threshold_recall >= 0.75, (
            f"same-threshold recall {threshold_recall:.3f} under faults"
        )


# ---------------------------------------------------------------------------
# Checkpoint integrity
# ---------------------------------------------------------------------------

def trained_service():
    service = ResilientCharacterizationService(
        max_io_retries=2, backoff_base=1e-6, sleep=lambda _s: None,
        **service_kwargs(),
    )
    clock = 0.0
    for _round in range(20):
        service.submit(event(clock, 100))
        service.submit(event(clock + 1e-5, 9000, length=16))
        clock += 0.05
    service.flush()
    return service


class TestCheckpointIntegrity:
    def test_bit_flip_rejected(self):
        service = trained_service()
        buffer = io.BytesIO()
        service.checkpoint(buffer)
        data = buffer.getvalue()
        # Flip a payload bit (past the 6-byte magic + 8-byte envelope).
        header_bytes = 14
        for seed in range(5):
            flipped = data[:header_bytes] + flip_bits(
                data[header_bytes:], flips=1, seed=seed
            )
            with pytest.raises(CheckpointCorruptError):
                loads_analyzer(flipped)

    def test_truncation_rejected(self):
        service = trained_service()
        buffer = io.BytesIO()
        service.checkpoint(buffer)
        with pytest.raises(CheckpointCorruptError):
            loads_analyzer(buffer.getvalue()[:-7])

    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointCorruptError, match="magic"):
            loads_analyzer(b"GARBAGEGARBAGEGARBAGE")

    def test_clean_roundtrip_still_works(self, tmp_path):
        service = trained_service()
        path = tmp_path / "synopsis.ckpt"
        service.checkpoint_to(path)
        restored = ResilientCharacterizationService(
            sleep=lambda _s: None, **service_kwargs()
        )
        assert restored.restore_from(path) is True
        assert restored.health().ok
        assert frequent_set(restored) == frequent_set(service)

    def test_corrupt_file_falls_back_fresh_and_degraded(self, tmp_path):
        service = trained_service()
        path = tmp_path / "synopsis.ckpt"
        service.checkpoint_to(path)
        data = path.read_bytes()
        path.write_bytes(data[:20] + flip_bits(data[20:], flips=4, seed=3))

        victim = ResilientCharacterizationService(
            sleep=lambda _s: None, **service_kwargs()
        )
        assert victim.restore_from(path) is False
        health = victim.health()
        assert health.status == "degraded"
        assert health.restore_failures == 1
        assert any("corrupt" in reason for reason in health.reasons)
        # Degraded, not dead: the service keeps serving with a fresh table.
        assert frequent_set(victim) == set()
        clock = 0.0
        for _round in range(10):
            victim.submit(event(clock, 5))
            victim.submit(event(clock + 1e-5, 77))
            clock += 0.05
        victim.flush()
        assert len(frequent_set(victim)) >= 1

    def test_inconsistent_legacy_file_falls_back_fresh(self, tmp_path):
        """A v1 file (no CRC) listing one pair twice in T1 is corrupt:
        the restore degrades instead of raising out of the table."""
        path = tmp_path / "synopsis.ckpt"
        path.write_bytes(b"".join([
            b"RTSYN\x01",
            struct.pack("<IIIIIIIII", 8, 8, 8, 8, 2, 0, 0, 2, 0),
            struct.pack("<QIQII", 1, 8, 9, 8, 1),
            struct.pack("<QIQII", 1, 8, 9, 8, 1),
        ]))
        victim = ResilientCharacterizationService(
            sleep=lambda _s: None, **service_kwargs()
        )
        assert victim.restore_from(path) is False
        health = victim.health()
        assert health.status == "degraded"
        assert any("corrupt" in reason for reason in health.reasons)
        assert frequent_set(victim) == set()

    def test_missing_file_falls_back_fresh(self, tmp_path):
        victim = ResilientCharacterizationService(
            max_io_retries=1, backoff_base=1e-6, sleep=lambda _s: None,
            **service_kwargs(),
        )
        assert victim.restore_from(tmp_path / "nope.ckpt") is False
        assert victim.health().status == "degraded"

    def test_v1_checkpoint_still_loads(self):
        """Legacy (pre-CRC) checkpoints must remain readable."""
        service = trained_service()
        data = dumps_analyzer(service.analyzer)
        magic2 = b"RTSYN\x02"
        assert data[:6] == magic2
        payload = data[6 + 8:]
        legacy = b"RTSYN\x01" + payload
        restored = loads_analyzer(legacy)
        assert restored.pair_frequencies() \
            == service.analyzer.pair_frequencies()


class TestAtomicCheckpoint:
    def test_crash_mid_write_preserves_previous(self, tmp_path, monkeypatch):
        service = trained_service()
        path = tmp_path / "synopsis.ckpt"
        service.checkpoint_to(path)
        good = path.read_bytes()

        def exploding_dump(analyzer, stream):
            stream.write(b"RTSYN\x02partial")
            raise OSError("disk full")

        monkeypatch.setattr(checkpoint_module, "dump_analyzer",
                            exploding_dump)
        crashing = ResilientCharacterizationService(
            max_io_retries=1, backoff_base=1e-6, sleep=lambda _s: None,
            **service_kwargs(),
        )
        with pytest.raises(OSError):
            crashing.checkpoint_to(path)
        assert crashing.health().status == "degraded"
        assert crashing.health().checkpoint_failures == 1
        # The previous checkpoint is untouched and loadable.
        assert path.read_bytes() == good
        load_checkpoint(path)
        # No temp litter.
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_transient_failure_retried(self, tmp_path, monkeypatch):
        service = trained_service()
        path = tmp_path / "synopsis.ckpt"
        real_save = checkpoint_module.save_engine_checkpoint
        attempts = {"n": 0}

        def flaky_save(analyzer, target):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise OSError("transient")
            return real_save(analyzer, target)

        import repro.resilience.service as resilient_module
        monkeypatch.setattr(resilient_module, "save_engine_checkpoint",
                            flaky_save)
        written = service.checkpoint_to(path)
        assert written > 0
        assert attempts["n"] == 3
        assert service.health().checkpoint_retries == 2
        assert service.health().checkpoint_failures == 0
        load_checkpoint(path)

    def test_save_checkpoint_is_atomic_at_the_file_level(self, tmp_path):
        service = trained_service()
        path = tmp_path / "synopsis.ckpt"
        save_checkpoint(service.analyzer, path)
        first = path.read_bytes()
        service.submit(event(1000.0, 31337))
        service.flush()
        save_checkpoint(service.analyzer, path)
        assert path.read_bytes() != first
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


# ---------------------------------------------------------------------------
# Sink and observer isolation
# ---------------------------------------------------------------------------

class TestSinkIsolation:
    def test_guard_counts_and_quarantines(self):
        failures = {"n": 0}

        def bad_sink(_txn):
            failures["n"] += 1
            raise RuntimeError("boom")

        guard = SinkGuard(bad_sink, failure_limit=3)
        for _ in range(10):
            guard("payload")
        assert failures["n"] == 3          # stopped being invoked
        assert guard.quarantined
        assert guard.failures == 3
        assert guard.suppressed == 7
        assert "boom" in guard.last_error

    def test_intermittent_failures_do_not_quarantine(self):
        calls = {"n": 0}

        def flaky(_txn):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise RuntimeError("sometimes")

        guard = SinkGuard(flaky, failure_limit=3)
        for _ in range(20):
            guard("payload")
        assert not guard.quarantined
        assert guard.failures == 10

    def test_monitor_survives_crashing_sink(self):
        recorder = TransactionRecorder()
        guard = SinkGuard(lambda txn: 1 / 0, failure_limit=2)
        monitor = Monitor(window=StaticWindow(1e-3),
                          sinks=[guard, recorder])
        for i in range(50):
            monitor.on_event(event(i * 0.01, start=i))
        monitor.flush()
        assert len(recorder) == 50          # the healthy sink saw everything
        assert guard.quarantined

    def test_service_quarantines_bad_observer_keeps_good_one(self):
        service = ResilientCharacterizationService(
            observer_failure_limit=2, sleep=lambda _s: None,
            **dict(service_kwargs(), snapshot_interval=5),
        )
        seen = []
        service.observe(lambda snap: (_ for _ in ()).throw(
            RuntimeError("bad observer")))
        service.observe(seen.append)

        clock = 0.0
        for _round in range(30):
            service.submit(event(clock, 100))
            service.submit(event(clock + 1e-5, 9000))
            clock += 0.05
        service.flush()

        assert seen, "healthy observer must keep receiving snapshots"
        health = service.health()
        assert health.status == "degraded"
        assert health.quarantined_observers == 1
        assert health.observer_failures == 2
        assert any("quarantined" in reason for reason in health.reasons)
        # Ingestion never stopped.
        assert service.monitor.stats.events_seen == 60

    def test_clear_degraded_recovers(self):
        service = ResilientCharacterizationService(
            observer_failure_limit=1, sleep=lambda _s: None,
            **dict(service_kwargs(), snapshot_interval=1),
        )
        guard = service.observe(lambda snap: 1 / 0)
        service.submit(event(0.0, 1))
        service.flush()
        assert service.health().status == "degraded"
        service.clear_degraded()
        assert service.health().status == "ok"
        assert not guard.quarantined


# ---------------------------------------------------------------------------
# Clock-anomaly policies
# ---------------------------------------------------------------------------

class TestClockPolicies:
    def run_monitor(self, policy, timestamps, window=1e-3, **kwargs):
        recorder = TransactionRecorder()
        monitor = Monitor(window=StaticWindow(window), sinks=[recorder],
                          clock_policy=policy, **kwargs)
        for index, ts in enumerate(timestamps):
            monitor.on_event(event(ts, start=index))
        monitor.flush()
        return monitor, recorder

    def test_drop_policy_discards_backwards_events(self):
        monitor, recorder = self.run_monitor(
            ClockPolicy.DROP, [0.0, 1e-4, 5e-5, 2e-4]
        )
        delivered = sum(len(txn) for txn in recorder.transactions)
        assert delivered == 3
        assert monitor.stats.clock_anomalies == 1
        assert monitor.stats.events_dropped == 1

    def test_reorder_policy_folds_jitter_into_transaction(self):
        monitor, recorder = self.run_monitor(
            ClockPolicy.REORDER, [0.0, 5e-4, 3e-4, 7e-4]
        )
        assert len(recorder) == 1
        assert len(recorder.transactions[0]) == 4
        assert monitor.stats.events_reordered == 1
        assert monitor.stats.window_resets == 0

    def test_reorder_policy_escalates_large_jump_to_reset(self):
        monitor, recorder = self.run_monitor(
            ClockPolicy.REORDER, [100.0, 100.0001, 0.0, 0.0001]
        )
        assert len(recorder) == 2
        assert monitor.stats.window_resets == 1
        # After the reset the monitor lives in the new clock domain.
        assert [e.start for e in recorder.transactions[1].events] == [2, 3]

    def test_reset_policy_always_flushes(self):
        monitor, recorder = self.run_monitor(
            ClockPolicy.RESET, [0.0, 5e-4, 3e-4]
        )
        assert len(recorder) == 2
        assert monitor.stats.window_resets == 1

    def test_tolerate_matches_legacy_behaviour(self):
        monitor, recorder = self.run_monitor(
            ClockPolicy.TOLERATE, [100.0, 0.0]
        )
        assert len(recorder) == 1           # the historical silent merge
        assert monitor.stats.clock_anomalies == 1  # detected, not acted on

    def test_reordered_event_does_not_shrink_the_window(self):
        monitor, recorder = self.run_monitor(
            ClockPolicy.REORDER, [0.0, 5e-4, 3e-4, 1.4e-3]
        )
        # The gap anchor is the transaction's max timestamp (5e-4), not
        # the folded stale one (3e-4): 1.4e-3 is within one window.
        assert len(recorder) == 1

    def test_explicit_skew_bound(self):
        monitor, recorder = self.run_monitor(
            ClockPolicy.REORDER, [0.0, 1e-3, 0.5e-3],
            max_clock_skew=1e-4,
        )
        # Skew 0.5e-3 exceeds the explicit 1e-4 bound -> reset.
        assert monitor.stats.window_resets == 1


class NastyWindow(WindowPolicy):
    """A window policy that returns a degenerate duration."""

    def __init__(self, value):
        self.value = value

    def duration(self):
        return self.value


class TestWindowGuards:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_degenerate_window_clamped(self, bad):
        recorder = TransactionRecorder()
        monitor = Monitor(window=NastyWindow(bad), sinks=[recorder])
        for i in range(4):
            monitor.on_event(event(i * 1e-3, start=i))
        monitor.flush()
        delivered = sum(len(txn) for txn in recorder.transactions)
        assert delivered == 4               # nothing lost
        assert len(recorder) == 4           # zero window: one txn per event
        assert monitor.stats.window_clamps > 0

    def test_zero_window_keeps_simultaneous_events_together(self):
        recorder = TransactionRecorder()
        monitor = Monitor(window=NastyWindow(0.0), sinks=[recorder])
        for i in range(3):
            monitor.on_event(event(1.0, start=i))
        monitor.flush()
        assert len(recorder) == 1
        assert len(recorder.transactions[0]) == 3


# ---------------------------------------------------------------------------
# Restores keep the engine's shape
# ---------------------------------------------------------------------------

class TestRestoreKeepsEngineShape:
    def test_restore_from_adopts_into_fleet_and_fallback_resets_it(
            self, tmp_path):
        """``restore_from`` on a process-sharded service adopts into the
        live worker fleet (same engine, same worker PIDs) instead of
        swapping in an in-process engine, and a corrupt checkpoint resets
        that same engine, so backend and shard count survive the
        fallback."""
        config = AnalyzerConfig(item_capacity=4096,
                                correlation_capacity=4096, backend="cms")
        service = ResilientCharacterizationService(
            shards=2, shard_processes=True, sleep=lambda _s: None,
            **dict(service_kwargs(), config=config),
        )
        path = tmp_path / "procs.ckpt"
        try:
            service.submit_many(workload_events(requests=3000))
            service.checkpoint_to(path)
            expected = frequent_set(service)
            assert expected
            engine = service.analyzer
            pids = [proc.pid for proc in engine._procs]
            engine.reset()

            assert service.restore_from(path) is True
            assert service.analyzer is engine
            assert [proc.pid for proc in engine._procs] == pids
            assert all(engine.workers_alive())
            assert frequent_set(service) == expected
            assert service.health().ok

            path.write_bytes(b"\x00" + path.read_bytes()[1:])
            assert service.restore_from(path) is False
            assert service.analyzer is engine
            assert engine.backend_name == "cms"
            assert service.shards == engine.shards == 2
            assert frequent_set(service) == set()
            assert service.health().status == "degraded"
        finally:
            service.release()


# ---------------------------------------------------------------------------
# Crash injection: the pre-rename window
# ---------------------------------------------------------------------------

class TestCrashBeforeRename:
    """A crash between "temp file fsynced" and "rename issued" is the
    narrowest window a checkpoint writer exposes; in it, the previous
    checkpoint must remain untouched and loadable."""

    def test_v2_previous_checkpoint_survives(self, tmp_path):
        service = trained_service()
        path = tmp_path / "synopsis.ckpt"
        save_checkpoint(service.analyzer, path)
        good = path.read_bytes()

        service.submit(event(1000.0, 31337))
        service.flush()
        with crash_before_rename() as calls:
            with pytest.raises(SimulatedCrash):
                save_checkpoint(service.analyzer, path)
        assert calls[0] == 1
        assert path.read_bytes() == good
        load_checkpoint(path)
        # The aborted temp file was cleaned up.
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_v3_previous_checkpoint_survives(self, tmp_path):
        from repro.engine.checkpoint import (
            load_engine_checkpoint,
            save_engine_checkpoint,
        )
        service = ResilientCharacterizationService(
            shards=4, **service_kwargs()
        )
        clock = 0.0
        for _round in range(20):
            service.submit(event(clock, 100))
            service.submit(event(clock + 1e-5, 9000, length=16))
            clock += 0.05
        service.flush()
        path = tmp_path / "engine.ckpt"
        save_engine_checkpoint(service.analyzer, path)
        good = path.read_bytes()

        with crash_before_rename():
            with pytest.raises(SimulatedCrash):
                save_engine_checkpoint(service.analyzer, path)
        assert path.read_bytes() == good
        loaded = load_engine_checkpoint(path)
        assert loaded.corrupt_shards == []
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_checkpoint_to_handles_process_sharded_engine(self, tmp_path):
        """``checkpoint_to`` must take the sharded (v4) writer for a
        process-backed engine, which has no ``.items`` for the
        single-analyzer v2 writer."""
        from repro.engine.checkpoint import load_engine_checkpoint
        service = ResilientCharacterizationService(
            shards=2, shard_processes=True, **service_kwargs()
        )
        path = tmp_path / "procs.ckpt"
        try:
            clock = 0.0
            for _round in range(20):
                service.submit(event(clock, 100))
                service.submit(event(clock + 1e-5, 9000, length=16))
                clock += 0.05
            service.flush()
            service.checkpoint_to(path)
        finally:
            service.release()
        loaded = load_engine_checkpoint(path)
        assert loaded.corrupt_shards == []
        assert loaded.engine.shards == 2

    def test_after_writes_lets_earlier_saves_through(self, tmp_path):
        service = trained_service()
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        with crash_before_rename(after_writes=1) as calls:
            save_checkpoint(service.analyzer, first)  # save 1: allowed
            with pytest.raises(SimulatedCrash):
                save_checkpoint(service.analyzer, second)  # save 2: crash
        assert calls[0] == 2
        load_checkpoint(first)
        assert not second.exists()

    def test_crash_is_not_swallowed_by_checkpoint_retries(self, tmp_path):
        """The resilient service retries transient OSErrors; a simulated
        crash must rip straight through that machinery, exactly like a
        real one would."""
        service = trained_service()
        path = tmp_path / "synopsis.ckpt"
        service.checkpoint_to(path)
        good = path.read_bytes()
        with crash_before_rename():
            with pytest.raises(SimulatedCrash):
                service.checkpoint_to(path)
        # Not retried, not recorded as an I/O failure -- the process
        # would simply be gone.
        assert service.health().checkpoint_failures == 0
        assert path.read_bytes() == good

    def test_hook_is_restored_on_exit(self, tmp_path):
        service = trained_service()
        path = tmp_path / "synopsis.ckpt"
        with crash_before_rename():
            pass
        save_checkpoint(service.analyzer, path)  # hook gone: no crash
        load_checkpoint(path)

    def test_negative_after_writes_rejected(self):
        with pytest.raises(ValueError, match="after_writes"):
            with crash_before_rename(after_writes=-1):
                pass


# ---------------------------------------------------------------------------
# Dead-letter buffer: byte bound and quarantine dump
# ---------------------------------------------------------------------------

def letter(n, size=10):
    return RowError(line_number=n, row="x" * size, error=f"bad row {n}")


class TestDeadLetterBufferBytes:
    def test_byte_budget_evicts_oldest_first(self):
        buffer = DeadLetterBuffer(capacity=1000, max_bytes=100)
        for n in range(20):  # 20 * 10 bytes, budget holds 10 rows
            buffer.offer(letter(n))
        assert buffer.retained_bytes <= 100
        kept = [row.line_number for row in buffer.rows()]
        assert kept == list(range(10, 20))  # newest survive
        assert buffer.total == 20

    def test_oversized_row_retained_truncated(self):
        buffer = DeadLetterBuffer(capacity=8, max_bytes=64)
        buffer.offer(letter(1, size=10_000))
        assert len(buffer) == 1
        row = buffer.rows()[0]
        assert len(row.row.encode()) <= 64
        assert row.error.endswith("[row truncated]")
        assert buffer.retained_bytes <= 64

    def test_big_row_pushes_out_small_ones(self):
        buffer = DeadLetterBuffer(capacity=100, max_bytes=50)
        for n in range(4):
            buffer.offer(letter(n))           # 40 bytes resident
        buffer.offer(letter(99, size=30))     # needs 20 evicted
        kept = [row.line_number for row in buffer.rows()]
        assert kept == [2, 3, 99]
        assert buffer.retained_bytes == 50

    def test_accounting_matches_contents(self):
        buffer = DeadLetterBuffer(capacity=4, max_bytes=1 << 20, seed=3)
        for n in range(50):                   # exercise reservoir swaps
            buffer.offer(letter(n, size=5 + n % 7))
        assert buffer.retained_bytes == sum(
            len(row.row.encode()) for row in buffer.rows()
        )
        assert len(buffer) == 4

    def test_dump_ndjson_roundtrips(self, tmp_path):
        import json as json_module
        buffer = DeadLetterBuffer(capacity=16)
        for n in range(3):
            buffer.offer(letter(n))
        path = tmp_path / "quarantine.ndjson"
        assert buffer.dump_ndjson(path) == 3
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        parsed = [json_module.loads(line) for line in lines]
        assert [entry["line_number"] for entry in parsed] == [0, 1, 2]
        assert all(set(entry) == {"line_number", "error", "row"}
                   for entry in parsed)

    def test_invalid_max_bytes_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            DeadLetterBuffer(max_bytes=0)
