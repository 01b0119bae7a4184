"""Tests of the benchmark's own helpers.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import os
import shutil
import statistics
import subprocess
import sys
import types

import pytest

from harness import inputs, layers, spans, stats
from harness.inputs import BATCH, EVENT, QUERY, Inputs, Mix
from harness.workloads import drive

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


# -- percentiles with their sample counts ----------------------------------


def test_percentile_is_nearest_rank_with_counts():
    samples = list(range(1, 1001))  # 1..1000
    p99 = stats.percentile(samples, 99)
    assert (p99.value, p99.count, p99.beyond) == (990, 1000, 10)
    p50 = stats.percentile(samples[::-1], 50)
    assert (p50.value, p50.count, p50.beyond) == (500, 1000, 500)


def test_percentile_refuses_a_maximum_in_disguise():
    with pytest.raises(ValueError, match="only 9 beyond"):
        stats.percentile(list(range(999)), 99)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_min_samples_leaves_ten_beyond():
    assert stats.min_samples(99) == 1000
    assert stats.min_samples(50) == 20
    for q in (50, 90, 99):
        n = stats.min_samples(q)
        assert stats.percentile(list(range(n)), q).beyond == 10
        with pytest.raises(ValueError):
            stats.percentile(list(range(n - 1)), q)


def test_quartiles_match_statistics_and_report_spread():
    values = [10.0, 11.0, 12.0, 13.0, 30.0]
    row = stats.quartiles(values)
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert (row["q1"], row["median"], row["q3"]) == (q1, median, q3)
    assert row["spread"] == pytest.approx((q3 - q1) / median)


# -- span self-time arithmetic ----------------------------------------------


def test_self_time_subtracts_children_once():
    recorded = [
        ("r", 1, 0, "service.submit_many", 0.0, 10.0),
        ("r", 2, 1, "monitor.on_events", 1.0, 4.0),
        ("r", 3, 2, "cache.access", 2.0, 3.0),
        ("r", 4, 1, "core.apply.process_transaction_batch", 5.0, 9.0),
    ]
    table = spans.self_times(recorded)
    assert table["service.submit_many"]["self_s"] == pytest.approx(3.0)
    assert table["monitor.on_events"]["self_s"] == pytest.approx(2.0)
    assert table["cache.access"]["self_s"] == pytest.approx(1.0)
    assert table["service.submit_many"]["total_s"] == pytest.approx(10.0)
    by_layer = spans.layer_self_times(table)
    assert by_layer == pytest.approx({"service": 3.0, "monitor": 2.0,
                                      "cache": 1.0, "core.apply": 4.0})
    # Self times partition the outermost span's time.
    assert sum(by_layer.values()) == pytest.approx(10.0)


def test_overlapping_children_are_covered_as_a_union():
    recorded = [
        ("r", 1, 0, "engine.round", 0.0, 10.0),
        ("r", 2, 1, "engine.route_batch", 2.0, 6.0),
        ("r", 3, 1, "core.query.frequent_pairs", 4.0, 8.0),
        ("r", 4, 1, "core.query.kind_summary", 9.0, 12.0),  # clipped
        # Same span id in another run: not a child of run r's span 1.
        ("other", 5, 1, "wal.append", 0.0, 10.0),
    ]
    table = spans.self_times(recorded)
    assert table["engine.round"]["self_s"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_wraps_instances_classes_and_modules():
    module = types.ModuleType("fake_module")
    module.inner = lambda value: value * 2

    class Layer:
        def work(self, value):
            return module.inner(value) + 1

    instance = Layer()
    recorder = spans.SpanRecorder("run-1")
    recorder.install(instance, "work", "service.work")
    recorder.install(module, "inner", "core.apply.inner")
    assert instance.work(3) == 7
    recorder.install(Layer, "work", "monitor.work")
    assert Layer().work(1) == 3
    recorder.uninstall()
    assert "work" not in vars(instance)
    assert Layer.__dict__["work"].__name__ == "work"
    assert instance.work(3) == 7  # untraced again: no more spans
    names = [(span[3], span[2] != 0) for span in recorder.spans]
    assert names == [("core.apply.inner", True), ("service.work", False),
                     ("core.apply.inner", True), ("monitor.work", False)]
    assert all(span[0] == "run-1" for span in recorder.spans)


# -- failure counting --------------------------------------------------------


class _FlakyOps:
    def batch(self, events):
        return len(events) == 2

    def event(self, event):
        if event == "bad":
            raise RuntimeError("refused")
        return True

    def query(self, _unused):
        return False


def test_drive_counts_attempted_and_failed_operations():
    plan = [(BATCH, 0, 2), (EVENT, 2, 1), (EVENT, 3, 1), (QUERY, 4, 0),
            (BATCH, 4, 3)]
    events = ["a", "b", "ok", "bad", "c", "d", "e"]
    result = drive(_FlakyOps(), Inputs(events, plan), seconds=60.0,
                   minimums={})
    assert result.attempted == 5
    assert result.failed == 3  # the raising event, the query, the batch of 3
    assert result.sent == 7 and result.end == 7
    assert result.errors == ["event: RuntimeError: refused"]
    assert [len(result.samples[k]) for k in (BATCH, EVENT, QUERY)] == \
        [2, 2, 1]


def _ticking_clock(monkeypatch):
    """Make the drive loop's clock advance by one second per reading."""
    ticks = iter(range(10**6))
    monkeypatch.setattr("harness.workloads.time.perf_counter",
                        lambda: float(next(ticks)))


def test_drive_runs_past_the_deadline_until_minimums_are_met(monkeypatch):
    _ticking_clock(monkeypatch)
    plan = [(EVENT, index, 1) for index in range(50)]
    # Three clock readings per call: the deadline (10 s) passes during the
    # fourth call, the fifth call meets the minimum.
    result = drive(_FlakyOps(), Inputs(["ok"] * 50, plan), seconds=10.0,
                   minimums={EVENT: 5})
    assert result.attempted == 5


def test_drive_gives_up_at_the_hard_stop(monkeypatch):
    _ticking_clock(monkeypatch)
    plan = [(EVENT, index, 1) for index in range(50)]
    result = drive(_FlakyOps(), Inputs(["ok"] * 50, plan), seconds=10.0,
                   minimums={EVENT: 100})
    assert result.attempted == 10  # the 11th call would start at 31 s


# -- inputs ------------------------------------------------------------------


def test_one_seed_gives_byte_identical_inputs():
    mix = Mix(query_every=4)
    first = inputs.make_inputs("hm", 600, mix, seed=3)
    second = inputs.make_inputs("hm", 600, mix, seed=3)
    other = inputs.make_inputs("hm", 600, mix, seed=4)
    assert inputs.digest(first) == inputs.digest(second)
    assert first.events == second.events and first.plan == second.plan
    assert inputs.digest(first) != inputs.digest(other)
    # A fixed model instance: the seed picks the window, reproducibly.
    windows = [inputs.make_inputs("hm", 300, mix, seed, model_seed=1)
               for seed in (3, 3, 4)]
    assert inputs.digest(windows[0]) == inputs.digest(windows[1])
    assert inputs.digest(windows[0]) != inputs.digest(windows[2])
    assert len(windows[0].events) == 300


def test_plan_covers_events_in_order():
    mix = Mix(query_every=3, batch=10)
    plan = inputs.make_plan(list(range(105)), mix, seed=1)
    position = 0
    for kind, first, count in plan:
        assert first == position
        assert count == {BATCH: 10, EVENT: 1, QUERY: 0}[kind]
        position += count
    assert 105 - 11 < position <= 105
    kinds = [kind for kind, _first, _count in plan]
    # Every batch is followed by one single event; one query per 3 batches.
    assert kinds.count(BATCH) == kinds.count(EVENT) == 9
    assert kinds.count(QUERY) == 3
    assert all(kinds[i + 1] == EVENT for i, kind in enumerate(kinds)
               if kind == BATCH)


def _at(*timestamps):
    return [types.SimpleNamespace(timestamp=t) for t in timestamps]


def test_writer_batch_closes_on_age_or_count():
    # The event 0.25 s after the first still joins the frame, then it
    # flushes; the age counts from the frame's first event.
    events = _at(0.0, 0.1, 0.2, 0.25, 0.3, 0.6)
    assert inputs.writer_batch(events, 0) == 4
    assert inputs.writer_batch(events, 4) == 2
    assert inputs.writer_batch(events, 5) == 1  # the stream ends
    dense = _at(*[i * 1e-6 for i in range(inputs.WRITER_MAX_BATCH + 5)])
    assert inputs.writer_batch(dense, 0) == inputs.WRITER_MAX_BATCH


# -- exported counters -------------------------------------------------------


def test_prometheus_text_is_parsed_and_summed_by_label():
    text = "\n".join([
        "# HELP repro_synopsis_misses_total Lookups that missed",
        "# TYPE repro_synopsis_misses_total counter",
        'repro_synopsis_misses_total{table="correlations",shard="0"} 9',
        'repro_synopsis_misses_total{table="correlations",shard="1"} 3',
        'repro_synopsis_misses_total{table="items",shard=""} 100',
        'repro_server_frame_latency_seconds_sum{type="BATCH",'
        'tenant="a \\"b\\""} 1.5e-1',
        "repro_wal_bytes 4096",
    ])
    samples = layers.parse_prometheus(text)
    assert layers.metric_sum(samples, "repro_synopsis_misses_total",
                             table="correlations") == 12
    assert layers.metric_sum(samples, "repro_synopsis_misses_total") == 112
    assert layers.metric_sum(samples, "repro_wal_bytes") == 4096
    name, labels, value = samples[3]
    assert labels == {"type": "BATCH", "tenant": 'a "b"'} and value == 0.15


# -- the command itself ------------------------------------------------------


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-hm",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items()
             if key != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "not a checkout" in proc.stderr
