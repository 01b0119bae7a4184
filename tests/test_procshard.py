"""Shard-per-process execution: identity, queries, lifecycle, crash safety.

The contract under test (ISSUE 7):

* the worker fleet produces *byte-identical* per-shard synopses to an
  in-process reference applying the same routed work (``route_batch`` +
  the backend's ``apply_shard_work`` + the cross-shard demote broadcast)
  -- the shard semantics live in one backend method shared by both sides;
* merged queries (frequent pairs/extents, kinds, type tallies, partners,
  report, occupancy) equal merging the reference shards;
* checkpoint v4 round-trips through the ``shard_backends`` seam, and
  ``adopt_backends`` restores learned state into a live fleet;
* a SIGKILL'd worker surfaces as :class:`ShardWorkerError` (plus a
  telemetry death count) instead of hanging the caller, and ``close``
  still shuts the engine down afterwards.
"""

import io
import os
import random
import signal
import threading
import time

import pytest

from repro.core.config import AnalyzerConfig
from repro.core.extent import Extent
from repro.engine import TwoTierBackend, shard_config
from repro.engine.checkpoint import dump_engine, load_engine
from repro.engine.procshard import (
    ProcessShardedAnalyzer,
    ShardWorkerError,
    route_batch,
)
from repro.monitor.batch import TransactionBatch
from repro.monitor.events import BlockIOEvent
from repro.monitor.transaction import Transaction
from repro.telemetry import NULL_REGISTRY
from repro.trace.record import OpType

SHARDS = 3
CONFIG = AnalyzerConfig(item_capacity=64, correlation_capacity=128)


def make_transactions(seed, count=1500, population=300):
    rng = random.Random(seed)
    out, now = [], 0.0
    for _ in range(count):
        events = []
        for _ in range(rng.randint(1, 8)):
            now += 1e-6
            events.append(BlockIOEvent(
                now, 1, rng.choice([OpType.READ, OpType.WRITE]),
                rng.randint(0, population), rng.randint(1, 4),
            ))
        out.append(Transaction(events))
    return out


def make_batches(seed=3, count=1500, chunk=100):
    transactions = make_transactions(seed, count)
    return [
        TransactionBatch.from_transactions(transactions[i:i + chunk])
        for i in range(0, count, chunk)
    ]


def reference_shards(batches, shards=SHARDS, config=CONFIG):
    """Apply the routed work in-process: the identity oracle."""
    per_shard = shard_config(config, shards)
    backends = [TwoTierBackend(per_shard) for _ in range(shards)]
    for batch in batches:
        work = route_batch(batch, shards)
        evicted_by = [
            backends[i].apply_shard_work(*item_work, *pair_work)
            for i, (item_work, pair_work) in enumerate(work)
        ]
        for origin, evicted in enumerate(evicted_by):
            for start, length in evicted:
                for i in range(shards):
                    if i != origin:
                        backends[i].demote_item(Extent(start, length))
    return [backend.analyzer for backend in backends]


def merged_pairs(analyzers, min_support=1):
    merged = []
    for analyzer in analyzers:
        merged.extend(analyzer.frequent_pairs(min_support))
    merged.sort(key=lambda entry: (-entry[1], entry[0]))
    return merged


def types_of(analyzer):
    return {pair: (tally.read, tally.write, tally.mixed)
            for pair, tally in analyzer._types.items()}


@pytest.fixture(scope="module")
def batches():
    return make_batches()


@pytest.fixture(scope="module")
def reference(batches):
    return reference_shards(batches)


@pytest.fixture(scope="module")
def engine(batches):
    engine = ProcessShardedAnalyzer(CONFIG, shards=SHARDS,
                                    registry=NULL_REGISTRY)
    for batch in batches:
        engine.process_transaction_batch(batch)
    yield engine
    engine.close()


def test_workers_match_in_process_reference(engine, reference):
    shards = [backend.analyzer for backend in engine.shard_backends]
    for i in range(SHARDS):
        assert shards[i].items.stats.as_dict() == \
            reference[i].items.stats.as_dict()
        assert shards[i].correlations.stats.as_dict() == \
            reference[i].correlations.stats.as_dict()
        assert shards[i].frequent_pairs(1) == reference[i].frequent_pairs(1)
        assert types_of(shards[i]) == types_of(reference[i])


def test_merged_queries(engine, reference, batches):
    expected = merged_pairs(reference)
    assert engine.frequent_pairs(1) == expected
    assert engine.report().transactions == sum(len(b) for b in batches)
    assert engine.kind_summary() is not None
    assert engine.shard_occupancy() == [
        (len(analyzer.items), len(analyzer.correlations))
        for analyzer in reference
    ]
    top = expected[0][0]
    assert engine.type_tally(top) is not None
    partners = {}
    for analyzer in reference:
        for partner, count in analyzer.correlated_with(top.first, 4):
            partners[partner] = max(count, partners.get(partner, 0))
    assert engine.correlated_with(top.first, 4) == sorted(
        partners.items(), key=lambda entry: (-entry[1], entry[0]))[:4]
    assert engine.pair_frequencies() == {
        pair: count
        for analyzer in reference
        for pair, count in analyzer.pair_frequencies().items()
    }


def test_checkpoint_v4_round_trip(engine, reference):
    buffer = io.BytesIO()
    dump_engine(engine, buffer)
    assert buffer.getvalue().startswith(b"RTBKD\x04")
    buffer.seek(0)
    loaded = load_engine(buffer).engine
    assert loaded.frequent_pairs(1) == merged_pairs(reference)
    assert loaded.kind_summary() == engine.kind_summary()


def test_adopt_shards_restores_fleet(engine, reference):
    adopted = ProcessShardedAnalyzer(CONFIG, shards=SHARDS,
                                     registry=NULL_REGISTRY)
    try:
        adopted.adopt_backends(engine.shard_backends)
        assert adopted.frequent_pairs(1) == merged_pairs(reference)
        restored = [backend.analyzer for backend in adopted.shard_backends]
        for i in range(SHARDS):
            assert types_of(restored[i]) == types_of(reference[i])
    finally:
        adopted.close()
    assert adopted.closed


def test_closed_engine_refuses_work(batches):
    engine = ProcessShardedAnalyzer(CONFIG, shards=2, registry=NULL_REGISTRY)
    engine.close()
    engine.close()  # idempotent
    with pytest.raises(ShardWorkerError):
        engine.process_transaction_batch(batches[0])


def test_worker_crash_surfaces_instead_of_hanging(batches):
    """SIGKILL one worker mid-stream: the next protocol round must raise
    :class:`ShardWorkerError` promptly (a watchdog bounds the wait, so a
    deadlock on the dead pipe fails the test instead of hanging the
    suite), count the death, and leave the engine closeable."""
    engine = ProcessShardedAnalyzer(CONFIG, shards=2, registry=NULL_REGISTRY)
    outcome = {}

    def drive():
        try:
            for batch in batches:
                engine.process_transaction_batch(batch)
            outcome["error"] = None
        except ShardWorkerError as exc:
            outcome["error"] = exc

    try:
        engine.process_transaction_batch(batches[0])
        os.kill(engine._procs[1].pid, signal.SIGKILL)
        engine._procs[1].join(timeout=10)
        driver = threading.Thread(target=drive, daemon=True)
        started = time.monotonic()
        driver.start()
        driver.join(timeout=30)
        assert not driver.is_alive(), \
            "ingest against a dead worker hung instead of raising"
        assert time.monotonic() - started < 30
        assert isinstance(outcome["error"], ShardWorkerError)
        assert engine.worker_deaths == 1
    finally:
        engine.close()
    assert engine.closed
