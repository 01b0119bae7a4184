"""The sharded synopsis engine: equivalence, recall, and checkpoints.

The contract under test:

* ``BackendEngine`` hosting the two-tier tables on one shard is
  tally-identical to ``OnlineAnalyzer`` (and to ``TypedOnlineAnalyzer`` on
  the typed path, R/W tallies included) on any stream;
* with 4 shards at equal total capacity it recalls >= 0.95 of the single
  analyzer's frequent pairs on a Zipf workload;
* checkpoint v3 files (framed by hand here: no engine writes them any
  more) still load exactly, and a single corrupt shard degrades (fresh
  shard + degraded health) instead of destroying the synopsis;
* the batched ingest paths (``Monitor.on_events``, ``submit_many``,
  ``process_batch``) match their per-event/per-transaction equivalents;
* every engine shape takes the same three ingest calls
  (``process_transaction``, ``process_batch``,
  ``process_transaction_batch``) with the same result.
"""

import io
import random
import struct
from dataclasses import replace

import pytest

from repro.core.analyzer import OnlineAnalyzer
from repro.core.config import AnalyzerConfig
from repro.core.extent import Extent
from repro.core.serialize import CheckpointCorruptError, dumps_analyzer
from repro.core.typed import CorrelationKind, TypedOnlineAnalyzer
from repro.engine import (
    BackendEngine,
    dump_engine,
    load_engine,
    shard_config,
)
from repro.engine.checkpoint import (
    load_engine_checkpoint,
    save_engine_checkpoint,
)
from repro.engine.procshard import ProcessShardedAnalyzer
from repro.monitor.batch import TransactionBatch
from repro.monitor.events import BlockIOEvent
from repro.monitor.monitor import ClockPolicy, Monitor, TransactionRecorder
from repro.monitor.transaction import Transaction
from repro.monitor.window import DynamicLatencyWindow, StaticWindow
from repro.resilience import ResilientCharacterizationService
from repro.service import CharacterizationService
from repro.trace.record import OpType
from repro.workloads.zipf import ZipfRanks


# ---------------------------------------------------------------------------
# Workload helpers
# ---------------------------------------------------------------------------

def random_transactions(seed, count=2000, population=400):
    rng = random.Random(seed)
    return [
        [Extent(rng.randrange(1, population) * 8, rng.choice([4, 8]))
         for _ in range(rng.randrange(1, 8))]
        for _ in range(count)
    ]


def zipf_transactions(seed=7, groups=300, count=20000, noise_max=3):
    """Zipf-popular correlated extent groups plus uniform noise."""
    rng = random.Random(seed)
    pools = []
    for g in range(groups):
        base = (g + 1) * 10_000
        pools.append([Extent(base + i * 16, 8) for i in range(2 + g % 3)])
    ranks = ZipfRanks(groups, exponent=1.0)
    out = []
    for _ in range(count):
        noise = [Extent(rng.randrange(1, 2_000_000), 4)
                 for _ in range(rng.randrange(0, noise_max))]
        out.append(pools[ranks.sample(rng) - 1] + noise)
    return out


def monitor_transactions(extent_lists, seed=0):
    """Monitor transactions over the given extents, random R/W ops."""
    rng = random.Random(seed)
    return [
        Transaction([
            BlockIOEvent(timestamp=float(index), pid=1,
                         op=rng.choice([OpType.READ, OpType.WRITE]),
                         start=extent.start, length=extent.length)
            for extent in extents
        ])
        for index, extents in enumerate(extent_lists)
    ]


def random_events(seed, count=4000):
    rng = random.Random(seed)
    clock = 0.0
    events = []
    for _ in range(count):
        clock += rng.expovariate(2000.0)
        timestamp = clock
        if rng.random() < 0.05:  # some out-of-order delivery
            timestamp -= rng.random() * 0.002
        events.append(BlockIOEvent(
            timestamp=timestamp,
            pid=rng.randrange(4),
            op=rng.choice([OpType.READ, OpType.WRITE]),
            start=rng.randrange(1, 4000) * 8,
            length=8,
            latency=rng.random() * 0.001 if rng.random() < 0.7 else None,
        ))
    return events


SMALL = AnalyzerConfig(item_capacity=128, correlation_capacity=128)


def assert_tally_identical(left, right):
    assert left.pair_frequencies() == right.pair_frequencies()
    assert left.frequent_extents(1) == right.frequent_extents(1)
    assert left.frequent_pairs(1) == right.frequent_pairs(1)
    a, b = left.report(), right.report()
    assert a.transactions == b.transactions
    assert a.extents_seen == b.extents_seen
    assert a.pairs_seen == b.pairs_seen
    assert a.item_stats == b.item_stats
    assert a.correlation_stats == b.correlation_stats


# ---------------------------------------------------------------------------
# shards=1 equivalence
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_one_shard_matches_single_analyzer(seed):
    single = OnlineAnalyzer(SMALL)
    sharded = BackendEngine(SMALL, shards=1)
    for transaction in random_transactions(seed):
        single.process(transaction)
        sharded.process(transaction)
    assert_tally_identical(single, sharded)


def test_one_shard_matches_typed_analyzer():
    rng = random.Random(9)
    single = TypedOnlineAnalyzer(SMALL)
    sharded = BackendEngine(SMALL, shards=1)
    for transaction in random_transactions(4, count=1500):
        typed = [(extent, rng.choice([OpType.READ, OpType.WRITE]))
                 for extent in transaction]
        single.process_typed(typed)
        sharded.process_typed(typed)
    assert_tally_identical(single, sharded)
    assert single.kind_summary() == sharded.kind_summary()
    for kind in CorrelationKind:
        assert (single.frequent_pairs_of_kind(kind, 2)
                == sharded.frequent_pairs_of_kind(kind, 2))
    resident = single.pair_frequencies()
    assert resident
    for pair in resident:
        assert sharded.type_tally(pair) == single.type_tally(pair)


def test_one_shard_engine_batch_matches_single_analyzer():
    engine = BackendEngine(SMALL, shards=1)
    reference = OnlineAnalyzer(SMALL)
    transactions = monitor_transactions(random_transactions(5, count=800))
    assert engine.process_batch(transactions) == len(transactions)
    for transaction in transactions:
        reference.process(transaction.extents)
    assert_tally_identical(engine, reference)


# ---------------------------------------------------------------------------
# One ingest contract for every engine shape
# ---------------------------------------------------------------------------

#: Tables large enough that the contract streams evict nothing, so
#: application order cannot change a tally.
ROOMY = AnalyzerConfig(item_capacity=8192, correlation_capacity=16384)

CONTRACT_ENGINES = {
    "analyzer": lambda: OnlineAnalyzer(ROOMY),
    "typed": lambda: TypedOnlineAnalyzer(ROOMY),
    "two-tier-2": lambda: BackendEngine(ROOMY, shards=2),
    "cms-2": lambda: BackendEngine(replace(ROOMY, backend="cms"), shards=2),
    "procs-2": lambda: ProcessShardedAnalyzer(ROOMY, shards=2),
}


@pytest.mark.parametrize("shape", sorted(CONTRACT_ENGINES))
def test_every_engine_takes_the_same_ingest_calls(shape):
    """``process_transaction`` one at a time, one ``process_batch`` and
    one ``process_transaction_batch`` over the same monitor transactions
    leave the same synopsis and flow counts on every engine shape."""
    transactions = monitor_transactions(
        random_transactions(21, count=400), seed=21)
    engine = CONTRACT_ENGINES[shape]()

    def per_transaction():
        for transaction in transactions:
            engine.process_transaction(transaction)
        return len(transactions)

    lanes = {
        "per_transaction": per_transaction,
        "batch": lambda: engine.process_batch(transactions),
        "columnar": lambda: engine.process_transaction_batch(
            TransactionBatch.from_transactions(transactions)),
    }
    results = {}
    try:
        for lane, feed in lanes.items():
            engine.reset()
            assert feed() == len(transactions), lane
            report = engine.report()
            for stats in (report.item_stats, report.correlation_stats):
                assert stats.t1_evictions == stats.t2_evictions == 0
            results[lane] = (
                engine.pair_frequencies(),
                (report.transactions, report.extents_seen,
                 report.pairs_seen),
            )
    finally:
        if isinstance(engine, ProcessShardedAnalyzer):
            engine.close()
    reference = results["per_transaction"]
    assert reference[0]
    assert reference[1][0] == len(transactions)
    assert results["batch"] == reference
    assert results["columnar"] == reference


# ---------------------------------------------------------------------------
# Multi-shard behaviour
# ---------------------------------------------------------------------------

def test_shard_config_splits_capacity():
    config = AnalyzerConfig(item_capacity=1024, correlation_capacity=512)
    per_shard = shard_config(config, 4)
    assert per_shard.item_capacity == 256
    assert per_shard.correlation_capacity == 128
    assert per_shard.promote_threshold == config.promote_threshold
    with pytest.raises(ValueError):
        BackendEngine(config, shards=0)


def test_sharded_partitions_are_disjoint_and_complete():
    sharded = BackendEngine(SMALL, shards=4)
    for transaction in random_transactions(6, count=1000):
        sharded.process(transaction)
    merged = sharded.pair_frequencies()
    per_shard = [shard.pair_frequencies()
                 for shard in sharded.shard_backends]
    assert sum(len(part) for part in per_shard) == len(merged)
    for index, part in enumerate(per_shard):
        for pair in part:
            assert sharded.shard_of_pair(pair) == index
    occupancy = sharded.shard_occupancy()
    assert len(occupancy) == 4
    assert sum(pairs for _items, pairs in occupancy) == len(merged)


def test_four_shard_zipf_recall():
    """>= 0.95 pair recall versus the single analyzer at equal total
    capacity on the benchmark Zipf workload (the acceptance criterion)."""
    config = AnalyzerConfig(item_capacity=1024, correlation_capacity=1024)
    single = OnlineAnalyzer(config)
    sharded = BackendEngine(config, shards=4)
    for transaction in zipf_transactions():
        single.process(transaction)
        sharded.process(transaction)
    reference = {pair for pair, _ in single.frequent_pairs(5)}
    detected = {pair for pair, _ in sharded.frequent_pairs(5)}
    assert reference, "workload must produce frequent pairs"
    recall = len(reference & detected) / len(reference)
    assert recall >= 0.95, f"sharded recall {recall:.3f} < 0.95"


def test_sharded_reset():
    sharded = BackendEngine(SMALL, shards=3)
    for transaction in random_transactions(10, count=200):
        sharded.process(transaction)
    assert sharded.pair_frequencies()
    sharded.reset()
    assert not sharded.pair_frequencies()
    assert sharded.report().transactions == 0


# ---------------------------------------------------------------------------
# Batched monitor and service ingest
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("policy", list(ClockPolicy))
def test_monitor_on_events_matches_per_event(policy):
    events = random_events(11)
    for make_window in (lambda: StaticWindow(0.001),
                        lambda: DynamicLatencyWindow()):
        loop_rec, batch_rec = TransactionRecorder(), TransactionRecorder()
        per_event = Monitor(window=make_window(), sinks=[loop_rec],
                            clock_policy=policy)
        batched = Monitor(window=make_window(), sinks=[batch_rec],
                          clock_policy=policy)
        for event in events:
            per_event.on_event(event)
        assert batched.on_events(events) == len(events)
        per_event.flush()
        batched.flush()
        assert ([t.events for t in loop_rec.transactions]
                == [t.events for t in batch_rec.transactions])
        assert vars(per_event.stats) == vars(batched.stats)


def test_submit_many_matches_submit_loop():
    events = random_events(12)
    config = AnalyzerConfig(item_capacity=512, correlation_capacity=512)
    one_by_one = CharacterizationService(config=config, min_support=2)
    batched = CharacterizationService(config=config, min_support=2)
    for event in events:
        one_by_one.submit(event)
    assert batched.submit_many(events) == len(events)
    one_by_one.flush()
    batched.flush()
    left, right = one_by_one.snapshot(), batched.snapshot()
    assert left.frequent_pairs == right.frequent_pairs
    assert left.transactions == right.transactions
    assert left.kind_summary == right.kind_summary


def test_submit_many_fires_observers_once_per_batch():
    events = random_events(13, count=3000)
    service = CharacterizationService(
        config=SMALL, min_support=1, snapshot_interval=10
    )
    seen = []
    service.observe(seen.append)
    service.submit_many(events)
    service.flush()
    assert len(seen) == 1  # once per batch, not once per interval
    assert seen[0].transactions >= 10


def test_sharded_service_snapshot_matches_single_on_hot_pairs():
    events = random_events(14, count=5000)
    config = AnalyzerConfig(item_capacity=1024, correlation_capacity=1024)
    single = CharacterizationService(config=config, min_support=3)
    sharded = CharacterizationService(config=config, min_support=3, shards=4)
    single.submit_many(events)
    sharded.submit_many(events)
    single.flush()
    sharded.flush()
    reference = {pair for pair, _ in single.snapshot().frequent_pairs}
    detected = {pair for pair, _ in sharded.snapshot().frequent_pairs}
    if reference:
        recall = len(reference & detected) / len(reference)
        assert recall >= 0.9


# ---------------------------------------------------------------------------
# Checkpoint format v3 (read-only)
# ---------------------------------------------------------------------------

def _populated_sharded(shards=4, seed=20):
    engine = BackendEngine(SMALL, shards=shards)
    for transaction in random_transactions(seed, count=1200):
        engine.process(transaction)
    return engine


def _v3_bytes(engine) -> bytes:
    """Frame a two-tier engine as format v3: ``RTSHD\\x03``, the shard
    count, then one length-prefixed v2 envelope per shard."""
    shards = engine.shard_backends
    out = [b"RTSHD\x03", struct.pack("<I", len(shards))]
    for shard in shards:
        blob = dumps_analyzer(shard.analyzer)
        out += [struct.pack("<I", len(blob)), blob]
    return b"".join(out)


def test_v3_round_trip_exact():
    engine = _populated_sharded()
    loaded = load_engine(io.BytesIO(_v3_bytes(engine)))
    restored = loaded.engine
    assert loaded.corrupt_shards == []
    assert isinstance(restored, BackendEngine)
    assert restored.shards == engine.shards
    assert restored.config == engine.config
    assert restored.pair_frequencies() == engine.pair_frequencies()
    # LRU order and tier membership must survive, shard for shard.
    for original, revived in zip(engine.shard_backends,
                                 restored.shard_backends):
        assert original.analyzer.items.items() == \
            revived.analyzer.items.items()
        assert original.analyzer.correlations.items() == \
            revived.analyzer.correlations.items()


def test_v3_dispatch_still_reads_v2():
    analyzer = OnlineAnalyzer(SMALL)
    for transaction in random_transactions(21, count=400):
        analyzer.process(transaction)
    buffer = io.BytesIO()
    dump_engine(analyzer, buffer)
    buffer.seek(0)
    loaded = load_engine(buffer)
    assert isinstance(loaded.engine, OnlineAnalyzer)
    assert loaded.engine.pair_frequencies() == analyzer.pair_frequencies()


def _corrupt_one_shard(blob: bytes) -> bytes:
    """Flip bits in the middle of the *last* shard's payload."""
    corrupted = bytearray(blob)
    offset = len(corrupted) - 40
    corrupted[offset] ^= 0xFF
    corrupted[offset + 1] ^= 0xFF
    return bytes(corrupted)


def test_v3_one_corrupt_shard_strict_raises():
    engine = _populated_sharded()
    corrupted = _corrupt_one_shard(_v3_bytes(engine))
    with pytest.raises(CheckpointCorruptError):
        load_engine(io.BytesIO(corrupted), strict=True)


def test_v3_one_corrupt_shard_degrades_not_destroys():
    engine = _populated_sharded()
    corrupted = _corrupt_one_shard(_v3_bytes(engine))
    loaded = load_engine(io.BytesIO(corrupted), strict=False)
    assert loaded.corrupt_shards  # the damaged shard is reported ...
    restored = loaded.engine
    assert isinstance(restored, BackendEngine)
    survivors = set(range(engine.shards)) - set(loaded.corrupt_shards)
    assert survivors  # ... and the others keep their learned state
    for index in survivors:
        assert (restored.shard_backends[index].pair_frequencies()
                == engine.shard_backends[index].pair_frequencies())
    for index in loaded.corrupt_shards:
        assert not restored.shard_backends[index].pair_frequencies()


def test_resilient_service_degraded_shard_restore(tmp_path):
    path = tmp_path / "synopsis.v3"
    source = ResilientCharacterizationService(
        config=SMALL, min_support=1, shards=4
    )
    source.submit_many(random_events(22, count=3000))
    source.checkpoint_to(path)

    corrupted = _corrupt_one_shard(path.read_bytes())
    path.write_bytes(corrupted)

    revived = ResilientCharacterizationService(
        config=SMALL, min_support=1, shards=4
    )
    assert revived.restore_from(path) is True  # degraded, not destroyed
    health = revived.health()
    assert not health.ok
    assert any("shard" in reason for reason in health.reasons)
    surviving = revived.analyzer.pair_frequencies()
    original = source.analyzer.pair_frequencies()
    assert surviving  # intact shards carried their pairs across
    assert set(surviving).issubset(set(original))


def test_engine_checkpoint_file_helpers(tmp_path):
    path = tmp_path / "engine.ckpt"
    engine = _populated_sharded(shards=2, seed=23)
    written = save_engine_checkpoint(engine, path)
    assert path.stat().st_size == written
    loaded = load_engine_checkpoint(path)
    assert loaded.engine.pair_frequencies() == engine.pair_frequencies()


# ---------------------------------------------------------------------------
# Pipeline and CLI integration
# ---------------------------------------------------------------------------

def test_pipeline_shards_and_batch_size():
    from repro.pipeline import run_pipeline
    from repro.workloads.enterprise import generate_named

    records, _truth = generate_named("rsrch", requests=2500, seed=5)
    baseline = run_pipeline(records, record_offline=False)
    batched = run_pipeline(records, record_offline=False, batch_size=256)
    assert (baseline.frequent_pairs(3)
            == batched.frequent_pairs(3))
    sharded = run_pipeline(records, record_offline=False, shards=4)
    assert isinstance(sharded.analyzer, BackendEngine)
    reference = {pair for pair, _ in baseline.frequent_pairs(3)}
    detected = {pair for pair, _ in sharded.frequent_pairs(3)}
    if reference:
        assert len(reference & detected) / len(reference) >= 0.9
    with pytest.raises(ValueError):
        run_pipeline(records, shards=0)
    with pytest.raises(ValueError):
        run_pipeline(records, batch_size=0)


def test_cli_shards_and_batch_flags(tmp_path, capsys):
    from repro.cli.main import main
    from repro.trace.io import save_msr_csv
    from repro.workloads.enterprise import generate_named

    records, _truth = generate_named("rsrch", requests=1500, seed=5)
    trace = tmp_path / "trace.csv"
    save_msr_csv(records, trace)
    synopsis = tmp_path / "synopsis.v4"
    assert main([
        "characterize", str(trace), "--shards", "4",
        "--batch-size", "128", "--support", "3",
        "--save-synopsis", str(synopsis),
    ]) == 0
    out = capsys.readouterr().out
    assert "saved synopsis" in out
    assert synopsis.read_bytes().startswith(b"RTBKD\x04")
    # And the sharded synopsis can be resumed from.
    assert main([
        "characterize", str(trace), "--load-synopsis", str(synopsis),
        "--support", "3",
    ]) == 0
