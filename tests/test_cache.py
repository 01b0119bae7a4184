"""Tests for the repro.cache subsystem (simulator, policies, prefetchers)."""

import random

import pytest

from repro.cache import (
    ArcPolicy,
    CacheDriver,
    CachedCharacterizationService,
    Clock2QPolicy,
    CacheStats,
    LruPolicy,
    OfflineMiner,
    SimulatedBlockCache,
    SynopsisPrefetcher,
    make_policy,
    run_closed_loop,
    simulate_cache,
)
from repro.core.analyzer import OnlineAnalyzer
from repro.core.extent import Extent
from repro.engine.backends import BACKEND_NAMES, create_backend
from repro.engine.procshard import ProcessShardedAnalyzer
from repro.monitor.batch import TransactionBatch
from repro.monitor.events import BlockIOEvent
from repro.monitor.transaction import Transaction
from repro.telemetry import NULL_REGISTRY
from repro.telemetry.metrics import MetricsRegistry
from repro.trace.record import OpType


def one_block(i):
    return Extent(i, 1)


# ---------------------------------------------------------------------------
# Eviction policies
# ---------------------------------------------------------------------------

class TestPolicies:
    def test_lru_evicts_least_recent(self):
        policy = LruPolicy(2)
        assert policy.admit("a") == []
        assert policy.admit("b") == []
        policy.touch("a")  # b is now least recent
        assert policy.admit("c") == ["b"]
        assert "a" in policy and "c" in policy and "b" not in policy

    def test_make_policy_resolves_names_and_instances(self):
        assert isinstance(make_policy("lru", 8), LruPolicy)
        assert isinstance(make_policy("arc", 8), ArcPolicy)
        assert isinstance(make_policy("clock2q", 8), Clock2QPolicy)
        instance = LruPolicy(4)
        assert make_policy(instance, 99) is instance
        with pytest.raises(ValueError):
            make_policy("fifo", 8)

    def test_arc_policy_reports_every_eviction(self):
        policy = ArcPolicy(8)
        random.seed(11)
        admitted = set()
        for _ in range(2000):
            key = random.randrange(64)
            evicted = policy.touch(key) if key in policy \
                else policy.admit(key)
            admitted.add(key)
            for victim in evicted:
                admitted.discard(victim)
            assert len(policy) <= 8
        # The listener-fed eviction channel kept residency in sync.
        assert admitted == {key for key in range(64) if key in policy}

    def test_clock2q_invariants_under_random_traffic(self):
        policy = Clock2QPolicy(16, ghost_capacity=16)
        random.seed(5)
        for step in range(4000):
            key = random.randrange(80)
            if key in policy:
                policy.touch(key)
            else:
                policy.admit(key)
            assert policy.check_invariants(), step
            assert len(policy) <= policy.capacity

    def test_clock2q_probation_hit_promotes(self):
        policy = Clock2QPolicy(8, probation_fraction=0.5)
        policy.admit("a")
        policy.touch("a")  # promoted out of probation
        # Flood probation: "a" must survive in the protected region.
        for i in range(16):
            policy.admit(i)
        assert "a" in policy

    def test_clock2q_ghost_hit_bypasses_probation(self):
        policy = Clock2QPolicy(4, probation_fraction=0.5, ghost_capacity=8)
        policy.admit("a")
        policy.admit("b")
        policy.admit("c")  # probation FIFO (cap 2) evicts "a" to ghost
        assert "a" not in policy and policy.in_ghost("a")
        policy.admit("a")  # ghost hit: straight to protected
        for i in range(8):
            policy.admit(i)  # probation churn cannot touch it
        assert "a" in policy


class TestScanResistance:
    """Satellite 3a: Clock2Q+ beats LRU on a cyclic scan > capacity."""

    CAPACITY = 64
    LOOP = 72  # > capacity, within probation+ghost history reach

    def cyclic_trace(self, rounds=30):
        return [one_block(i) for i in range(self.LOOP)] * rounds

    def test_lru_scores_zero_on_cyclic_scan(self):
        stats = simulate_cache(self.cyclic_trace(), self.CAPACITY,
                               policy="lru")
        assert stats.hit_ratio == 0.0

    def test_clock2q_beats_lru_on_cyclic_scan(self):
        trace = self.cyclic_trace()
        lru = simulate_cache(trace, self.CAPACITY, policy="lru")
        clock = simulate_cache(trace, self.CAPACITY, policy="clock2q")
        assert clock.hit_ratio > lru.hit_ratio
        assert clock.hit_ratio > 0.5  # loop pinning, not a marginal win

    def test_clock2q_tracks_lru_on_reuse_heavy_traffic(self):
        # Sanity: scan resistance must not ruin plain locality.
        random.seed(3)
        hot = [one_block(i) for i in range(32)]
        cold = [one_block(1000 + i) for i in range(4000)]
        trace = []
        for i in range(4000):
            trace.append(random.choice(hot) if i % 2 else cold[i])
        lru = simulate_cache(trace, self.CAPACITY, policy="lru")
        clock = simulate_cache(trace, self.CAPACITY, policy="clock2q")
        assert clock.hit_ratio >= lru.hit_ratio


# ---------------------------------------------------------------------------
# Prefetch attribution (satellite 2)
# ---------------------------------------------------------------------------

class TestPrefetchAttribution:
    def test_refetched_block_is_not_a_prefetch_hit(self):
        """A prefetched block evicted unused then re-fetched on demand
        must never re-count as a prefetch hit."""
        cache = SimulatedBlockCache(2, policy="lru")
        cache.prefetch(one_block(0))          # issued = 1
        cache.access(one_block(1))
        cache.access(one_block(2))            # evicts block 0, unused
        assert cache.stats.prefetch_evicted_unused == 1
        cache.access(one_block(0))            # demand re-fetch: a miss
        assert cache.stats.demand_refetches == 1
        cache.access(one_block(0))            # plain hit on a demand fill
        assert cache.stats.prefetch_hits == 0
        assert cache.stats.prefetch_accuracy == 0.0

    def test_prefetch_attributed_once_per_issue(self):
        cache = SimulatedBlockCache(8)
        cache.prefetch(one_block(0))
        cache.access(one_block(0))
        cache.access(one_block(0))
        assert cache.stats.prefetch_hits == 1
        assert cache.stats.hits == 2

    def test_accuracy_never_exceeds_one_under_churn(self):
        random.seed(9)
        cache = SimulatedBlockCache(16, policy="clock2q")
        for _ in range(3000):
            block = random.randrange(64)
            if random.random() < 0.3:
                cache.prefetch(one_block(block))
            else:
                cache.access(one_block(block))
        stats = cache.stats
        assert 0.0 <= stats.prefetch_accuracy <= 1.0
        assert (stats.prefetch_hits + stats.prefetch_evicted_unused
                <= stats.prefetches_issued)

    def test_stats_merge_and_dict(self):
        a = CacheStats(hits=3, misses=1, prefetches_issued=2,
                       prefetch_hits=1)
        b = CacheStats(hits=1, misses=1, demand_refetches=2)
        merged = a.merged(b)
        assert merged.hits == 4 and merged.accesses == 6
        assert merged.demand_refetches == 2
        payload = merged.as_dict()
        assert payload["hit_ratio"] == pytest.approx(4 / 6, abs=1e-6)
        assert payload["prefetch_accuracy"] == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Prefetchers: synopsis queries, throttling, offline miner
# ---------------------------------------------------------------------------

def alternating_pair_transactions(pairs=8, rounds=40):
    """[A_i, B_i] transactions cycling over the pairs, deterministic."""
    txns = []
    for r in range(rounds):
        i = r % pairs
        txns.append([Extent(64 * i, 4), Extent(64 * i + 32, 4)])
    return txns


def process_sharded_engine(txns):
    """A two-shard worker fleet trained on ``txns`` (one columnar batch)."""
    clock, transactions = 0.0, []
    for txn in txns:
        events = []
        for extent in txn:
            clock += 1e-6
            events.append(BlockIOEvent(clock, 1, OpType.READ,
                                       extent.start, extent.length))
        transactions.append(Transaction(events))
    engine = ProcessShardedAnalyzer(shards=2, registry=NULL_REGISTRY)
    engine.process_transaction_batch(
        TransactionBatch.from_transactions(transactions))
    return engine


class TestSynopsisPrefetcher:
    @pytest.mark.parametrize("backend", sorted(BACKEND_NAMES) + ["procs"])
    def test_partner_query_identical_across_backends(self, backend):
        """The prefetcher behaves the same against every synopsis backend,
        and against a process-sharded engine, on an alternating-pairs
        stream."""
        txns = alternating_pair_transactions()
        if backend == "procs":
            engine = process_sharded_engine(txns)
        else:
            engine = create_backend(backend)
            for txn in txns:
                engine.process(txn)
        prefetcher = SynopsisPrefetcher(engine, budget=1, min_support=2)
        try:
            for a, b in set(map(tuple, txns)):
                assert prefetcher.partners_of(a) == [b]
                assert prefetcher.partners_of(b) == [a]
        finally:
            if backend == "procs":
                engine.close()

    @pytest.mark.parametrize("backend", sorted(BACKEND_NAMES))
    def test_closed_loop_hit_ratio_identical_across_backends(self, backend):
        engine = create_backend(backend)
        cache = SimulatedBlockCache(32)
        stats = run_closed_loop(
            alternating_pair_transactions(pairs=16, rounds=160),
            engine, cache,
            SynopsisPrefetcher(engine, budget=1, min_support=2),
        )
        # 16 pairs x 8 blocks = 128 blocks > 32-block cache: without
        # prefetch the second extent of each pair would miss.
        assert stats.prefetch_accuracy > 0.9
        assert stats.hit_ratio > 0.3

    def test_min_support_floor_filters_weak_partners(self):
        analyzer = OnlineAnalyzer()
        analyzer.process([Extent(0, 1), Extent(8, 1)])  # tally 1
        prefetcher = SynopsisPrefetcher(analyzer, min_support=2)
        assert prefetcher.partners_of(Extent(0, 1)) == []
        analyzer.process([Extent(0, 1), Extent(8, 1)])  # tally 2
        assert prefetcher.partners_of(Extent(0, 1)) == [Extent(8, 1)]

    def test_throttles_on_bad_accuracy_and_recovers(self):
        analyzer = OnlineAnalyzer()
        prefetcher = SynopsisPrefetcher(analyzer, budget=4,
                                        backoff_accuracy=0.2,
                                        restore_accuracy=0.5)
        prefetcher.adjust(0.05)
        assert prefetcher.effective_budget == 2
        prefetcher.adjust(0.05)
        prefetcher.adjust(0.05)
        assert prefetcher.effective_budget == 0 and prefetcher.paused
        # Paused: a quiet window probes the budget back open ...
        prefetcher.adjust(0.0, issued=0)
        assert prefetcher.effective_budget == 1
        # ... and sustained good accuracy restores it fully.
        for _ in range(4):
            prefetcher.adjust(0.9)
        assert prefetcher.effective_budget == 4

    def test_paused_prefetcher_returns_no_partners(self):
        analyzer = OnlineAnalyzer()
        for _ in range(3):
            analyzer.process([Extent(0, 1), Extent(8, 1)])
        prefetcher = SynopsisPrefetcher(analyzer, budget=1)
        assert prefetcher.partners_of(Extent(0, 1))
        while not prefetcher.paused:
            prefetcher.adjust(0.0)
        assert prefetcher.partners_of(Extent(0, 1)) == []

    def test_driver_feeds_accuracy_back(self):
        analyzer = OnlineAnalyzer()
        # Strong pair, but partner extents never re-accessed: accuracy 0.
        for _ in range(5):
            analyzer.process([Extent(0, 1), Extent(8, 1)])
        prefetcher = SynopsisPrefetcher(analyzer, budget=2)
        cache = SimulatedBlockCache(64)
        driver = CacheDriver(cache, prefetcher, feedback_interval=16)
        for i in range(64):
            driver.on_access(Extent(0, 1))
        assert prefetcher.adjustments >= 1
        assert prefetcher.backoffs >= 1  # prefetched 8 never demanded

    def test_validation(self):
        analyzer = OnlineAnalyzer()
        with pytest.raises(ValueError):
            SynopsisPrefetcher(analyzer, budget=0)
        with pytest.raises(ValueError):
            SynopsisPrefetcher(analyzer, min_support=0)
        with pytest.raises(ValueError):
            SynopsisPrefetcher(analyzer, backoff_accuracy=0.8,
                               restore_accuracy=0.2)


class TestOfflineMiner:
    def test_mines_lookahead_associations(self):
        a, b, c = Extent(0, 1), Extent(8, 1), Extent(16, 1)
        trace = [a, b, c] * 5
        miner = OfflineMiner(lookahead=1, min_support=2).mine(trace)
        assert miner.partners_of(a) == [b]
        assert miner.partners_of(b) == [c]
        # lookahead=1: a -> c is out of reach
        assert c not in miner.partners_of(a)

    def test_min_support_prunes_rare_rules(self):
        a, b, c = Extent(0, 1), Extent(8, 1), Extent(16, 1)
        trace = [a, b] * 3 + [a, c]
        miner = OfflineMiner(lookahead=2, min_support=3).mine(trace)
        assert miner.partners_of(a) == [b]

    def test_beats_no_prefetch_on_paired_trace(self):
        txns = alternating_pair_transactions(pairs=16, rounds=160)
        accesses = [e for t in txns for e in t]
        plain = simulate_cache(accesses, 32)
        miner = OfflineMiner(lookahead=2, min_support=2).mine(accesses)
        mined = simulate_cache(accesses, 32, prefetcher=miner)
        assert mined.hit_ratio > plain.hit_ratio

    def test_validation(self):
        with pytest.raises(ValueError):
            OfflineMiner(lookahead=0)
        with pytest.raises(ValueError):
            OfflineMiner(min_support=0)
        with pytest.raises(ValueError):
            OfflineMiner(fanout=0)


# ---------------------------------------------------------------------------
# The closed loop end to end
# ---------------------------------------------------------------------------

class TestClosedLoop:
    def test_closed_loop_lifts_hit_ratio(self):
        random.seed(7)
        pairs = [(Extent(128 * i, 8), Extent(128 * i + 64, 8))
                 for i in range(64)]
        txns = [list(random.choice(pairs)) for _ in range(2000)]

        engine = OnlineAnalyzer()
        baseline_cache = SimulatedBlockCache(256)
        driver = CacheDriver(baseline_cache, None)
        for txn in txns:
            driver.on_transaction(txn)
            engine.process(txn)

        engine2 = OnlineAnalyzer()
        loop_cache = SimulatedBlockCache(256)
        stats = run_closed_loop(txns, engine2, loop_cache,
                                SynopsisPrefetcher(engine2, budget=2))
        assert stats.hit_ratio > baseline_cache.stats.hit_ratio + 0.05
        assert stats.prefetch_accuracy > 0.5

    def test_pipeline_cache_knob(self):
        from repro.pipeline import run_pipeline
        from repro.workloads.enterprise import generate_named

        records, _ = generate_named("wdev", requests=1500, seed=5)
        with_prefetch = run_pipeline(records, cache=512,
                                     record_offline=False)
        without = run_pipeline(records, cache=512, prefetch=False,
                               record_offline=False)
        assert with_prefetch.cache is not None
        assert with_prefetch.cache_stats.prefetches_issued > 0
        assert without.cache_stats.prefetches_issued == 0
        assert (with_prefetch.cache_stats.hit_ratio
                > without.cache_stats.hit_ratio)

    def test_pipeline_without_cache_raises_on_cache_stats(self):
        from repro.pipeline import PipelineResult

        result = PipelineResult(replay=None, monitor_stats=None,
                                analyzer=None, recorder=None)
        with pytest.raises(ValueError):
            result.cache_stats

    def test_cached_service_counts_and_publishes(self):
        from repro.blkdev.device import SsdDevice
        from repro.blkdev.replay import replay_timed
        from repro.telemetry.export import snapshot, snapshot_value
        from repro.workloads.enterprise import generate_named

        records, _ = generate_named("wdev", requests=1500, seed=5)
        registry = MetricsRegistry()
        service = CachedCharacterizationService(cache=512,
                                                registry=registry)
        replay_timed(records, SsdDevice(), listeners=[service.submit],
                     collect=False)
        service.close()
        stats = service.cache_stats
        assert stats.accesses > 0 and stats.prefetches_issued > 0
        assert snapshot_value(
            snapshot(registry), "repro_cache_hits_total",
            {"policy": "lru"},
        ) == stats.hits

    def test_cached_service_batched_ingest_serves_the_cache(self):
        """Chunked submit_many drives the cache too: within one batch
        the cache runs ahead of training (one causality step), but
        across chunks the closed loop still learns and prefetches."""
        from repro.workloads.enterprise import generate_named
        from repro.monitor.events import BlockIOEvent

        records, _ = generate_named("hm", requests=1200, seed=9)
        events = [BlockIOEvent(r.timestamp, r.pid, r.op, r.start,
                               r.length, 100e-6) for r in records]
        scalar = CachedCharacterizationService(cache=512)
        for event in events:
            scalar.submit(event)
        scalar.close()
        batched = CachedCharacterizationService(cache=512)
        for lo in range(0, len(events), 100):
            batched.submit_many(events[lo:lo + 100])
        batched.close()
        # Both routes served every block of every transaction ...
        assert batched.cache_stats.accesses == scalar.cache_stats.accesses
        # ... and the batched loop still learned enough to prefetch well.
        assert batched.cache_stats.prefetches_issued > 0
        assert batched.cache_stats.prefetch_accuracy > 0.5

    def test_cached_service_rejects_bool_false(self):
        with pytest.raises(ValueError):
            CachedCharacterizationService(cache=False)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCacheSimCli:
    def test_cache_sim_writes_bench_json(self, tmp_path, capsys):
        import json

        from repro.cli.main import main
        from repro.trace.io import save_binary
        from repro.workloads.enterprise import generate_named

        records, _ = generate_named("wdev", requests=1200, seed=3)
        trace = tmp_path / "wdev.bin"
        save_binary(records, str(trace))
        out = tmp_path / "BENCH_cache.json"
        rc = main([
            "cache-sim", str(trace), "--sizes", "256",
            "--policies", "lru", "--modes", "none", "synopsis",
            "--json", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        results = payload["cache_sim"]["results"]
        assert len(results) == 2
        by_mode = {entry["prefetch"]: entry for entry in results}
        assert by_mode["synopsis"]["hit_ratio"] \
            > by_mode["none"]["hit_ratio"]
        assert "hit_ratio" in capsys.readouterr().out
