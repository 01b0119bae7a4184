"""Tests for correlation-driven prefetching."""

import pytest

from repro.core.analyzer import OnlineAnalyzer
from repro.core.config import AnalyzerConfig
from repro.cache import (
    CorrelationPrefetcher,
    RulePrefetcher,
    SimulatedBlockCache,
    simulate_cache,
)

from conftest import ext


def alternating_accesses(pairs=4, rounds=40, length=8):
    """Access streams where A is always followed by its partner B."""
    accesses = []
    for round_index in range(rounds):
        which = round_index % pairs
        base = which * 100000
        accesses.append(ext(base, length))
        accesses.append(ext(base + 50000, length))
    return accesses


def trained_analyzer(accesses):
    analyzer = OnlineAnalyzer(
        AnalyzerConfig(item_capacity=64, correlation_capacity=64)
    )
    for first, second in zip(accesses[::2], accesses[1::2]):
        analyzer.process([first, second])
    return analyzer


class TestBlockCache:
    def test_miss_then_hit(self):
        cache = SimulatedBlockCache(16, policy="lru")
        assert cache.access(ext(0, 4)) == 0
        assert cache.access(ext(0, 4)) == 4
        assert cache.stats.hits == 4
        assert cache.stats.misses == 4

    def test_lru_eviction(self):
        cache = SimulatedBlockCache(4, policy="lru")
        cache.access(ext(0, 4))
        cache.access(ext(100, 4))  # evicts blocks 0-3
        assert cache.access(ext(0, 4)) == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SimulatedBlockCache(0, policy="lru")

    def test_prefetch_counts_and_attribution(self):
        cache = SimulatedBlockCache(16, policy="lru")
        cache.prefetch(ext(10, 4))
        assert cache.stats.prefetches_issued == 4
        cache.access(ext(10, 4))
        assert cache.stats.prefetch_hits == 4
        assert cache.stats.prefetch_accuracy == 1.0

    def test_prefetch_attributed_once(self):
        cache = SimulatedBlockCache(16, policy="lru")
        cache.prefetch(ext(10, 1))
        cache.access(ext(10, 1))
        cache.access(ext(10, 1))
        assert cache.stats.prefetch_hits == 1
        assert cache.stats.hits == 2

    def test_prefetch_does_not_count_as_demand(self):
        cache = SimulatedBlockCache(16, policy="lru")
        cache.prefetch(ext(10, 4))
        assert cache.stats.accesses == 0


class TestCorrelationPrefetcher:
    def test_partners_sorted_by_strength(self):
        analyzer = OnlineAnalyzer(
            AnalyzerConfig(item_capacity=64, correlation_capacity=64)
        )
        for _ in range(5):
            analyzer.process([ext(0, 4), ext(1000, 4)])
        analyzer.process([ext(0, 4), ext(2000, 4)])
        prefetcher = CorrelationPrefetcher(analyzer, min_support=1, fanout=2)
        partners = prefetcher.partners_of(ext(0, 4))
        assert partners[0] == ext(1000, 4)

    def test_fanout_limits_partners(self):
        analyzer = OnlineAnalyzer(
            AnalyzerConfig(item_capacity=64, correlation_capacity=64)
        )
        for i in range(1, 6):
            for _ in range(3):
                analyzer.process([ext(0, 4), ext(i * 1000, 4)])
        prefetcher = CorrelationPrefetcher(analyzer, min_support=2, fanout=2)
        assert len(prefetcher.partners_of(ext(0, 4))) == 2

    def test_unknown_extent_has_no_partners(self):
        analyzer = OnlineAnalyzer(AnalyzerConfig(item_capacity=8,
                                                 correlation_capacity=8))
        prefetcher = CorrelationPrefetcher(analyzer)
        assert prefetcher.partners_of(ext(5)) == []

    def test_fanout_validation(self):
        analyzer = OnlineAnalyzer(AnalyzerConfig(item_capacity=8,
                                                 correlation_capacity=8))
        with pytest.raises(ValueError):
            CorrelationPrefetcher(analyzer, fanout=0)


class TestCacheExperiment:
    def test_prefetching_improves_hit_ratio(self):
        """A cache too small to retain both members across rounds benefits
        from pulling the partner in on demand access."""
        accesses = alternating_accesses(pairs=8, rounds=80)
        analyzer = trained_analyzer(accesses)
        capacity = 24  # holds ~1.5 extents of 8 blocks + partner prefetch
        baseline = simulate_cache(accesses, capacity)
        prefetched = simulate_cache(
            accesses, capacity,
            prefetcher=CorrelationPrefetcher(analyzer, min_support=3),
        )
        assert prefetched.hit_ratio > baseline.hit_ratio
        assert prefetched.prefetch_accuracy > 0.3


class TestRulePrefetcher:
    def test_directional_prefetch(self):
        """A -> B prefetches B on A, but not A on B when the reverse rule
        is below confidence."""
        from repro.fim.rules import AssociationRule, RuleIndex

        rules = RuleIndex([
            AssociationRule(ext(0, 4), ext(1000, 4), 10, 0.9, 3.0),
        ])
        prefetcher = RulePrefetcher(rules, fanout=2)
        assert prefetcher.partners_of(ext(0, 4)) == [ext(1000, 4)]
        assert prefetcher.partners_of(ext(1000, 4)) == []

    def test_fanout_validation(self):
        from repro.fim.rules import RuleIndex
        import pytest as _pytest
        with _pytest.raises(ValueError):
            RulePrefetcher(RuleIndex([]), fanout=0)

    def test_rule_prefetching_in_cache_experiment(self):
        """End to end: rules mined from the analyzer drive prefetching."""
        from repro.fim.rules import RuleIndex, rules_from_analyzer

        accesses = alternating_accesses(pairs=8, rounds=80)
        analyzer = trained_analyzer(accesses)
        rules = RuleIndex(rules_from_analyzer(analyzer, min_support=3,
                                              min_confidence=0.5))
        baseline = simulate_cache(accesses, 24)
        prefetched = simulate_cache(
            accesses, 24, prefetcher=RulePrefetcher(rules, fanout=1)
        )
        assert prefetched.hit_ratio > baseline.hit_ratio
