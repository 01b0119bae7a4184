"""Tests for the online analyzer (paper Section III-D)."""

import pytest

from repro.core.analyzer import OnlineAnalyzer
from repro.core.config import AnalyzerConfig
from repro.core.extent import ExtentPair
from repro.core.two_tier import TableStats

from conftest import ext, pair


def small_analyzer(**overrides) -> OnlineAnalyzer:
    defaults = dict(item_capacity=64, correlation_capacity=64)
    defaults.update(overrides)
    return OnlineAnalyzer(AnalyzerConfig(**defaults))


class TestTransactionProcessing:
    def test_pairs_from_one_transaction(self):
        analyzer = small_analyzer()
        analyzer.process([ext(1), ext(2), ext(3)])
        assert set(analyzer.pair_frequencies()) == {
            pair(1, 2), pair(1, 3), pair(2, 3)
        }

    def test_repeated_transaction_builds_frequency(self, simple_transactions):
        analyzer = small_analyzer()
        analyzer.process_stream(simple_transactions)
        frequencies = analyzer.pair_frequencies()
        assert frequencies[pair(10, 20, 1, 2)] == 3
        assert frequencies[pair(10, 30)] == 2

    def test_deduplicates_raw_input(self):
        analyzer = small_analyzer()
        analyzer.process([ext(1), ext(1), ext(2)])
        assert analyzer.pair_frequencies() == {pair(1, 2): 1}

    def test_singleton_transaction_creates_no_pairs(self):
        analyzer = small_analyzer()
        analyzer.process([ext(1)])
        assert analyzer.pair_frequencies() == {}
        assert analyzer.items.tally(ext(1)) == 1

    def test_empty_transaction_is_harmless(self):
        analyzer = small_analyzer()
        analyzer.process([])
        assert analyzer.report().transactions == 1
        assert analyzer.pair_frequencies() == {}

    def test_quadratic_pair_count(self):
        analyzer = small_analyzer(correlation_capacity=128)
        analyzer.process([ext(i * 10) for i in range(8)])
        assert len(analyzer.pair_frequencies()) == 28  # C(8, 2)
        assert analyzer.report().pairs_seen == 28


class TestFrequentOutputs:
    def test_frequent_pairs_sorted_strongest_first(self, simple_transactions):
        analyzer = small_analyzer()
        analyzer.process_stream(simple_transactions)
        detected = analyzer.frequent_pairs(min_support=2)
        tallies = [tally for _p, tally in detected]
        assert tallies == sorted(tallies, reverse=True)
        assert detected[0][0] == pair(10, 20, 1, 2)

    def test_frequent_extents(self, simple_transactions):
        analyzer = small_analyzer()
        analyzer.process_stream(simple_transactions)
        top_extent, top_tally = analyzer.frequent_extents(min_support=2)[0]
        assert top_extent == ext(10)
        assert top_tally == 4

    def test_min_support_filter(self, simple_transactions):
        analyzer = small_analyzer()
        analyzer.process_stream(simple_transactions)
        assert all(t >= 3 for _p, t in analyzer.frequent_pairs(3))


class TestEvictionCoupling:
    def test_item_eviction_demotes_pairs(self):
        """An extent falling out of the item table demotes its pairs."""
        analyzer = OnlineAnalyzer(
            AnalyzerConfig(item_capacity=1, correlation_capacity=8,
                           promote_threshold=100)
        )
        analyzer.process([ext(1), ext(2)])
        baseline = analyzer.correlations.stats.demotions
        # Flood the 2-entry item table so ext(1)/ext(2) get evicted.
        analyzer.process([ext(50), ext(60)])
        assert analyzer.correlations.stats.demotions > baseline

    def test_demotion_can_be_disabled(self):
        analyzer = OnlineAnalyzer(
            AnalyzerConfig(item_capacity=1, correlation_capacity=8,
                           demote_on_item_eviction=False)
        )
        analyzer.process([ext(1), ext(2)])
        analyzer.process([ext(50), ext(60)])
        assert analyzer.correlations.stats.demotions == 0


class TestBoundedMemory:
    def test_tables_never_exceed_capacity(self):
        analyzer = OnlineAnalyzer(
            AnalyzerConfig(item_capacity=4, correlation_capacity=4)
        )
        for i in range(200):
            analyzer.process([ext(i), ext(i + 1000), ext(i + 2000)])
        assert len(analyzer.items) <= analyzer.items.capacity
        assert len(analyzer.correlations) <= analyzer.correlations.capacity

    def test_hot_pair_survives_noise_flood(self):
        analyzer = OnlineAnalyzer(
            AnalyzerConfig(item_capacity=32, correlation_capacity=32)
        )
        hot = [ext(1), ext(500)]
        for i in range(50):
            analyzer.process(hot)
            analyzer.process([ext(10000 + 2 * i), ext(20000 + 2 * i)])
        frequencies = analyzer.pair_frequencies()
        assert frequencies.get(pair(1, 500), 0) >= 40


class TestReportAndReset:
    def test_report_counters(self, simple_transactions):
        analyzer = small_analyzer()
        analyzer.process_stream(simple_transactions)
        report = analyzer.report()
        assert report.transactions == len(simple_transactions)
        assert report.extents_seen == sum(len(set(t)) for t in simple_transactions)
        assert report.pairs_seen == sum(
            len(set(t)) * (len(set(t)) - 1) // 2 for t in simple_transactions
        )

    def test_reset(self, simple_transactions):
        analyzer = small_analyzer()
        analyzer.process_stream(simple_transactions)
        analyzer.reset()
        assert analyzer.report().transactions == 0
        assert analyzer.report().correlation_stats == TableStats()
        assert analyzer.pair_frequencies() == {}
        assert len(analyzer.items) == 0


class TestConfig:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            AnalyzerConfig(item_capacity=0)
        with pytest.raises(ValueError):
            AnalyzerConfig(correlation_capacity=-1)
        with pytest.raises(ValueError):
            AnalyzerConfig(t2_ratio=0.0)
        with pytest.raises(ValueError):
            AnalyzerConfig(t2_ratio=1.0)

    def test_equal_split_default(self):
        config = AnalyzerConfig()
        assert config.split(16) == (16, 16)

    def test_skewed_split_keeps_minimums(self):
        config = AnalyzerConfig(t2_ratio=0.99)
        t1, t2 = config.split(1)
        assert t1 >= 1 and t2 >= 1 and t1 + t2 == 2

    def test_split_ratio(self):
        config = AnalyzerConfig(t2_ratio=0.25)
        t1, t2 = config.split(100)
        assert t2 == 50 and t1 == 150  # 25% of the 200 total
