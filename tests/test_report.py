"""Tests for the one-shot characterization report."""

import pytest

from repro.analysis.report import build_report, render_report
from repro.analysis.sequential import PatternKind
from repro.core.typed import CorrelationKind


@pytest.fixture(scope="module")
def report(small_synthetic):
    records, _truth = small_synthetic
    return build_report(records, support=5, capacity=2048, top=10)


class TestBuildReport:
    def test_sections_populated(self, report, small_synthetic):
        records, truth = small_synthetic
        assert report.trace_stats.requests == len(records)
        assert report.monitor_stats.transactions_emitted > 0
        assert report.detected_correlations >= len(truth.pairs)
        assert report.support == 5
        assert report.capacity == 2048

    def test_top_pairs_contain_planted(self, report, small_synthetic):
        _records, truth = small_synthetic
        top = {pair for pair, _t in report.top_pairs}
        assert truth.pairs[0] in top

    def test_rules_derived(self, report):
        assert report.rules
        assert all(rule.confidence >= 0.5 for rule in report.rules)

    def test_kind_summary_counts_residents(self, report):
        assert sum(report.kind_summary.values()) > 0
        assert set(report.kind_summary) == set(CorrelationKind)

    def test_pattern_composition_sums(self, report):
        composition = report.pattern_composition
        assert composition.total_pairs == report.detected_correlations
        total = sum(composition.fraction(kind) for kind in PatternKind)
        assert total == pytest.approx(1.0)

    def test_cdf_attached(self, report):
        assert report.cdf is not None
        assert report.cdf.total_pairs > 0


class TestRenderReport:
    def test_renders_all_sections(self, report):
        text = render_report(report, name="demo")
        for heading in ("[workload]", "[monitoring]", "[correlations]",
                        "[top correlations]", "[rules]"):
            assert heading in text
        assert "demo" in text

    def test_renders_pairs_and_rules(self, report):
        text = render_report(report)
        assert "->" in text           # at least one rule
        assert " x" in text           # at least one pair tally


class TestPipelineInjection:
    def test_injected_typed_analyzer_receives_transactions(
        self, small_synthetic
    ):
        from repro.core.config import AnalyzerConfig
        from repro.core.typed import TypedOnlineAnalyzer
        from repro.pipeline import run_pipeline

        records, truth = small_synthetic
        analyzer = TypedOnlineAnalyzer(AnalyzerConfig(
            item_capacity=2048, correlation_capacity=2048
        ))
        result = run_pipeline(records, analyzer=analyzer,
                              record_offline=False)
        assert result.analyzer is analyzer
        assert analyzer.report().transactions > 0
        # Types were recorded (the synthetic workload mixes R and W).
        assert sum(analyzer.kind_summary().values()) > 0

    def test_config_and_analyzer_are_exclusive(self, small_synthetic):
        from repro.core.analyzer import OnlineAnalyzer
        from repro.core.config import AnalyzerConfig
        from repro.pipeline import run_pipeline

        records, _truth = small_synthetic
        with pytest.raises(ValueError):
            run_pipeline(records, config=AnalyzerConfig(),
                         analyzer=OnlineAnalyzer())
        # A pre-built analyzer keeps its layout: shard flags are refused
        # instead of being dropped.
        with pytest.raises(ValueError):
            run_pipeline(records, shards=2, analyzer=OnlineAnalyzer())
        with pytest.raises(ValueError):
            run_pipeline(records, shard_processes=True,
                         analyzer=OnlineAnalyzer())

    def test_analyzer_reuse_across_runs(self, small_synthetic):
        """Continuous operation: the same synopsis carries over."""
        from repro.core.analyzer import OnlineAnalyzer
        from repro.core.config import AnalyzerConfig
        from repro.pipeline import run_pipeline

        records, _truth = small_synthetic
        analyzer = OnlineAnalyzer(AnalyzerConfig(
            item_capacity=2048, correlation_capacity=2048
        ))
        run_pipeline(records, analyzer=analyzer, record_offline=False)
        first = analyzer.report().transactions
        run_pipeline(records, analyzer=analyzer, record_offline=False)
        assert analyzer.report().transactions > first
