"""Frequency sketches vs the two-tier synopsis.

Space-Saving and Count-Min are the canonical bounded-memory frequent-item
structures.  Two comparisons locate the paper's design against them:

1. **Capture** -- at equal entry budgets, how much true pair frequency does
   each structure's summary hold?  Pure-frequency sketches are excellent
   here (it is their guarantee).
2. **Adaptation** -- replay concept A then concept B (the Fig. 10 regime).
   Space-Saving's counters preserve A's accumulated frequencies forever,
   so B's pairs must climb over A's stale counts; the two-tier synopsis
   forgets via LRU and adapts immediately.  This isolates *why* the paper
   adds recency to a frequency structure.
"""

from repro.analysis.accuracy import detection_metrics
from repro.core.analyzer import OnlineAnalyzer
from repro.core.config import AnalyzerConfig
from repro.core.extent import Extent, ExtentPair, unique_pairs
from repro.core.sketches import SpaceSaving

from conftest import print_header, print_row, scaled


def test_capture_comparison(benchmark, enterprise_pipelines,
                            enterprise_ground_truth):
    transactions = enterprise_pipelines["hm"].offline_transactions()
    truth = enterprise_ground_truth["hm"]
    capacity = scaled(1024)

    def compute():
        synopsis = OnlineAnalyzer(AnalyzerConfig(
            item_capacity=capacity, correlation_capacity=capacity
        ))
        synopsis.process_stream(transactions)

        sketch = SpaceSaving(2 * capacity)  # same resident entries (2C)
        for extents in transactions:
            for pair in unique_pairs(extents):
                sketch.update(pair)
        return (
            list(synopsis.pair_frequencies()),
            [key for key, _c in sketch.frequent()],
        )

    synopsis_pairs, sketch_pairs = benchmark.pedantic(
        compute, rounds=1, iterations=1
    )
    synopsis_metrics = detection_metrics(truth, synopsis_pairs, 5)
    sketch_metrics = detection_metrics(truth, sketch_pairs, 5)

    print_header("Sketches: capture at equal entry budget (hm)")
    print_row("structure", "wght recall", "recall")
    print_row("two-tier", synopsis_metrics.weighted_recall,
              synopsis_metrics.recall)
    print_row("space-saving", sketch_metrics.weighted_recall,
              sketch_metrics.recall)

    # Both capture most of the frequent mass on a stationary stream; the
    # one-off tail churns Space-Saving's counters (every new pair takes
    # over the minimum), so the two-tier structure -- whose T1 absorbs the
    # tail -- comes out ahead.
    assert synopsis_metrics.weighted_recall > 0.9
    assert sketch_metrics.weighted_recall > 0.8
    assert synopsis_metrics.weighted_recall >= sketch_metrics.weighted_recall


def test_forgetting_comparison(benchmark):
    """Concept A floods, then concept B runs, with room for both: the
    frequency-only sketch ranks stale A on top forever (its counters never
    decay), while LRU recency lets the synopsis replace half its ranking
    with B within 200 transactions -- the Fig. 10 'forgetting' property."""

    def concept(base, rounds):
        return [
            [Extent(base + (i % 8) * 100, 8),
             Extent(base + (i % 8) * 100 + 50, 8)]
            for i in range(rounds)
        ]

    def compute():
        rounds_a = scaled(800)
        rounds_b = scaled(200)
        stream = concept(0, rounds_a) + concept(10_000_000, rounds_b)
        concept_a = {ExtentPair(t[0], t[1]) for t in concept(0, 8)}

        capacity = 8  # 16 resident entries: both 8-pair concepts fit
        synopsis = OnlineAnalyzer(AnalyzerConfig(
            item_capacity=capacity, correlation_capacity=capacity
        ))
        sketch = SpaceSaving(2 * capacity)
        for extents in stream:
            synopsis.process(extents)
            for pair in unique_pairs(extents):
                sketch.update(pair)

        def stale_fraction(top):
            if not top:
                return 0.0
            return sum(1 for key in top if key in concept_a) / len(top)

        synopsis_top = [p for p, _t in synopsis.frequent_pairs(1)[:8]]
        sketch_top = [k for k, _c in sketch.frequent()[:8]]
        return stale_fraction(synopsis_top), stale_fraction(sketch_top)

    synopsis_stale, sketch_stale = benchmark.pedantic(
        compute, rounds=1, iterations=1
    )

    print_header("Sketches: stale concept in top-8 after the switch")
    print_row("structure", "stale fraction")
    print_row("two-tier", synopsis_stale, widths=(14, 16))
    print_row("space-saving", sketch_stale, widths=(14, 16))

    # The sketch's ranking is still the old concept; the synopsis has
    # substantially moved on.
    assert sketch_stale >= 0.9
    assert synopsis_stale <= sketch_stale - 0.3
