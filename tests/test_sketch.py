"""Tests for the Space-Saving and Count-Min sketch baselines."""

import random
from collections import Counter

import pytest

from repro.core.sketches import CountMinParams, CountMinSketch, SpaceSaving


class TestSpaceSaving:
    def test_exact_when_under_capacity(self):
        sketch = SpaceSaving(8)
        for key in ("a", "b", "a", "c", "a"):
            sketch.update(key)
        assert sketch.count("a") == 3
        assert sketch.count("b") == 1
        assert sketch.error("a") == 0

    def test_capacity_bound(self):
        sketch = SpaceSaving(4)
        for i in range(100):
            sketch.update(i)
        assert len(sketch) <= 4

    def test_replacement_inherits_minimum(self):
        sketch = SpaceSaving(2)
        sketch.update("a")
        sketch.update("a")
        sketch.update("b")
        sketch.update("c")  # replaces b (count 1) -> c estimated 2, error 1
        assert sketch.count("c") == 2
        assert sketch.error("c") == 1
        assert sketch.guaranteed_count("c") == 1
        assert "b" not in sketch

    def test_never_underestimates_tracked_keys(self):
        rng = random.Random(7)
        sketch = SpaceSaving(16)
        truth = Counter()
        population = [rng.randrange(40) for _ in range(2000)]
        for key in population:
            truth[key] += 1
            sketch.update(key)
        for key, estimate in sketch.frequent():
            assert estimate >= truth[key]
            assert sketch.guaranteed_count(key) <= truth[key]

    def test_heavy_hitter_guarantee(self):
        """Every key with true count > N/capacity must be tracked."""
        rng = random.Random(9)
        capacity = 10
        sketch = SpaceSaving(capacity)
        truth = Counter()
        stream = (["hot"] * 500
                  + [f"x{rng.randrange(1000)}" for _ in range(1500)])
        rng.shuffle(stream)
        for key in stream:
            truth[key] += 1
            sketch.update(key)
        threshold = sketch.total / capacity
        for key, count in truth.items():
            if count > threshold:
                assert key in sketch

    def test_frequent_sorted(self):
        sketch = SpaceSaving(8)
        for key, repeats in (("a", 5), ("b", 2), ("c", 8)):
            for _ in range(repeats):
                sketch.update(key)
        top = sketch.frequent(min_count=3)
        assert [key for key, _c in top] == ["c", "a"]

    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceSaving(0)
        sketch = SpaceSaving(2)
        with pytest.raises(ValueError):
            sketch.update("a", increment=0)


class TestCountMin:
    def test_never_underestimates(self):
        rng = random.Random(5)
        sketch = CountMinSketch(CountMinParams(width=64, depth=4))
        truth = Counter()
        for _ in range(3000):
            key = rng.randrange(200)
            truth[key] += 1
            sketch.update(key)
        for key, count in truth.items():
            assert sketch.count(key) >= count

    def test_overestimate_bounded_on_wide_sketch(self):
        rng = random.Random(6)
        sketch = CountMinSketch(CountMinParams(width=4096, depth=4))
        truth = Counter()
        for _ in range(2000):
            key = rng.randrange(100)
            truth[key] += 1
            sketch.update(key)
        # With width >> distinct keys, estimates are essentially exact.
        for key, count in truth.items():
            assert sketch.count(key) - count <= 2

    def test_conservative_update_never_underestimates(self):
        rng = random.Random(7)
        plain = CountMinSketch(CountMinParams(width=64, depth=4))
        conservative = CountMinSketch(CountMinParams(width=64, depth=4),
                                      conservative=True)
        truth = Counter()
        for _ in range(3000):
            key = rng.randrange(200)
            truth[key] += 1
            plain.update(key)
            conservative.update(key)
        for key, count in truth.items():
            assert conservative.count(key) >= count
            # Conservative update only ever skips increments the plain
            # rule would apply, so its estimates cannot be looser.
            assert conservative.count(key) <= plain.count(key)
        total_error = lambda sketch: sum(
            sketch.count(key) - count for key, count in truth.items()
        )
        assert total_error(conservative) < total_error(plain)

    def test_untouched_key_can_be_zero(self):
        sketch = CountMinSketch(CountMinParams(width=1024, depth=4))
        sketch.update("a")
        assert sketch.count("never-seen") >= 0

    def test_heavy_hitters_tracking(self):
        sketch = CountMinSketch(CountMinParams(width=512, depth=4),
                                track_top=3)
        for key, repeats in (("a", 30), ("b", 20), ("c", 10), ("d", 1)):
            for _ in range(repeats):
                sketch.update(key)
        hitters = sketch.heavy_hitters(min_count=5)
        assert [key for key, _c in hitters] == ["a", "b", "c"]

    def test_top_tracking_bounded(self):
        sketch = CountMinSketch(CountMinParams(width=256, depth=2),
                                track_top=5)
        for i in range(1000):
            sketch.update(f"k{i}")
        assert len(sketch._top) <= 10

    def test_memory_counters(self):
        sketch = CountMinSketch(CountMinParams(width=100, depth=3))
        assert sketch.memory_counters == 300

    def test_validation(self):
        with pytest.raises(ValueError):
            CountMinParams(width=0)
        sketch = CountMinSketch()
        with pytest.raises(ValueError):
            sketch.update("a", increment=0)
