"""Tests for synopsis checkpoint/restore."""

import io
import struct

import pytest

from repro.core.analyzer import OnlineAnalyzer
from repro.core.config import AnalyzerConfig
from repro.core.serialize import (
    CheckpointCorruptError,
    dump_analyzer,
    dumps_analyzer,
    load_analyzer,
    loads_analyzer,
    synopsis_size_bytes,
)

from conftest import ext, pair


def trained_analyzer(capacity=32):
    analyzer = OnlineAnalyzer(AnalyzerConfig(
        item_capacity=capacity, correlation_capacity=capacity
    ))
    for i in range(40):
        analyzer.process([ext(1), ext(2)])
        analyzer.process([ext(i * 10 + 100), ext(i * 10 + 5000)])
    return analyzer


class TestRoundtrip:
    def test_pair_frequencies_preserved(self):
        analyzer = trained_analyzer()
        restored = loads_analyzer(dumps_analyzer(analyzer))
        assert restored.pair_frequencies() == analyzer.pair_frequencies()

    def test_item_tallies_preserved(self):
        analyzer = trained_analyzer()
        restored = loads_analyzer(dumps_analyzer(analyzer))
        assert restored.items.items() == analyzer.items.items()

    def test_tier_membership_preserved(self):
        analyzer = trained_analyzer()
        restored = loads_analyzer(dumps_analyzer(analyzer))
        for extent, _tally, tier in analyzer.items.items():
            assert restored.items.tier_of(extent) == tier
        for pair, _tally, tier in analyzer.correlations.items():
            assert restored.correlations.tier_of(pair) == tier

    def test_lru_order_preserved(self):
        """The restored synopsis must evict in the same order."""
        analyzer = trained_analyzer(capacity=8)
        restored = loads_analyzer(dumps_analyzer(analyzer))
        original_order = analyzer.correlations._table.t1.keys_mru_order()
        restored_order = restored.correlations._table.t1.keys_mru_order()
        assert original_order == restored_order

    def test_restored_analyzer_keeps_learning(self):
        analyzer = trained_analyzer()
        restored = loads_analyzer(dumps_analyzer(analyzer))
        before = restored.correlations.tally(
            next(iter(restored.pair_frequencies()))
        )
        restored.process([ext(1), ext(2)])
        from conftest import pair
        assert restored.correlations.tally(pair(1, 2)) is not None
        assert restored.correlations.check_index()

    def test_capacities_and_threshold_preserved(self):
        analyzer = OnlineAnalyzer(AnalyzerConfig(
            item_capacity=16, correlation_capacity=64, promote_threshold=3
        ))
        analyzer.process([ext(1), ext(2)])
        restored = loads_analyzer(dumps_analyzer(analyzer))
        assert restored.items.capacity == analyzer.items.capacity
        assert restored.correlations.capacity == analyzer.correlations.capacity
        assert restored.config.promote_threshold == 3

    def test_empty_analyzer_roundtrip(self):
        analyzer = OnlineAnalyzer(AnalyzerConfig(
            item_capacity=8, correlation_capacity=8
        ))
        restored = loads_analyzer(dumps_analyzer(analyzer))
        assert restored.pair_frequencies() == {}


class TestFormat:
    def test_size_accounting(self):
        analyzer = trained_analyzer()
        data = dumps_analyzer(analyzer)
        assert len(data) == synopsis_size_bytes(analyzer)

    def test_size_tracks_paper_entry_layout(self):
        """Entries serialise at the paper's 16/28-byte sizes."""
        empty = OnlineAnalyzer(AnalyzerConfig(
            item_capacity=8, correlation_capacity=8
        ))
        base = len(dumps_analyzer(empty))
        empty.process([ext(1)])
        with_one_item = len(dumps_analyzer(empty))
        assert with_one_item - base == 16
        empty.process([ext(1), ext(2)])
        with_pair = len(dumps_analyzer(empty))
        assert with_pair - with_one_item == 16 + 28  # one item + one pair

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            load_analyzer(io.BytesIO(b"NOTASYNOPSIS"))

    def test_truncated_stream_rejected(self):
        data = dumps_analyzer(trained_analyzer())
        with pytest.raises(ValueError):
            loads_analyzer(data[:-10])

    def test_stream_dump(self):
        analyzer = trained_analyzer()
        buffer = io.BytesIO()
        written = dump_analyzer(analyzer, buffer)
        assert written == len(buffer.getvalue())


def v1_checkpoint(items_t1=(), items_t2=(), pairs_t1=(), pairs_t2=(),
                  capacity=8, promote=2):
    """A hand-built legacy checkpoint (``RTSYN\\x01``, no CRC).

    Items are ``(start, length, tally)`` rows, pairs
    ``(a_start, a_length, b_start, b_length, tally)`` rows; every tier
    holds ``capacity`` entries.
    """
    out = [b"RTSYN\x01", struct.pack(
        "<IIIIIIIII", capacity, capacity, capacity, capacity, promote,
        len(items_t1), len(items_t2), len(pairs_t1), len(pairs_t2),
    )]
    out += [struct.pack("<QII", *row) for row in (*items_t1, *items_t2)]
    out += [struct.pack("<QIQII", *row) for row in (*pairs_t1, *pairs_t2)]
    return b"".join(out)


class TestInconsistentTiers:
    """Tiers no access sequence produces are corrupt, not loadable."""

    def test_consistent_hand_built_file_loads(self):
        restored = loads_analyzer(v1_checkpoint(
            items_t1=[(1, 1, 1)], items_t2=[(2, 1, 5)],
            pairs_t1=[(1, 1, 2, 1, 1)], pairs_t2=[(1, 1, 3, 1, 7)],
            promote=3,
        ))
        assert restored.frequent_extents(1) == [(ext(2), 5), (ext(1), 1)]
        assert restored.frequent_pairs(1) == [
            (pair(1, 3), 7), (pair(1, 2), 1)]
        assert restored.correlations.check_index()

    @pytest.mark.parametrize("sections", [
        {"pairs_t1": [(1, 1, 2, 1, 1), (1, 1, 2, 1, 1)]},
        {"pairs_t2": [(1, 1, 2, 1, 3), (1, 1, 2, 1, 4)]},
        {"items_t1": [(5, 1, 1), (5, 1, 1)]},
        {"items_t2": [(5, 1, 3), (5, 1, 2)]},
        {"pairs_t1": [(1, 1, 2, 1, 1)], "pairs_t2": [(1, 1, 2, 1, 4)]},
        {"items_t1": [(5, 1, 1)], "items_t2": [(5, 1, 4)]},
    ], ids=["pair-twice-in-t1", "pair-twice-in-t2", "item-twice-in-t1",
            "item-twice-in-t2", "pair-in-both-tiers", "item-in-both-tiers"])
    def test_key_listed_twice_rejected(self, sections):
        with pytest.raises(CheckpointCorruptError, match="twice"):
            loads_analyzer(v1_checkpoint(**sections))

    @pytest.mark.parametrize("sections", [
        {"pairs_t1": [(1, 1, 2, 1, 7)]},
        {"pairs_t1": [(1, 1, 2, 1, 2)]},
        {"items_t1": [(5, 1, 7)]},
    ], ids=["pair-tally-7", "pair-tally-at-threshold", "item-tally-7"])
    def test_t1_tally_at_or_above_threshold_rejected(self, sections):
        with pytest.raises(CheckpointCorruptError, match="threshold 2"):
            loads_analyzer(v1_checkpoint(promote=2, **sections))
