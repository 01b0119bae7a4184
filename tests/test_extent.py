"""Tests for extents and extent pairs (paper Section II-A / Fig. 2)."""

import pickle

import pytest

from repro.core.extent import (
    Extent,
    ExtentPair,
    block_correlations,
    extent_of_row,
    pair_of_ordered,
    unique_pairs,
)


class TestExtent:
    def test_basic_properties(self):
        extent = Extent(100, 4)
        assert extent.start == 100
        assert extent.length == 4
        assert extent.end == 104
        assert list(extent.blocks()) == [100, 101, 102, 103]

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            Extent(-1, 4)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            Extent(0, 0)
        with pytest.raises(ValueError):
            Extent(0, -3)

    def test_contains_block(self):
        extent = Extent(10, 3)
        assert extent.contains_block(10)
        assert extent.contains_block(12)
        assert not extent.contains_block(13)
        assert not extent.contains_block(9)

    def test_overlaps(self):
        assert Extent(0, 10).overlaps(Extent(5, 10))
        assert Extent(5, 10).overlaps(Extent(0, 10))
        assert not Extent(0, 5).overlaps(Extent(5, 5))  # adjacency != overlap
        assert Extent(3, 1).overlaps(Extent(0, 10))     # containment

    def test_adjacency(self):
        assert Extent(0, 5).is_adjacent(Extent(5, 2))
        assert Extent(5, 2).is_adjacent(Extent(0, 5))
        assert not Extent(0, 5).is_adjacent(Extent(6, 2))
        assert not Extent(0, 5).is_adjacent(Extent(4, 2))

    def test_union_span(self):
        assert Extent(0, 2).union_span(Extent(10, 5)) == Extent(0, 15)
        assert Extent(10, 5).union_span(Extent(0, 2)) == Extent(0, 15)

    def test_intra_block_pairs_matches_paper_fig2(self):
        # Fig. 2: C(4, 2) = 6 intra pairs for 100+4, C(3, 2) = 3 for 200+3.
        assert Extent(100, 4).intra_block_pairs() == 6
        assert Extent(200, 3).intra_block_pairs() == 3
        assert Extent(0, 1).intra_block_pairs() == 0

    def test_string_notation_roundtrip(self):
        extent = Extent(100, 4)
        assert str(extent) == "100+4"
        assert Extent.parse("100+4") == extent

    def test_parse_rejects_garbage(self):
        for bad in ("", "100", "100-4", "a+b", "100+4+5"):
            with pytest.raises(ValueError):
                Extent.parse(bad)

    def test_ordering_is_lexicographic(self):
        assert Extent(1, 5) < Extent(2, 1)
        assert Extent(1, 2) < Extent(1, 3)

    def test_hashable_and_equal(self):
        assert Extent(5, 2) == Extent(5, 2)
        assert len({Extent(5, 2), Extent(5, 2), Extent(5, 3)}) == 2


class TestExtentPair:
    def test_canonical_orientation(self):
        a, b = Extent(200, 3), Extent(100, 4)
        pair = ExtentPair(a, b)
        assert pair.first == b
        assert pair.second == a
        assert ExtentPair(a, b) == ExtentPair(b, a)
        assert hash(ExtentPair(a, b)) == hash(ExtentPair(b, a))

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            ExtentPair(Extent(1, 1), Extent(1, 1))

    def test_involves_and_other(self):
        a, b = Extent(1, 1), Extent(2, 2)
        pair = ExtentPair(a, b)
        assert pair.involves(a) and pair.involves(b)
        assert not pair.involves(Extent(3, 1))
        assert pair.other(a) == b
        assert pair.other(b) == a
        with pytest.raises(ValueError):
            pair.other(Extent(3, 1))

    def test_inter_block_pairs_matches_paper_fig2(self):
        # Fig. 2: 4 x 3 = 12 inter-request block correlations.
        pair = ExtentPair(Extent(100, 4), Extent(200, 3))
        assert pair.inter_block_pairs() == 12
        assert len(list(pair.block_pairs())) == 12

    def test_block_pairs_contents(self):
        pair = ExtentPair(Extent(0, 2), Extent(10, 1))
        assert set(pair.block_pairs()) == {(0, 10), (1, 10)}


class TestKeyContract:
    """Extents and pairs are the plain tuples they hold, so the synopsis
    tables hash, compare and sort them in C -- and ``hash() % N`` shard
    routing is the same as when they hashed their field tuples."""

    def test_extent_hashes_and_equals_its_tuple(self):
        for start, length in ((0, 1), (100, 4), (2**40, 7)):
            assert hash(Extent(start, length)) == hash((start, length))
            assert Extent(start, length) == (start, length)

    def test_pair_hashes_like_its_ordered_member_tuple(self):
        a, b = Extent(200, 3), Extent(100, 4)
        assert hash(ExtentPair(a, b)) == hash((b, a))
        assert hash(ExtentPair(a, b)) == hash(((100, 4), (200, 3)))
        assert ExtentPair(a, b) == (b, a)

    def test_pickle_round_trip_keeps_type(self):
        extent = Extent(100, 4)
        pair = ExtentPair(Extent(200, 3), extent)
        for value in (extent, pair):
            restored = pickle.loads(pickle.dumps(value))
            assert restored == value
            assert type(restored) is type(value)
        assert type(pickle.loads(pickle.dumps(pair)).first) is Extent

    def test_validation_errors_unchanged(self):
        with pytest.raises(ValueError, match="extent start must be >= 0, got -1"):
            Extent(-1, 4)
        with pytest.raises(ValueError, match="extent length must be > 0, got 0"):
            Extent(0, 0)
        with pytest.raises(ValueError,
                           match=r"cannot be paired with itself: 1\+1"):
            ExtentPair(Extent(1, 1), Extent(1, 1))

    def test_str_and_repr_unchanged(self):
        pair = ExtentPair(Extent(200, 3), Extent(100, 4))
        assert str(pair) == "(100+4, 200+3)"
        assert repr(Extent(100, 4)) == "Extent(start=100, length=4)"
        assert repr(pair) == ("ExtentPair(first=Extent(start=100, length=4), "
                              "second=Extent(start=200, length=3))")

    def test_no_instance_dict(self):
        with pytest.raises(AttributeError):
            Extent(1, 1).tag = "x"

    def test_unchecked_constructors_build_the_same_keys(self):
        extent = extent_of_row((100, 4))
        assert type(extent) is Extent and extent == Extent(100, 4)
        a, b = Extent(100, 4), Extent(200, 3)
        pair = pair_of_ordered((a, b))
        assert type(pair) is ExtentPair and pair == ExtentPair(b, a)
        assert hash(pair) == hash(ExtentPair(b, a))


class TestUniquePairs:
    def test_counts_match_combinatorics(self):
        extents = [Extent(i * 10, 1) for i in range(5)]
        assert len(unique_pairs(extents)) == 10  # C(5, 2)

    def test_deduplicates_before_pairing(self):
        a, b = Extent(0, 1), Extent(10, 1)
        assert unique_pairs([a, a, b, b]) == [ExtentPair(a, b)]

    def test_empty_and_singleton(self):
        assert unique_pairs([]) == []
        assert unique_pairs([Extent(0, 1)]) == []

    def test_pairs_are_canonical_and_sorted(self):
        extents = [Extent(30, 1), Extent(10, 1), Extent(20, 1)]
        pairs = unique_pairs(extents)
        assert pairs == sorted(pairs)
        for p in pairs:
            assert p.first < p.second


class TestBlockCorrelations:
    def test_fig2_total(self):
        """Fig. 2's example: 9 intra + 12 inter = 21 block correlations."""
        correlations = block_correlations([Extent(100, 4), Extent(200, 3)])
        assert len(correlations) == 21

    def test_pairs_are_canonical(self):
        correlations = block_correlations([Extent(0, 2), Extent(5, 2)])
        for low, high in correlations:
            assert low < high

    def test_overlapping_extents_do_not_self_pair(self):
        correlations = block_correlations([Extent(0, 3), Extent(1, 3)])
        assert all(low != high for low, high in correlations)
