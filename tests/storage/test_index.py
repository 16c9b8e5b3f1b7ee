"""Unit tests for the relational secondary indexes."""

from __future__ import annotations

import pytest

from repro.storage.relational.index import HashIndex, SortedIndex


class TestHashIndex:
    def test_insert_and_lookup(self):
        index = HashIndex("name")
        index.insert("a", 0)
        index.insert("b", 1)
        index.insert("a", 2)
        assert index.lookup("a") == [0, 2]
        assert index.lookup("b") == [1]
        assert index.lookup("missing") == []

    def test_lookup_many_deduplicates_and_sorts(self):
        index = HashIndex("name")
        index.insert("a", 3)
        index.insert("b", 1)
        index.insert("a", 2)
        assert index.lookup_many(["a", "b", "a"]) == [1, 2, 3]

    def test_len_and_distinct(self):
        index = HashIndex("name")
        index.insert("a", 0)
        index.insert("a", 1)
        index.insert("b", 2)
        assert len(index) == 3
        assert index.distinct_values() == 2

    def test_none_values_are_indexable(self):
        index = HashIndex("name")
        index.insert(None, 0)
        assert index.lookup(None) == [0]

    def test_lookup_returns_a_copy_not_internal_state(self):
        index = HashIndex("name")
        index.insert("a", 0)
        bucket = index.lookup("a")
        bucket.append(99)
        bucket.clear()
        assert index.lookup("a") == [0]
        assert len(index) == 1

    def test_lookup_miss_returns_fresh_list(self):
        index = HashIndex("name")
        missing = index.lookup("nope")
        missing.append(7)
        assert index.lookup("nope") == []
        assert len(index) == 0

    def test_len_tracks_inserts_incrementally(self):
        index = HashIndex("name")
        for position in range(50):
            index.insert(f"v{position % 5}", position)
            assert len(index) == position + 1


class TestSortedIndex:
    def test_range_inclusive(self):
        index = SortedIndex("t")
        for position, value in enumerate([50, 10, 30, 20, 40]):
            index.insert(value, position)
        assert sorted(index.range(20, 40)) == [2, 3, 4]

    def test_open_ended_ranges(self):
        index = SortedIndex("t")
        for position, value in enumerate([1, 2, 3]):
            index.insert(value, position)
        assert list(index.range(None, 2)) == [0, 1]
        assert list(index.range(2, None)) == [1, 2]
        assert list(index.range()) == [0, 1, 2]

    def test_lookup_exact(self):
        index = SortedIndex("t")
        index.insert(5, 0)
        index.insert(5, 1)
        index.insert(6, 2)
        assert index.lookup(5) == [0, 1]

    def test_none_values_skipped(self):
        index = SortedIndex("t")
        index.insert(None, 0)
        index.insert(1, 1)
        assert len(index) == 1

    def test_min_max(self):
        index = SortedIndex("t")
        assert index.min_value() is None
        index.insert(7, 0)
        index.insert(3, 1)
        assert index.min_value() == 3
        assert index.max_value() == 7

    def test_duplicate_values_all_returned(self):
        index = SortedIndex("t")
        for position in range(5):
            index.insert(9, position)
        assert sorted(index.range(9, 9)) == [0, 1, 2, 3, 4]


class TestSortedIndexCount:
    @staticmethod
    def _index(values) -> SortedIndex:
        index = SortedIndex("t")
        for position, value in enumerate(values):
            index.insert(value, position)
        return index

    def test_count_equals_range_length(self):
        index = self._index([50, 10, 30, 20, 40])
        for low, high in [(20, 40), (10, 50), (11, 19), (0, 100), (30, 30)]:
            assert index.count(low, high) == len(list(index.range(low, high)))
        assert index.count(20, 40) == 3

    def test_open_bounds(self):
        index = self._index([1, 2, 3, None])
        assert index.count() == 3
        assert index.count(None, 2) == 2
        assert index.count(2, None) == 2
        assert index.count(4, None) == 0

    def test_empty_index(self):
        index = SortedIndex("t")
        assert index.count() == 0
        assert index.count(1, 2) == 0
        assert list(index.range(1, 2)) == []

    def test_duplicate_values(self):
        index = self._index([9, 9, 9, 8, 10])
        assert index.count(9, 9) == 3
        assert index.count(8, 9) == 4

    def test_low_above_high_counts_nothing(self):
        index = self._index([1, 2, 3])
        assert index.count(3, 1) == 0
        assert list(index.range(3, 1)) == []

    def test_bound_of_another_type_raises(self):
        index = self._index([1, 2, 3])
        with pytest.raises(TypeError):
            index.count("2", None)
