"""Unit tests for the CC (counts) table."""

import pytest

from repro.common.errors import MiddlewareError
from repro.core.cc_table import (
    BYTES_PER_COUNT,
    PAIR_KEY_BYTES,
    CCTable,
    bytes_for_pairs,
)


def make_counted():
    """A CC table with three hand-counted records."""
    cc = CCTable(("A1", "A2"), 3)
    cc.count_row({"A1": 0, "A2": 1}, 0)
    cc.count_row({"A1": 0, "A2": 2}, 1)
    cc.count_row({"A1": 1, "A2": 1}, 1)
    return cc


class TestCounting:
    def test_records_and_class_totals(self):
        cc = make_counted()
        assert cc.records == 3
        assert cc.class_totals() == [1, 2, 0]

    def test_vectors(self):
        cc = make_counted()
        assert cc.vector("A1", 0) == [1, 1, 0]
        assert cc.vector("A1", 1) == [0, 1, 0]
        assert cc.vector("A2", 1) == [1, 1, 0]

    def test_unseen_pair_is_zero_vector(self):
        cc = make_counted()
        assert cc.vector("A1", 99) == [0, 0, 0]

    def test_count_row_returns_new_pairs(self):
        cc = CCTable(("A1", "A2"), 2)
        assert cc.count_row({"A1": 0, "A2": 0}, 0) == 2
        assert cc.count_row({"A1": 0, "A2": 1}, 0) == 1
        assert cc.count_row({"A1": 0, "A2": 1}, 1) == 0

    def test_would_add_pairs_is_prediction(self):
        cc = CCTable(("A1", "A2"), 2)
        cc.count_row({"A1": 0, "A2": 0}, 0)
        assert cc.would_add_pairs({"A1": 0, "A2": 5}) == 1
        assert cc.would_add_pairs({"A1": 7, "A2": 5}) == 2
        assert cc.would_add_pairs({"A1": 0, "A2": 0}) == 0

    def test_ignores_attributes_outside_its_list(self):
        cc = CCTable(("A1",), 2)
        cc.count_row({"A1": 0, "A2": 9}, 1)
        assert cc.values_of("A1") == [0]
        assert cc.n_pairs == 1


class TestCardinalities:
    def test_values_of_sorted(self):
        cc = make_counted()
        assert cc.values_of("A2") == [1, 2]

    def test_cardinality(self):
        cc = make_counted()
        assert cc.cardinality("A1") == 2
        assert cc.cardinality("A2") == 2

    def test_pair_count_by_attribute(self):
        cc = make_counted()
        assert cc.pair_count_by_attribute() == {"A1": 2, "A2": 2}

    def test_empty_table_lists_every_attribute(self):
        cc = CCTable(("A1", "A2"), 2)
        assert cc.pair_count_by_attribute() == {"A1": 0, "A2": 0}
        assert cc.values_of("A1") == [] and cc.values_of("nope") == []

    def test_reads_stay_current_across_every_kind_of_update(self):
        # The per-attribute view is kept between reads; every way of
        # adding counts must show up in the next read.
        cc = make_counted()
        view = cc.by_attribute()
        assert cc.by_attribute() is view  # nothing added: not rebuilt

        cc.count_row({"A1": 0, "A2": 1}, 1)  # no new pair
        assert list(cc.by_attribute()["A1"][0]) == cc.vector("A1", 0)
        cc.count_row({"A1": 5, "A2": 1}, 0)
        assert cc.values_of("A1") == [0, 1, 5]
        cc.count_row({"A1": 9, "A2": 1}, 1)
        assert cc.values_of("A1") == [0, 1, 5, 9]
        cc.add_counts("A2", None, 0, 3)
        assert cc.values_of("A2") == [None, 1, 2]
        other = CCTable(("A1", "A2"), 3)
        other.count_row({"A1": -1, "A2": 2}, 0)
        cc.merge(other)
        assert cc.cardinality("A1") == 5
        cc.merge_block(1, [1, 0, 0], [("A1", [7], [[1, 0, 0]]),
                                      ("A2", [2], [[1, 0, 0]])])
        assert cc.pair_count_by_attribute() == {"A1": 6, "A2": 3}
        for attribute, vectors in cc.by_attribute().items():
            for value, counts in vectors.items():
                assert list(counts) == cc.vector(attribute, value)


class TestSizeAccounting:
    def test_bytes_for_pairs_formula(self):
        assert bytes_for_pairs(5, 3) == 5 * (PAIR_KEY_BYTES + 3 * BYTES_PER_COUNT)

    def test_size_bytes_tracks_pairs(self):
        cc = make_counted()
        assert cc.n_pairs == 4
        assert cc.size_bytes == bytes_for_pairs(4, 3)


class TestRows:
    def test_rows_sorted_and_skip_zero(self):
        cc = make_counted()
        rows = cc.rows()
        assert rows == [
            ("A1", 0, 0, 1),
            ("A1", 0, 1, 1),
            ("A1", 1, 1, 1),
            ("A2", 1, 0, 1),
            ("A2", 1, 1, 1),
            ("A2", 2, 1, 1),
        ]

    def test_rows_counts_sum_to_records_per_attribute(self):
        cc = make_counted()
        for attribute in cc.attributes:
            total = sum(c for a, _, _, c in cc.rows() if a == attribute)
            assert total == cc.records


class TestBulkIngestion:
    def test_add_counts_and_set_records(self):
        cc = CCTable(("A1", "A2"), 2)
        cc.add_counts("A1", 0, 0, 3)
        cc.add_counts("A1", 1, 1, 2)
        cc.add_counts("A2", 5, 0, 3)
        cc.add_counts("A2", 6, 1, 2)
        cc.set_records(5)
        assert cc.records == 5
        assert cc.class_totals() == [3, 2]

    def test_set_records_validates_divisibility(self):
        cc = CCTable(("A1", "A2"), 2)
        cc.add_counts("A1", 0, 0, 3)  # missing the A2 side
        with pytest.raises(MiddlewareError):
            cc.set_records(3)

    def test_set_records_validates_total(self):
        cc = CCTable(("A1",), 2)
        cc.add_counts("A1", 0, 0, 3)
        with pytest.raises(MiddlewareError):
            cc.set_records(4)

    def test_add_counts_rejects_unknown_attribute(self):
        cc = CCTable(("A1",), 2)
        with pytest.raises(MiddlewareError):
            cc.add_counts("A9", 0, 0, 1)

    def test_add_counts_rejects_bad_class(self):
        cc = CCTable(("A1",), 2)
        with pytest.raises(MiddlewareError):
            cc.add_counts("A1", 0, 5, 1)


class TestMerge:
    def test_merge_adds_counts(self):
        a = CCTable(("A1",), 2)
        a.count_row({"A1": 0}, 0)
        b = CCTable(("A1",), 2)
        b.count_row({"A1": 0}, 1)
        b.count_row({"A1": 1}, 1)
        a.merge(b)
        assert a.records == 3
        assert a.vector("A1", 0) == [1, 1]
        assert a.vector("A1", 1) == [0, 1]
        assert a.class_totals() == [1, 2]

    def test_merge_shape_mismatch_rejected(self):
        a = CCTable(("A1",), 2)
        b = CCTable(("A2",), 2)
        with pytest.raises(MiddlewareError):
            a.merge(b)


class TestEquality:
    def test_equal_tables(self):
        assert make_counted() == make_counted()

    def test_different_counts_not_equal(self):
        a = make_counted()
        b = make_counted()
        b.count_row({"A1": 0, "A2": 1}, 0)
        assert a != b
