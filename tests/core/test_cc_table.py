"""Unit tests for the CC (counts) table."""

import pytest

from repro.common.errors import MiddlewareError
from repro.core.cc_table import (
    BYTES_PER_COUNT,
    PAIR_KEY_BYTES,
    BatchCounts,
    CCTable,
    bytes_for_pairs,
)

np = pytest.importorskip("numpy")


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
        # Reads go through the array form, writes through a buffer;
        # every way of adding counts must show up in the next read.
        cc = make_counted()
        assert cc.counts is cc.counts  # nothing added: not rebuilt

        cc.count_row({"A1": 0, "A2": 1}, 1)  # no new pair
        assert cc.vector("A1", 0) == [1, 2, 0]
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
        assert cc.pair_count_by_attribute() == {"A1": 5, "A2": 3}
        assert cc.n_pairs == len(cc.counts) == 8
        for row, counts in enumerate(cc.counts.tolist()):
            assert counts == cc.vector(*cc.pair(row))


class TestArrayForm:
    def test_counts_rows_are_the_pairs_grouped_by_attribute(self):
        cc = make_counted()
        assert cc.counts.shape == (4, 3) and cc.counts.dtype == "int64"
        pairs = [cc.pair(row) for row in range(cc.n_pairs)]
        assert sorted(pairs) == [("A1", 0), ("A1", 1), ("A2", 1), ("A2", 2)]
        # An attribute's pairs are adjacent.
        assert [a for a, _ in pairs] == sorted(a for a, _ in pairs)
        with pytest.raises(IndexError):
            cc.pair(4)
        with pytest.raises(IndexError):
            cc.pair(-1)

    def test_counts_are_read_only(self):
        cc = make_counted()
        with pytest.raises(ValueError, match="read-only"):
            cc.counts[0, 0] = 99
        assert cc.vector(*cc.pair(0))[0] != 99

    def test_empty_table(self):
        cc = CCTable(("A1", "A2"), 3)
        assert cc.counts.shape == (0, 3) and cc.n_pairs == 0
        assert cc.rows() == [] and cc == CCTable(("A1", "A2"), 3)

    def test_equality_ignores_the_order_pairs_were_counted_in(self):
        forward, backward = CCTable(("A",), 2), CCTable(("A",), 2)
        rows = [("x", 0), (None, 1), (3, 1), ("x", 1)]
        for value, label in rows:
            forward.count_row({"A": value}, label)
        for value, label in reversed(rows):
            backward.count_row({"A": value}, label)
        assert forward == backward
        assert forward.values_of("A") == [None, 3, "x"]

    def test_vectors_of_lines_up_with_values_of(self):
        _, (first, _, third) = batch_tables()
        tables = [first, third]
        cc = CCTable(("A",), 2)
        for value, label in [("x", 0), (None, 1), (3, 1), ("x", 1)]:
            cc.count_row({"A": value}, label)
        assert cc.vectors_of("A") == [[0, 1], [0, 1], [1, 1]]
        tables.append(cc)
        for table in tables:
            for attribute in ("A", "A1", "A2"):
                assert table.vectors_of(attribute) == [
                    table.vector(attribute, value)
                    for value in table.values_of(attribute)
                ]
        # Copies: writing one does not write the table.
        cc.vectors_of("A")[0][0] = 99
        assert cc.vector("A", None) == [0, 1]

    def test_reading_without_numpy_is_one_clear_error(self, monkeypatch):
        from repro.common.errors import MiddlewareError
        from repro.core import cc_table

        cc = make_counted()  # the writers need no numpy
        monkeypatch.setattr(cc_table, "np", None)
        with pytest.raises(MiddlewareError, match="numpy is not importable"):
            cc.n_pairs
        with pytest.raises(MiddlewareError, match="numpy is not importable"):
            cc.rows()


def batch_tables():
    """Three sibling tables cut from one batch (the scan's form), and
    the batch: slots 0 and 1 list both attributes, slot 2 only A2."""
    counts = BatchCounts(3, 2, 2)
    payload = (
        np.array([3, 2, 1]), np.array([[2, 1], [0, 2], [1, 0]]),
        # key prefix = slot * 2 + column
        np.array([0, 0, 1, 2, 3, 5]), np.array([0, 1, 2, 0, 2, 3]),
        np.array([[2, 0], [0, 1], [2, 1], [0, 2], [0, 2], [1, 0]]),
        [(0, ["x", None]), (1, [7, 8])],
    )
    CCTable.merge_block(counts, *payload)
    attribute_lists = [("A1", "A2"), ("A1", "A2"), ("A2",)]
    names = ("A1", "A2")
    return counts, counts.tables(attribute_lists, names)


class TestTablesCutFromABatch:
    def test_each_table_reads_its_own_rows(self):
        _, (first, second, third) = batch_tables()
        assert first.rows() == [
            ("A1", None, 1, 1), ("A1", "x", 0, 2),
            ("A2", 7, 0, 2), ("A2", 7, 1, 1),
        ]
        assert second.rows() == [("A1", "x", 1, 2), ("A2", 7, 1, 2)]
        assert third.rows() == [("A2", 8, 0, 1)]
        assert third.attributes == ("A2",) and third.cardinality("A1") == 0
        assert (first.records, second.records, third.records) == (3, 2, 1)
        assert first.class_totals() == [2, 1]
        assert first.pair_count_by_attribute() == {"A1": 2, "A2": 1}

    def test_a_table_equals_its_row_at_a_time_twin(self):
        _, (first, _, _) = batch_tables()
        twin = CCTable(("A1", "A2"), 2)
        for a1, label in [("x", 0), ("x", 0), (None, 1)]:
            twin.count_row({"A1": a1, "A2": 7}, label)
        assert first == twin and twin == first
        assert first.size_bytes == twin.size_bytes

    @pytest.mark.parametrize("write", ["merge", "add_counts", "count_row"])
    def test_a_write_to_one_table_leaves_its_siblings_alone(self, write):
        counts, tables = batch_tables()
        _, untouched = batch_tables()
        before = counts.counts.copy()
        first = tables[0]
        if write == "merge":
            first.merge(tables[1])
        elif write == "add_counts":
            first.add_counts("A1", "x", 0, 5)    # an existing pair
            first.add_counts("A2", "new", 1, 5)  # a new one
        else:
            first.count_row({"A1": "x", "A2": 8}, 1)
        assert first != untouched[0]
        assert tables[1:] == untouched[1:]
        assert (counts.counts == before).all()
        # The written table reads as one table again.
        assert first.n_pairs == len(first.counts)
        assert first.vector("A1", "x")[0] >= 2

    def test_a_second_partition_adds_and_inserts(self):
        counts = BatchCounts(3, 2, 2)
        first = (np.array([1, 0, 0]), np.array([[1, 0], [0, 0], [0, 0]]),
                 np.array([0]), np.array([0]), np.array([[1, 0]]),
                 [(0, ["x"])])
        # Own dictionary: "y" is new to the scan, "x" has index 1 here.
        second = (np.array([2, 1, 0]), np.array([[1, 1], [0, 1], [0, 0]]),
                  np.array([0, 0, 2]), np.array([0, 1, 0]),
                  np.array([[0, 1], [1, 0], [0, 1]]), [(0, ["y", "x"])])
        CCTable.merge_block(counts, *first)
        CCTable.merge_block(counts, *second)
        tables = counts.tables([("A1",)] * 3, ("A1", "A2"))
        assert tables[0].rows() == [
            ("A1", "x", 0, 2), ("A1", "y", 1, 1),
        ]
        assert tables[0].records == 3
        assert tables[1].rows() == [("A1", "y", 1, 1)]
        assert tables[2].n_pairs == 0 and tables[2].records == 0


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
