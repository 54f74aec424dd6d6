"""The counting kernel against the per-row oracle.

``vector_kernel.count_partition_columnar`` is the only counting code a
scan runs, so it is checked directly against the oracle in
``tests/core/oracle.py`` — ``PathCondition.matches`` +
``build_cc_from_rows`` — over everything a batch and a partition can
look like: antichains and overlapping slots, repeated ``<>`` and
contradictory ``=`` on one attribute, batches several mask limbs wide,
raw integer columns with and without NULLs, dictionary (string /
``None``) columns, sparse value ranges, and slots that list different
attributes — and over every way the rows can be cut
into partitions: each piece is encoded on its own (its own dictionary
codes, its own raw / dictionary choice, values that first appear in a
later piece, empty pieces) and the pieces fold, through
``CCTable.merge_block``, into the tables one scan of all the rows
gives.
"""

from types import SimpleNamespace

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.common.errors import MiddlewareError  # noqa: E402
from repro.core import vector_kernel  # noqa: E402
from repro.core.cc_table import BatchCounts, CCTable  # noqa: E402
from repro.core.config import MiddlewareConfig  # noqa: E402
from repro.core.filters import PathCondition, RoutingKernel  # noqa: E402
from repro.core.middleware import Middleware  # noqa: E402
from repro.core.requests import CountsRequest  # noqa: E402
from repro.core.vector_kernel import (  # noqa: E402
    LIMB_BITS,
    count_partition_columnar,
    count_partition_slice,
    route_masks,
    routed_pairs,
    slot_layout,
)
from repro.datagen.dataset import DatasetSpec  # noqa: E402
from repro.sqlengine.columnar import ColumnarPartition  # noqa: E402
from repro.sqlengine.database import SQLServer  # noqa: E402
from repro.sqlengine.schema import TableSchema  # noqa: E402

from .oracle import oracle_counts  # noqa: E402

NAMES = ("A1", "A2", "A3")
ATTR_INDEX = {name: i for i, name in enumerate(NAMES)}
CLASS_INDEX = len(NAMES)
N_CLASSES = 3

#: One value pool per column kind a partition can hold.
POOLS = {
    "raw": [0, 1, 2, 3],
    "raw-nulls": [None, 1, 2, 7],
    "dict": ["x", None, "y", "1", 1],
    "sparse": [0, 2 ** 40, -5, 17],
}


@st.composite
def scans(draw):
    """``(rows, condition_sets, attribute_lists, cuts)``: the rows
    of one source, the batch counted over it, and where the source is
    cut into partitions (equal cuts make an empty partition)."""
    pools = [POOLS[draw(st.sampled_from(sorted(POOLS)))] for _ in NAMES]
    row = st.tuples(*(st.sampled_from(pool) for pool in pools),
                    st.integers(0, N_CLASSES - 1))
    rows = draw(st.lists(row, max_size=50))
    condition = st.integers(0, len(NAMES) - 1).flatmap(
        lambda a: st.builds(
            PathCondition, st.just(NAMES[a]), st.sampled_from(["=", "<>"]),
            st.sampled_from(pools[a]),
        )
    )
    # Unconstrained condition lists overlap freely (and repeat an
    # attribute: several <>, contradictory =); an antichain splits on
    # one attribute's values, as a tree level does.  A wide batch draws
    # its slots from a few shapes (cheap to generate, and equal slots
    # are the extreme of overlapping).
    attributes = st.lists(
        st.sampled_from(NAMES), min_size=1, unique=True
    ).map(tuple)
    if draw(st.booleans()):
        shapes = draw(st.lists(
            st.tuples(st.lists(condition, max_size=3).map(tuple),
                      attributes),
            min_size=1, max_size=6,
        ))
        n_slots = draw(st.sampled_from([1, 2, 5, 63, 150]))
        picks = draw(st.lists(
            st.sampled_from(shapes), min_size=n_slots, max_size=n_slots
        ))
        condition_sets = [conditions for conditions, _ in picks]
        attribute_lists = [listed for _, listed in picks]
    else:
        prefix = tuple(draw(st.lists(condition, max_size=2)))
        condition_sets = [
            prefix + (PathCondition(NAMES[0], "=", value),)
            for value in pools[0]
        ]
        attribute_lists = [draw(attributes) for _ in condition_sets]
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    return rows, condition_sets, attribute_lists, cuts


def make_ctx(condition_sets, attribute_lists, n_classes=N_CLASSES,
             attr_index=ATTR_INDEX, class_index=CLASS_INDEX):
    kernel = RoutingKernel(condition_sets, attr_index)
    slots = slot_layout(
        [f"n{slot}" for slot in range(len(attribute_lists))],
        [[attr_index[name] for name in attributes]
         for attributes in attribute_lists],
        len(attr_index),
    )
    return (kernel, slots, class_index, n_classes)


def fold(payloads, attribute_lists, n_classes=N_CLASSES, names=NAMES):
    """The tables a scan cuts from its partitions' payloads."""
    counts = BatchCounts(len(attribute_lists), len(names), n_classes)
    for payload in payloads:
        CCTable.merge_block(counts, *payload)
    return counts.tables(attribute_lists, names)


class TestKernelAgainstTheOracle:
    @given(scans())
    @settings(max_examples=200, deadline=None)
    def test_counts_selections_and_routed_equal_the_oracle(self, scan):
        rows, condition_sets, attribute_lists, cuts = scan
        ctx = make_ctx(condition_sets, attribute_lists)
        node_ids = [f"n{slot}" for slot in range(len(condition_sets))]
        payloads, routed = [], 0
        selections = {node_id: [] for node_id in node_ids}
        captured = []
        for seq, (start, stop) in enumerate(
                zip([0] + cuts, cuts + [len(rows)])):
            _, payload, part_routed, writes, captures, _ = (
                count_partition_columnar(
                    ctx, seq, ColumnarPartition.from_rows(rows[start:stop]),
                    node_ids, node_ids[:1],
                )
            )
            payloads.append(payload)
            routed += part_routed
            for node_id in node_ids:
                selections[node_id] += (writes[node_id] + start).tolist()
            captured += (captures["n0"] + start).tolist()
        expected = oracle_counts(
            rows, condition_sets, attribute_lists, NAMES, N_CLASSES,
        )
        matched = set()
        for node_id, cc, (reference, selected) in zip(
                node_ids, fold(payloads, attribute_lists), expected):
            assert cc == reference
            assert cc.records == reference.records
            assert cc.class_totals() == reference.class_totals()
            # What Est_cc and the §4.1.1 reservations read.
            assert cc.n_pairs == reference.n_pairs
            assert cc.size_bytes == reference.size_bytes
            assert (cc.pair_count_by_attribute()
                    == reference.pair_count_by_attribute())
            assert cc.rows() == reference.rows()
            assert selections[node_id] == selected
            matched.update(selected)
        assert routed == len(matched)
        assert captured == selections["n0"]

    def test_empty_partition_counts_nothing(self):
        attribute_lists = [NAMES, ("A2",)]
        ctx = make_ctx([(), (PathCondition("A1", "=", 1),)], attribute_lists)
        _, payload, routed, writes, _, _ = count_partition_columnar(
            ctx, 0, ColumnarPartition.from_rows([]), ["n1"], []
        )
        assert routed == 0 and writes["n1"].size == 0
        records, totals, prefix, value_index, counts, values, dense = payload
        assert records.tolist() == [0, 0]
        assert totals.tolist() == [[0, 0, 0], [0, 0, 0]]
        assert prefix.size == value_index.size == 0 and values == []
        assert counts.shape == (0, N_CLASSES)
        assert dense.shape == (2, 0, N_CLASSES)  # no domain declared
        for cc, attributes in zip(fold([payload], attribute_lists),
                                  attribute_lists):
            assert cc == CCTable(attributes, N_CLASSES)
            assert cc.n_pairs == 0 and cc.values_of("A2") == []

    def test_a_value_first_met_in_a_later_partition(self):
        # One source, three encodings: a raw column, then a dictionary
        # whose codes start over, then a value no earlier piece held.
        pieces = [
            [(1, 0, 0, 0), (2, 0, 0, 1)],
            [("x", 0, 0, 2), (1, 0, 0, 0)],
            [(None, 0, 0, 1), ("x", 0, 0, 1), (2 ** 40, 0, 0, 0)],
        ]
        condition_sets = [(), (PathCondition("A1", "<>", 1),)]
        attribute_lists = [("A1", "A2"), ("A1",)]
        ctx = make_ctx(condition_sets, attribute_lists)
        kinds = set()
        payloads = []
        for seq, piece in enumerate(pieces):
            partition = ColumnarPartition.from_rows(piece)
            kinds.add((partition.columns[0].kind,
                       partition.columns[0].nulls is None))
            payloads.append(
                count_partition_columnar(ctx, seq, partition, [], [])[1]
            )
        assert len(kinds) == 2  # raw without NULLs, and dictionaries
        rows = [row for piece in pieces for row in piece]
        expected = oracle_counts(
            rows, condition_sets, attribute_lists, NAMES, N_CLASSES
        )
        tables = fold(payloads, attribute_lists)
        assert tables == [reference for reference, _ in expected]
        assert tables[0].values_of("A1") == [None, 1, 2, 2 ** 40, "x"]
        assert tables[0].vector("A1", "x") == [0, 1, 1]

    def test_payload_size_does_not_depend_on_the_batch_width(self):
        # The per-slot block lists are gone: a partition's payload is
        # the same few arrays for 3 slots or 300, one short list of
        # distinct values per attribute, and no Python list per pair.
        n_attributes = 25
        names = tuple(f"A{i}" for i in range(n_attributes))
        attr_index = {name: i for i, name in enumerate(names)}

        def payload_of(n_slots):
            rows = [
                (slot,) + tuple((slot + i) % 3 for i in range(1, 25))
                + (slot % N_CLASSES,)
                for slot in range(n_slots)
            ] * 2
            ctx = make_ctx(
                [(PathCondition("A0", "=", slot),)
                 for slot in range(n_slots)],
                [names[1:]] * n_slots, attr_index=attr_index,
                class_index=n_attributes,
            )
            payload = count_partition_columnar(
                ctx, 0, ColumnarPartition.from_rows(rows), [], []
            )[1]
            assert payload[4].shape == (24 * n_slots, N_CLASSES)
            return payload

        def shape(payload):
            *arrays, values, dense = payload
            assert all(isinstance(part, np.ndarray)
                       for part in (*arrays, dense))
            assert arrays[4].dtype == np.int64 and arrays[4].ndim == 2
            return (len(arrays), dense.shape[1:], [
                (position, len(distinct)) for position, distinct in values
            ])

        narrow, wide = payload_of(3), payload_of(300)
        assert shape(narrow) == shape(wide) == (
            5, (0, N_CLASSES), [(position, 3) for position in range(1, 25)]
        )

    def test_batch_wider_than_one_limb(self):
        # 150 siblings on one attribute: three mask limbs, every slot
        # still gets exactly its own rows.
        n_slots = 150
        assert n_slots > 2 * LIMB_BITS
        rows = [(value, value % 4, 0, value % N_CLASSES)
                for value in range(n_slots)] * 2
        condition_sets = [
            (PathCondition("A1", "=", value),) for value in range(n_slots)
        ]
        ctx = make_ctx(condition_sets, [("A2",)] * n_slots)
        partition = ColumnarPartition.from_rows(rows)
        masks = route_masks(ctx[0], partition)
        assert masks.shape == (3, len(rows))
        selected, bounds, routed = routed_pairs(masks, n_slots)
        assert routed == len(rows)
        assert np.diff(bounds).tolist() == [2] * n_slots
        assert selected.tolist() == [
            index for value in range(n_slots)
            for index in (value, value + n_slots)
        ]
        _, payload, _, _, _, _ = count_partition_columnar(
            ctx, 0, partition, [], []
        )
        expected = oracle_counts(
            rows, condition_sets, [("A2",)] * n_slots, NAMES, N_CLASSES
        )
        assert fold([payload], [("A2",)] * n_slots) == [
            reference for reference, _ in expected
        ]

    def test_slice_applies_the_pushed_filter_as_a_keep_mask(self):
        # A filtered kernel's route gives the rows its batch's pushed
        # filter keeps: seen is those rows, not the slice's.
        rows = [(i % 3, i % 2, 0, i % N_CLASSES) for i in range(40)]
        condition_sets = [(PathCondition("A2", "=", 1),
                           PathCondition("A1", "=", 1)),
                          (PathCondition("A2", "=", 1),
                           PathCondition("A1", "<>", 1))]
        kernel, slots, class_index, n_classes = make_ctx(
            condition_sets, [("A2",), ("A1", "A2")]
        )
        ctx = (RoutingKernel(condition_sets, ATTR_INDEX, filtered=True),
               slots, class_index, n_classes)
        result = count_partition_slice(
            ctx, 0, ColumnarPartition.from_rows(rows), 10, 30, ["n1"], [],
        )
        _, payload, routed, writes, _, _, seen = result
        kept = [i for i in range(10, 30) if rows[i][1] == 1]
        assert seen == routed == len(kept)
        # Selections are relative to the slice.
        assert writes["n1"].tolist() == [
            i - 10 for i in kept if rows[i][0] != 1
        ]
        expected = oracle_counts(
            rows[10:30], condition_sets, [("A2",), ("A1", "A2")], NAMES,
            N_CLASSES,
        )
        assert fold([payload], [("A2",), ("A1", "A2")]) == [
            reference for reference, _ in expected
        ]
        # Unfiltered, the same slice saw every row.
        assert count_partition_slice(
            (kernel, slots, class_index, n_classes), 0,
            ColumnarPartition.from_rows(rows), 10, 30, [], [],
        )[6] == 20

    def test_reported_seconds_are_the_counting_threads_cpu_time(
            self, monkeypatch):
        # A scan's worker_seconds must not hold a pool thread's waits
        # for the GIL: with wall time the staged plan's first scan
        # read 1.8-2.1x the mean partition, which says nothing about
        # the partition and differed from fit to fit.
        ticks = iter([10.0, 10.25, 20.0, 21.5])
        monkeypatch.setattr(vector_kernel, "time", SimpleNamespace(
            thread_time=lambda: next(ticks),
        ))
        rows = [(i % 3, i % 2, 0, i % N_CLASSES) for i in range(12)]
        ctx = make_ctx([()], [("A1",)])
        partition = ColumnarPartition.from_rows(rows)
        assert count_partition_columnar(ctx, 0, partition, [], [])[5] == 0.25
        # The slice entry times the slice, the route and the count.
        assert count_partition_slice(
            ctx, 0, partition, 0, 12, [], [],
        )[5] == 1.5


class TestClassLabelChecks:
    """Labels are checked on routed rows only, like a row loop would
    meet them — and a bad one is an error, never a wrong count."""

    #: Routes the rows with ``A1 = 1``; ``A1 = 0`` rows go nowhere.
    CONDITIONS = [(PathCondition("A1", "=", 1),)]

    def _count(self, rows):
        ctx = make_ctx(self.CONDITIONS, [("A2",)])
        return count_partition_columnar(
            ctx, 0, ColumnarPartition.from_rows(rows), [], []
        )

    def _rows(self, bad_label, routed):
        good = [(1, i % 2, 0, i % N_CLASSES) for i in range(6)]
        return good + [(1 if routed else 0, 0, 0, bad_label)]

    def test_null_label_in_a_routed_row(self):
        with pytest.raises(TypeError, match="NULL class label"):
            self._count(self._rows(None, routed=True))

    def test_non_integer_dictionary_label_in_a_routed_row(self):
        with pytest.raises(TypeError, match="'two' is not a plain integer"):
            self._count(self._rows("two", routed=True))

    def test_label_past_the_last_class(self):
        with pytest.raises(IndexError, match="class label 3 out of range"):
            self._count(self._rows(N_CLASSES, routed=True))
        # Dictionary-encoded (the column also holds a NULL, unrouted).
        rows = self._rows(7, routed=True) + [(0, 0, 0, None)]
        with pytest.raises(IndexError, match="class label 7 out of range"):
            self._count(rows)

    def test_negative_label_is_an_error_not_the_last_class(self):
        with pytest.raises(IndexError, match="class label -1 out of range"):
            self._count(self._rows(-1, routed=True))

    @pytest.mark.parametrize("bad_label", [None, "two", N_CLASSES, -1])
    def test_unrouted_bad_rows_raise_nothing(self, bad_label):
        _, payload, routed, _, _, _ = self._count(
            self._rows(bad_label, routed=False)
        )
        assert routed == 6
        assert payload[0].tolist() == [6]
        assert payload[1].tolist() == [[2, 2, 2]]

    def test_fit_over_a_negative_label_fails_naming_it(self):
        # Regression: tables load unvalidated by default, and both row
        # loops counted ``vector[-1]`` — the *last* class — so this scan
        # returned class_totals == [10, 10, 10] for 29 good rows.
        spec = DatasetSpec([3, 3], 3)
        rows = [(i % 3, (i // 3) % 3, i % 3) for i in range(30)]
        rows[17] = rows[17][:2] + (-1,)
        server = SQLServer()
        server.create_table("data", TableSchema.of(
            ("A1", "int"), ("A2", "int"), ("class", "int")
        ))
        server.bulk_load("data", rows)
        with Middleware(server, "data", spec, MiddlewareConfig()) as mw:
            mw.queue_request(CountsRequest(
                node_id="root", lineage=("root",), conditions=(),
                attributes=("A1", "A2"), n_rows=len(rows), est_cc_pairs=6,
            ))
            with pytest.raises(IndexError, match="class label -1"):
                mw.process_next_batch()
            assert mw.budget.used == 0 and len(mw.trace) == 0

    def test_the_oracles_counter_rejects_out_of_range_labels(self):
        cc = CCTable(("A1",), N_CLASSES)
        for label in (-1, N_CLASSES):
            with pytest.raises(MiddlewareError, match=f"label {label} out"):
                cc.count_row({"A1": 0}, label)
        assert cc.records == 0 and cc.n_pairs == 0
        assert cc.class_totals() == [0, 0, 0]
