"""The counting kernel against the per-row oracle.

``vector_kernel.count_partition_columnar`` is the only counting code a
scan runs, so it is checked directly against the oracle in
``tests/core/oracle.py`` — ``PathCondition.matches`` +
``build_cc_from_rows`` — over everything a batch and a partition can
look like: antichains and overlapping slots, repeated ``<>`` and
contradictory ``=`` on one attribute, batches several mask limbs wide,
raw integer columns with and without NULLs, dictionary (string /
``None``) columns, sparse value ranges, an empty partition, a keep
mask, and slots that list different attributes.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.common.errors import MiddlewareError  # noqa: E402
from repro.core.cc_table import CCTable  # noqa: E402
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
)
from repro.datagen.dataset import DatasetSpec  # noqa: E402
from repro.sqlengine.columnar import ColumnarPartition  # noqa: E402
from repro.sqlengine.database import SQLServer  # noqa: E402
from repro.sqlengine.expr import eq  # noqa: E402
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
    """``(rows, condition_sets, attribute_lists, keep)`` of one
    partition and the batch counted over it."""
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
    keep = None
    if rows and draw(st.booleans()):
        keep = draw(st.lists(
            st.booleans(), min_size=len(rows), max_size=len(rows)
        ))
    return rows, condition_sets, attribute_lists, keep


def make_ctx(condition_sets, attribute_lists, n_classes=N_CLASSES,
             attr_index=ATTR_INDEX, class_index=CLASS_INDEX):
    kernel = RoutingKernel(condition_sets, attr_index)
    slots = tuple(
        (f"n{slot}", attributes,
         tuple((name, attr_index[name]) for name in attributes))
        for slot, attributes in enumerate(attribute_lists)
    )
    return (kernel, slots, class_index, n_classes)


class TestKernelAgainstTheOracle:
    @given(scans())
    @settings(max_examples=150, deadline=None)
    def test_counts_selections_and_routed_equal_the_oracle(self, scan):
        rows, condition_sets, attribute_lists, keep = scan
        ctx = make_ctx(condition_sets, attribute_lists)
        node_ids = [f"n{slot}" for slot in range(len(condition_sets))]
        _, payloads, routed, writes, captures, _ = count_partition_columnar(
            ctx, 0, ColumnarPartition.from_rows(rows), node_ids,
            node_ids[:1],
            keep=None if keep is None else np.asarray(keep, dtype=bool),
        )
        kept = [i for i in range(len(rows)) if keep is None or keep[i]]
        expected = oracle_counts(
            [rows[i] for i in kept], condition_sets, attribute_lists,
            NAMES, N_CLASSES,
        )
        matched = set()
        for node_id, payload, attributes, (reference, selected) in zip(
                node_ids, payloads, attribute_lists, expected):
            cc = CCTable(attributes, N_CLASSES)
            cc.merge_block(*payload)
            assert cc == reference
            assert cc.class_totals() == reference.class_totals()
            selection = writes[node_id].tolist()
            assert selection == [kept[i] for i in selected]
            assert selection == sorted(selection)
            matched.update(selected)
        assert routed == len(matched)
        assert captures["n0"].tolist() == writes["n0"].tolist()

    def test_empty_partition_counts_nothing(self):
        ctx = make_ctx([(), (PathCondition("A1", "=", 1),)],
                       [NAMES, ("A2",)])
        _, payloads, routed, writes, _, _ = count_partition_columnar(
            ctx, 0, ColumnarPartition.from_rows([]), ["n1"], []
        )
        assert routed == 0 and writes["n1"].size == 0
        assert payloads == [
            (0, [0, 0, 0], [(name, [], []) for name in NAMES]),
            (0, [0, 0, 0], [("A2", [], [])]),
        ]

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
        _, payloads, _, _, _, _ = count_partition_columnar(
            ctx, 0, partition, [], []
        )
        expected = oracle_counts(
            rows, condition_sets, [("A2",)] * n_slots, NAMES, N_CLASSES
        )
        for payload, (reference, _) in zip(payloads, expected):
            cc = CCTable(("A2",), N_CLASSES)
            cc.merge_block(*payload)
            assert cc == reference

    def test_slice_applies_the_pushed_filter_as_a_keep_mask(self):
        rows = [(i % 3, i % 2, 0, i % N_CLASSES) for i in range(40)]
        condition_sets = [(PathCondition("A1", "=", 1),), ()]
        ctx = make_ctx(condition_sets, [("A2",), ("A1", "A2")])
        result = count_partition_slice(
            ctx, 0, ColumnarPartition.from_rows(rows), 10, 30,
            (eq("A2", 1), ATTR_INDEX), ["n1"], [],
        )
        _, payloads, routed, writes, _, _, seen = result
        kept = [i for i in range(10, 30) if rows[i][1] == 1]
        assert seen == routed == len(kept)
        # Selections are relative to the slice.
        assert writes["n1"].tolist() == [i - 10 for i in kept]
        expected = oracle_counts(
            [rows[i] for i in kept], condition_sets,
            [("A2",), ("A1", "A2")], NAMES, N_CLASSES,
        )
        for payload, attributes, (reference, _) in zip(
                payloads, [("A2",), ("A1", "A2")], expected):
            cc = CCTable(attributes, N_CLASSES)
            cc.merge_block(*payload)
            assert cc == reference


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
        _, payloads, routed, _, _, _ = self._count(
            self._rows(bad_label, routed=False)
        )
        assert routed == 6
        assert payloads[0][:2] == (6, [2, 2, 2])

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
