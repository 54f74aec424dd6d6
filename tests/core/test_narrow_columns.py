"""RAW columns are stored as narrow as their range: nothing else moves.

``_encode_column`` keeps a raw integer column in the narrowest signed
dtype that holds its minimum and maximum (int8 / int16 / int32 /
int64).  Every consumer must read such a column exactly as it reads
the int64 one it replaced, so each check here runs the same operation
over the narrow encoding and over an int64 *reference* of it (same
values, same null mask, widened) and compares: boundary values on both
sides of every dtype edge, NULL-masked and empty columns, through
``slice`` / ``take`` / ``concat``, the shared-memory buffer layout, the
staged-record check, the keep-mask (out-of-dtype literals included),
``group_counts`` and the counting kernel, whose filtered route keeps
what the keep-mask keeps.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.core.filters import (  # noqa: E402
    PathCondition,
    RoutingKernel,
    batch_filter,
    path_predicate,
)
from repro.core.staging import _int32_values  # noqa: E402
from repro.core.vector_kernel import (  # noqa: E402
    count_partition_columnar,
    count_partition_slice,
    route_tables,
    slot_layout,
)
from repro.sqlengine.columnar import (  # noqa: E402
    DICT,
    RAW,
    Column,
    ColumnarPartition,
    _encode_column,
    group_counts,
    partition_domains,
    predicate_mask,
)
from repro.sqlengine.expr import all_of, any_of, eq, ne  # noqa: E402

I64_MAX = 2**63 - 1
I64_MIN = -(2**63)

#: (values, dtype the column is stored in).
COLUMNS = [
    ([0, 127, -128], np.int8),
    ([0, 128], np.int16),
    ([-129, 0], np.int16),
    ([-(2**15), 2**15 - 1], np.int16),
    ([0, 2**15], np.int32),
    ([0, 2**31 - 1, -(2**31)], np.int32),
    ([0, 2**31], np.int64),
    ([I64_MIN, I64_MAX], np.int64),
    ([None, 127, None, -128], np.int8),
    ([None, 128], np.int16),
    ([None, 2**31, None], np.int64),
    ([None, None], np.int8),
    ([], np.int8),
]
IDS = [repr(values) for values, _ in COLUMNS]


def widened(column):
    """The int64 reference of a RAW column: same values and nulls."""
    return Column(RAW, column.data.astype(np.int64), nulls=column.nulls)


def reference(partition):
    return ColumnarPartition(
        partition.n_rows, tuple(widened(c) for c in partition.columns)
    )


def decoded(column):
    return column.values_at(slice(None))


@pytest.mark.parametrize("values, dtype", COLUMNS, ids=IDS)
class TestOneColumn:
    def test_narrowest_dtype_and_exact_round_trip(self, values, dtype):
        column = _encode_column(values)
        assert column.kind == RAW
        assert column.data.dtype == dtype
        assert (column.nulls is not None) == (None in values or not values)
        assert decoded(column) == values
        assert all(type(v) in (int, type(None)) for v in decoded(column))

    def test_slice_and_take_keep_dtype_and_values(self, values, dtype):
        column = _encode_column(values)
        wide = widened(column)
        for start in range(len(values) + 1):
            part = column.slice(start, len(values))
            assert part.data.dtype == dtype
            assert decoded(part) == decoded(wide.slice(start, len(values)))
        picked = np.arange(len(values))[::-1]
        assert column.take(picked).data.dtype == dtype
        assert decoded(column.take(picked)) == values[::-1]

    def test_staged_record_check_matches_int64(self, values, dtype):
        column = _encode_column(values)
        numbers, refused = _int32_values(column)
        wide_numbers, wide_refused = _int32_values(widened(column))
        assert refused.tolist() == wide_refused.tolist()
        keep = ~refused
        assert numbers[keep].tolist() == wide_numbers[keep].tolist()
        assert refused.tolist() == [
            v is None or not -(2**31) <= v < 2**31 for v in values
        ]


@pytest.mark.parametrize("values", [[2**63], [0, 2**64], [None, 2**63]])
def test_a_range_beyond_int64_is_a_dictionary(values):
    # numpy probes [2**63] as uint64; a cast to int64 wrapped it to
    # -2**63 before the range was checked.
    column = _encode_column(values)
    assert column.kind == DICT
    assert decoded(column) == values


def boundary_rows():
    """Rows whose columns cross every dtype edge, plus a class label.

    Repeated so that a range like int8's 256 values is narrower than
    the row count allows for shifting (``_ordered_codes``'s bound): the
    codes are then ``value - minimum``, which wraps unless widened.
    """
    a = [-128, 127, 0, 127, -128, 5, 0, 127]               # int8
    b = [128, -129, None, 300, 128, None, -129, 0]          # int16 + NULL
    c = [2**31, 0, -5, I64_MAX, 2**31, 7, 0, I64_MIN]       # int64
    label = [0, 1, 2, 0, 1, 2, 0, 1]                        # int8
    return list(zip(a, b, c, label)) * 25


NAMES = {"A": 0, "B": 1, "C": 2}


@pytest.fixture
def partition():
    encoded = ColumnarPartition.from_rows(boundary_rows())
    assert [c.data.dtype for c in encoded.columns] == [
        np.int8, np.int16, np.int64, np.int8
    ]
    return encoded


class TestPartition:
    def test_concat_of_different_widths_keeps_every_value(self, partition):
        wider = ColumnarPartition.from_rows([(1000, 1, 1, 0)])
        whole = ColumnarPartition.concat([partition, wider])
        assert whole.columns[0].data.dtype == np.int16
        assert list(whole.rows()) == boundary_rows() + [(1000, 1, 1, 0)]
        assert list(ColumnarPartition.concat(
            [partition.take(np.asarray([7, 0])), partition.slice(2, 3)]
        ).rows()) == [boundary_rows()[i] for i in (7, 0, 2)]

    def test_shared_memory_layout_round_trip(self, partition):
        total, specs = partition.layout()
        buf = bytearray(total)
        partition.write_into(buf)
        back = ColumnarPartition.from_buffer(
            bytes(buf), partition.n_rows, specs
        )
        assert [c.data.dtype for c in back.columns] == [
            c.data.dtype for c in partition.columns
        ]
        assert list(back.rows()) == boundary_rows()
        assert partition.nbytes < reference(partition).nbytes

    @pytest.mark.parametrize("literal", [
        -129, -128, 0, 127, 128, 300, 1000, 2**31, I64_MAX, I64_MIN,
        2**64, -(2**64), True, "127", None,
    ])
    @pytest.mark.parametrize("op", [eq, ne])
    @pytest.mark.parametrize("name", sorted(NAMES))
    def test_keep_mask_matches_int64(self, partition, literal, op, name):
        expr = op(name, literal)
        mask = predicate_mask(partition, expr, NAMES)
        assert mask.tolist() == predicate_mask(
            reference(partition), expr, NAMES
        ).tolist()
        column = [row[NAMES[name]] for row in boundary_rows()]
        if op is eq:
            expected = [v is not None and literal is not None
                        and v == literal for v in column]
        else:
            expected = [v is not None and literal is not None
                        and v != literal for v in column]
        assert mask.tolist() == expected

    def test_compound_keep_mask_matches_int64(self, partition):
        expr = any_of([all_of([eq("A", 127), ne("C", 0)]), eq("B", -129)])
        assert predicate_mask(partition, expr, NAMES).tolist() == (
            predicate_mask(reference(partition), expr, NAMES).tolist()
        )

    def test_group_counts_match_int64(self, partition):
        # A and C have no NULLs: int8 x int64 x int8, whose composite
        # code overflows int8 unless the codes are widened first.
        for positions in ([0], [0, 3], [0, 2, 3], [2, 0]):
            narrow = [partition.columns[p].data for p in positions]
            wide = [reference(partition).columns[p].data for p in positions]
            assert group_counts(narrow) == group_counts(wide)
        keys, counts = group_counts([partition.columns[0].data,
                                     partition.columns[3].data])
        assert sum(counts) == partition.n_rows
        assert keys[0] == sorted(keys[0])
        assert all(type(v) is int for v in keys[0])


def routing_context(condition_sets, positions):
    """A kernel over A, B, C and the class column (position 3)."""
    kernel = RoutingKernel(condition_sets, NAMES)
    layout = slot_layout(
        [f"n{slot}" for slot in range(len(condition_sets))], positions, 3
    )
    return kernel, layout, 3, 3


def payload_of(result):
    records, totals, prefix, value_index, counts, values, dense = result[1]
    return (records.tolist(), totals.tolist(), prefix.tolist(),
            value_index.tolist(), counts.tolist(), values, dense.tolist())


class TestKernelCounts:
    @pytest.mark.parametrize("conditions", [
        [()],
        [(PathCondition("A", "=", 127),), (PathCondition("A", "<>", 127),)],
        [(PathCondition("A", "=", -128), PathCondition("C", "=", 2**31)),
         (PathCondition("B", "=", -129),),
         (PathCondition("C", "=", I64_MAX),)],
        [(PathCondition("A", "=", 1000),), (PathCondition("B", "<>", 300),)],
    ], ids=["root", "int8-split", "edges", "out-of-dtype"])
    def test_counts_and_selections_match_int64(self, partition, conditions):
        ctx = routing_context(conditions, [[0, 1, 2]] * len(conditions))
        nodes = ctx[1].node_ids
        narrow = count_partition_columnar(ctx, 0, partition, nodes, ())
        wide = count_partition_columnar(
            ctx, 0, reference(partition), nodes, ()
        )
        assert payload_of(narrow) == payload_of(wide)
        assert narrow[2] == wide[2]
        assert {n: s.tolist() for n, s in narrow[3].items()} == {
            n: s.tolist() for n, s in wide[3].items()
        }
        for values in (v for _, v in payload_of(narrow)[5]):
            assert all(type(v) in (int, type(None)) for v in values)

    def test_keep_mask_and_kernel_agree_on_an_out_of_dtype_literal(
            self, partition):
        # A filtered route keeps what the pushed filter keeps, over the
        # narrow encoding and its int64 widening alike, with the raw
        # columns' tables built from their declared domains (C's range
        # is too wide for one: it is looked up per partition).
        domains = partition_domains(partition)
        for conditions in (
            [(PathCondition("A", "<>", 1000),)],
            [(PathCondition("A", "=", 1000),),
             (PathCondition("B", "<>", -129), PathCondition("C", "<>", 0))],
            [(PathCondition("B", "<>", 2**31),),
             (PathCondition("A", "=", 127), PathCondition("C", "=", I64_MAX))],
        ):
            kernel = RoutingKernel(conditions, NAMES, filtered=True)
            _, layout, class_index, n_classes = routing_context(
                conditions, [[0]] * len(conditions)
            )
            layout = layout._replace(
                route=route_tables(kernel, domains, partition.n_rows)
            )
            assert [table is None for table in layout.route] == [
                NAMES[condition.attribute] == 2 for condition in
                dict.fromkeys(c for path in conditions for c in path)
            ]
            keep = predicate_mask(partition, batch_filter(
                [path_predicate(path) for path in conditions]
            ), NAMES)
            ctx = (kernel, layout, class_index, n_classes)
            for encoding in (partition, reference(partition)):
                result = count_partition_slice(
                    ctx, 0, encoding, 0, encoding.n_rows, (), ()
                )
                assert result[6] == result[2] == int(keep.sum())
