"""A filtered route keeps what the pushed filter keeps.

A SERVER scan pushes ``S_1 OR ... OR S_k``, the OR of its batch's
paths, so the counting kernel does not evaluate that filter a second
time: a ``filtered`` kernel's route gives the kept rows — SQL's, where
a NULL cell fails every ``=`` / ``<>`` on its column and a None
literal matches nothing — and each kept row keeps every slot the dict
route gives it.  Held here against the contract it replaced: the
filter's ``predicate_mask`` as a keep mask, then the unfiltered route
over the kept rows only.  The batches hold RAW and DICT columns, NULL
cells, None and float literals, antichains and overlapping paths,
derived and staged slots, with and without route tables built from
declared domains; ``seen``, each slot's rows, the payload and the
staged selections must all agree.  A value outside a route table's
declared domain raises, never routes.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.common.errors import MiddlewareError  # noqa: E402
from repro.core.filters import (  # noqa: E402
    PathCondition,
    RoutingKernel,
    batch_filter,
    path_predicate,
)
from repro.core.vector_kernel import (  # noqa: E402
    count_partition_slice,
    route_partition,
    route_tables,
    slot_layout,
)
from repro.sqlengine.columnar import (  # noqa: E402
    RAW,
    ColumnarPartition,
    Domain,
    partition_domains,
    predicate_mask,
)

NAMES = ("A1", "A2", "A3")
ATTR_INDEX = {name: i for i, name in enumerate(NAMES)}
N_CLASSES = 3

#: Per column kind: the cells a row draws, and the literals a condition
#: draws (None, and ``1.0`` / ``2.5`` / ``"1"`` / ``True`` against
#: raw integers, which only Python's ``==`` relates to them).
POOLS = {
    "raw": ([0, 1, 2, 7], [0, 1, 1.0, 2.5, 7, "1", True, None]),
    "raw-nulls": ([None, 1, 2, 7], [1, 2.0, 7, 3, None]),
    "dict": (["x", None, "y", "1", 1], ["x", "y", "1", 1, 1.0, "z", None]),
}


@st.composite
def filtered_scans(draw):
    """``(rows, paths, derived, staged, declared, cuts)``: a source, a
    batch of non-empty paths over it, its derived and staged slots,
    whether the raw columns route through declared tables, and the
    slices the source is counted in."""
    kinds = [draw(st.sampled_from(sorted(POOLS))) for _ in NAMES]
    row = st.tuples(*(st.sampled_from(POOLS[kind][0]) for kind in kinds),
                    st.integers(0, N_CLASSES - 1))
    rows = draw(st.lists(row, min_size=1, max_size=40))
    condition = st.integers(0, len(NAMES) - 1).flatmap(
        lambda a: st.builds(
            PathCondition, st.just(NAMES[a]), st.sampled_from(["=", "<>"]),
            st.sampled_from(POOLS[kinds[a]][1]),
        )
    )
    if draw(st.booleans()):
        # Overlapping paths, repeated freely (several limbs wide too).
        shapes = draw(st.lists(
            st.lists(condition, min_size=1, max_size=3).map(tuple),
            min_size=1, max_size=5,
        ))
        n_slots = draw(st.sampled_from([1, 2, 5, 70]))
        paths = draw(st.lists(st.sampled_from(shapes), min_size=n_slots,
                              max_size=n_slots))
    else:
        # An antichain: one split below a shared prefix, as a tree level.
        prefix = tuple(draw(st.lists(condition, max_size=2)))
        attribute = draw(st.sampled_from(NAMES))
        values = draw(st.lists(
            st.sampled_from(POOLS[kinds[ATTR_INDEX[attribute]]][1]),
            min_size=1, max_size=3, unique_by=repr,
        ))
        paths = [prefix + (PathCondition(attribute, "=", value),)
                 for value in values]
        if draw(st.booleans()):  # the binary split's "other" branch
            paths.append(prefix + tuple(
                PathCondition(attribute, "<>", value) for value in values
            ))
    slots = st.integers(0, len(paths) - 1)
    derived = sorted(draw(st.sets(slots)))
    staged = sorted(draw(st.sets(slots)))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    return rows, paths, derived, staged, draw(st.booleans()), cuts


def listed(payload):
    """A payload as plain lists (``values`` holds Python objects)."""
    records, totals, prefix, value_index, counts, values, dense = payload
    return (records.tolist(), totals.tolist(), prefix.tolist(),
            value_index.tolist(), counts.tolist(), values, dense.tolist())


def per_slot(rows, bounds):
    return [rows[bounds[s]:bounds[s + 1]].tolist()
            for s in range(len(bounds) - 1)]


class TestTheRouteKeepsThePushedFiltersRows:
    @given(filtered_scans())
    @settings(max_examples=300, deadline=None)
    def test_seen_slots_payload_and_selections_equal_the_keep_mask(
            self, scan):
        rows, paths, derived, staged, declared, cuts = scan
        whole = ColumnarPartition.from_rows(rows)
        node_ids = [f"n{slot}" for slot in range(len(paths))]
        domains = partition_domains(whole) if declared else ()
        layout = slot_layout(
            node_ids, [list(range(len(NAMES)))] * len(paths), len(NAMES),
            domains, N_CLASSES, len(rows),
        )._replace(derived_slots=tuple(derived))
        kernel = RoutingKernel(paths, ATTR_INDEX, filtered=True)
        routed_layout = layout._replace(
            route=route_tables(kernel, domains, len(rows))
        )
        if declared:
            assert [table is not None for table in routed_layout.route] == [
                whole.columns[index].kind == RAW
                for index, _, _ in kernel.probes
            ]
        ctx = (kernel, routed_layout, len(NAMES), N_CLASSES)
        reference = (RoutingKernel(paths, ATTR_INDEX), layout, len(NAMES),
                     N_CLASSES)
        pushed = batch_filter([path_predicate(path) for path in paths])
        stage = [node_ids[slot] for slot in staged]
        dropped = [slot for slot in derived if slot not in staged]
        for start, stop in zip([0] + cuts, cuts + [len(rows)]):
            piece = whole.slice(start, stop)
            kept = np.flatnonzero(predicate_mask(piece, pushed, ATTR_INDEX))
            survivors = piece.take(kept)
            got = count_partition_slice(ctx, 0, whole, start, stop, stage,
                                        ())
            want = count_partition_slice(reference, 0, survivors, 0,
                                         kept.size, stage, ())
            assert got[6] == kept.size  # seen: what transfer is charged
            assert want[6] == kept.size
            assert got[2] == want[2]
            assert listed(got[1]) == listed(want[1])
            assert {node: selection.tolist()
                    for node, selection in got[3].items()} == {
                node: kept[selection].tolist()
                for node, selection in want[3].items()
            }
            rows_got, bounds_got, _, seen = route_partition(
                kernel, routed_layout, piece, dropped, None
            )
            rows_want, bounds_want, _, _ = route_partition(
                reference[0], layout, survivors, dropped, None
            )
            assert seen == kept.size
            assert per_slot(rows_got, bounds_got) == [
                kept[slot_rows].tolist()
                for slot_rows in per_slot(rows_want, bounds_want)
            ]

    def test_an_unfiltered_kernel_sees_every_row(self):
        # No pushed filter (push_filters=False): the route is the dict
        # route, NULLs included, and every row of the slice is seen.
        rows = [(None, 0, 0, 0), (1, 0, 0, 1), (2, 0, 0, 2)]
        paths = [(PathCondition("A1", "<>", 1),)]
        layout = slot_layout(["n0"], [[1]], len(NAMES))
        for filtered, routed in ((False, 2), (True, 1)):
            kernel = RoutingKernel(paths, ATTR_INDEX, filtered=filtered)
            result = count_partition_slice(
                (kernel, layout, len(NAMES), N_CLASSES), 0,
                ColumnarPartition.from_rows(rows), 0, len(rows), (), (),
            )
            assert result[2] == routed
            assert result[6] == (routed if filtered else len(rows))


class TestOutsideTheRouteTablesDomain:
    """A route table indexes codes of its declared domain: any other
    value is an error, never a wrapped or clipped index."""

    DOMAIN = Domain(0, 4, False)

    @pytest.mark.parametrize("value", [-1, 4, 127, -128, 2**40, None])
    def test_the_value_raises(self, value):
        paths = [(PathCondition("A1", "=", 3),),
                 (PathCondition("A1", "<>", 3),)]
        kernel = RoutingKernel(paths, {"A1": 0}, filtered=True)
        # A1 is counted ranked, so only the route can notice.
        layout = slot_layout(["n0", "n1"], [[0], [0]], 1)
        layout = layout._replace(
            route=route_tables(kernel, (self.DOMAIN,), 100)
        )
        assert layout.route[0] is not None
        partition = ColumnarPartition.from_rows([(3, 0), (value, 1)])
        assert partition.columns[0].kind == RAW
        with pytest.raises(MiddlewareError, match="outside the domain"):
            count_partition_slice((kernel, layout, 1, 2), 0, partition, 0,
                                  2, (), ())

    def test_the_value_just_above_a_nullable_domain_raises(self):
        # Code 4 is the NULL code of a nullable [0, 4): the value 4 must
        # not be read as a NULL.
        paths = [(PathCondition("A1", "<>", 3),)]
        kernel = RoutingKernel(paths, {"A1": 0}, filtered=True)
        layout = slot_layout(["n0"], [[0]], 1)._replace(
            route=route_tables(kernel, (Domain(0, 4, True),), 100)
        )

        def count(value):
            partition = ColumnarPartition.from_rows([(None, 0), (value, 1)])
            return count_partition_slice((kernel, layout, 1, 2), 0,
                                         partition, 0, 2, (), ())

        assert count(2)[2] == count(2)[6] == 1
        with pytest.raises(MiddlewareError, match="outside the domain"):
            count(4)

    def test_a_domain_too_wide_for_a_table_routes_per_partition(self):
        kernel = RoutingKernel([(PathCondition("A1", "=", 3),)], {"A1": 0})
        assert route_tables(kernel, (Domain(0, 1 << 40, False),), 100) == (
            None,
        )
        assert route_tables(None, (self.DOMAIN,), 100) == ()
