"""The dense key space: declared column domains, one bincount, ``+=``.

``tests/core/test_vector_kernel.py`` holds the kernel to the per-row
oracle with no domain declared — the ranked form.  Here every source
declares its domains the way a scan's source does, once, and the
pieces of a scan are slices of that one encoding:

* the counts of raw, NULL-bearing, int8-edge and dictionary columns in
  the dense form, beside a ``{0, 2**40}`` column that stays ranked in
  the same scan, equal the oracle's for batches of 1, 63 and 150
  slots and ``listed`` masks, the raw columns routed through the
  tables built once per scan from their declared domains;
* a value outside its declared domain is a ``MiddlewareError``, never
  a count under another value's key;
* a staged file declares the min and max of what it wrote, a memory
  set those of its concatenated pieces, the server the RAW domains of
  its encoding (a temp table re-encodes its dictionaries);
* a process pool's workers get the domains with the kernel
  (``ScanWorkerPool.install``), not with each partition.
"""

import pickle

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.common.cost import CostMeter, CostModel  # noqa: E402
from repro.common.errors import MiddlewareError  # noqa: E402
from repro.common.memory import MemoryBudget  # noqa: E402
from repro.core.cc_table import BatchCounts, CCTable  # noqa: E402
from repro.core.config import MiddlewareConfig  # noqa: E402
from repro.core.filters import PathCondition, RoutingKernel  # noqa: E402
from repro.core.middleware import Middleware  # noqa: E402
from repro.core.requests import CountsRequest  # noqa: E402
from repro.core.scan_pool import ScanWorkerPool  # noqa: E402
from repro.core.staging import StagingManager  # noqa: E402
from repro.core.vector_kernel import (  # noqa: E402
    count_partition_columnar,
    route_tables,
    slot_layout,
)
from repro.datagen.dataset import DatasetSpec  # noqa: E402
from repro.sqlengine.columnar import (  # noqa: E402
    ColumnarPartition,
    Domain,
    partition_domains,
)
from repro.sqlengine.database import SQLServer  # noqa: E402
from repro.sqlengine.schema import TableSchema  # noqa: E402

from ..conftest import tree_signature  # noqa: E402
from .oracle import oracle_counts  # noqa: E402
from .test_pool_reuse import fit_tree, generated, make_middleware  # noqa: E402

NAMES = ("A1", "A2", "A3", "A4")
ATTR_INDEX = {name: i for i, name in enumerate(NAMES)}
CLASS_INDEX = len(NAMES)
N_CLASSES = 3

#: Pools of the columns counted in the dense form.
DENSE_POOLS = {
    "raw": [0, 1, 2, 3],
    "raw-nulls": [None, 1, 2, 7],
    "int8-edges": [-128, 127, 0, -1],
    "dict": ["x", None, "y", "1", 1],
}
#: A4's pool: a two-value column whose range is too wide to span.
SPARSE = [0, 2 ** 40]


def layout_of(condition_sets, attribute_lists, domains, source_rows):
    return slot_layout(
        [f"n{slot}" for slot in range(len(attribute_lists))],
        [[ATTR_INDEX[name] for name in attributes]
         for attributes in attribute_lists],
        len(NAMES), domains, N_CLASSES, source_rows,
    )


def fold(payloads, attribute_lists, layout):
    counts = BatchCounts(len(attribute_lists), len(NAMES), N_CLASSES, layout)
    for payload in payloads:
        CCTable.merge_block(counts, *payload)
    return counts.tables(attribute_lists, NAMES)


@st.composite
def declared_scans(draw):
    """``(rows, condition_sets, attribute_lists, cuts)`` over the
    four columns: three drawn from the dense pools, A4 always sparse."""
    pools = [DENSE_POOLS[draw(st.sampled_from(sorted(DENSE_POOLS)))]
             for _ in NAMES[:3]] + [SPARSE]
    row = st.tuples(*(st.sampled_from(pool) for pool in pools),
                    st.integers(0, N_CLASSES - 1))
    rows = draw(st.lists(row, min_size=2, max_size=60))
    # The source holds both of A4's values, so its domain is too wide.
    rows[0] = rows[0][:3] + (SPARSE[0],) + rows[0][4:]
    rows[-1] = rows[-1][:3] + (SPARSE[1],) + rows[-1][4:]
    condition = st.integers(0, len(NAMES) - 1).flatmap(
        lambda a: st.builds(
            PathCondition, st.just(NAMES[a]), st.sampled_from(["=", "<>"]),
            st.sampled_from(pools[a]),
        )
    )
    attributes = st.lists(
        st.sampled_from(NAMES), min_size=1, unique=True
    ).map(tuple)
    n_slots = draw(st.sampled_from([1, 63, 150]))
    shapes = draw(st.lists(
        st.tuples(st.lists(condition, max_size=3).map(tuple), attributes),
        min_size=1, max_size=5,
    ))
    picks = draw(st.lists(
        st.sampled_from(shapes), min_size=n_slots, max_size=n_slots
    ))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    return (rows, [conditions for conditions, _ in picks],
            [listed for _, listed in picks], cuts)


class TestDenseFormAgainstTheOracle:
    @given(declared_scans())
    @settings(max_examples=150, deadline=None)
    def test_slices_of_one_declared_encoding_equal_the_oracle(self, scan):
        rows, condition_sets, attribute_lists, cuts = scan
        whole = ColumnarPartition.from_rows(rows)
        domains = partition_domains(whole)
        # Source rows large enough that every small domain spans.
        layout = layout_of(condition_sets, attribute_lists, domains, 10 ** 6)
        kernel = RoutingKernel(condition_sets, ATTR_INDEX)
        # The raw columns route through tables built once from the
        # declared domains; A4 (too wide) and dictionaries do not.
        layout = layout._replace(route=route_tables(kernel, domains, 10 ** 6))
        counted = {ATTR_INDEX[name] for names in attribute_lists
                   for name in names}
        assert {p for p, _, _ in layout.dense} == counted - {3}
        assert [p for p, _ in layout.ranked] == sorted(counted & {3})
        ctx = (kernel, layout, CLASS_INDEX, N_CLASSES)
        node_ids = list(layout.node_ids)
        payloads, routed = [], 0
        selections = {node_id: [] for node_id in node_ids}
        for seq, (start, stop) in enumerate(
                zip([0] + cuts, cuts + [len(rows)])):
            _, payload, part_routed, writes, _, _ = (
                count_partition_columnar(
                    ctx, seq, whole.slice(start, stop), node_ids, (),
                )
            )
            assert payload[6].shape == (len(node_ids), layout.width,
                                        N_CLASSES)
            payloads.append(payload)
            routed += part_routed
            for node_id in node_ids:
                selections[node_id] += (writes[node_id] + start).tolist()
        expected = oracle_counts(
            rows, condition_sets, attribute_lists, NAMES, N_CLASSES,
        )
        matched = set()
        for node_id, cc, (reference, selected) in zip(
                node_ids, fold(payloads, attribute_lists, layout),
                expected):
            assert cc == reference
            assert cc.class_totals() == reference.class_totals()
            assert cc.n_pairs == reference.n_pairs
            assert (cc.pair_count_by_attribute()
                    == reference.pair_count_by_attribute())
            assert cc.rows() == reference.rows()
            assert selections[node_id] == selected
            matched.update(selected)
        assert routed == len(matched)

    def test_a_wide_domain_stays_ranked_while_its_neighbours_span(self):
        rows = [(i % 4, -128 + i % 2 * 255, "x" if i % 3 else None,
                 SPARSE[i % 2], i % N_CLASSES) for i in range(40)]
        whole = ColumnarPartition.from_rows(rows)
        layout = layout_of([()], [NAMES], partition_domains(whole), 1000)
        assert [p for p, _, _ in layout.dense] == [0, 1, 2]
        assert [p for p, _ in layout.ranked] == [3]
        # 4 + 256 + 2 cells: the int8 column spans -128 .. 127.
        assert layout.width == 4 + 256 + 2


def one_column_scan(domain, rows):
    """Count ``rows`` — (A1, class) — with A1 declared as ``domain``."""
    layout = slot_layout(["n0"], [[0]], 1, (domain,), N_CLASSES, 10 ** 6)
    ctx = (RoutingKernel([()], {"A1": 0}), layout, 1, N_CLASSES)
    return count_partition_columnar(
        ctx, 0, ColumnarPartition.from_rows(rows), [], []
    )


class TestOutsideTheDeclaredDomain:
    def test_in_domain_counts(self):
        payload = one_column_scan(Domain(5, 3, True),
                                  [(5, 0), (7, 1), (None, 2)])[1]
        assert payload[6][0].tolist() == [[1, 0, 0], [0, 0, 0], [0, 1, 0],
                                          [0, 0, 1]]

    @pytest.mark.parametrize("domain, rows, what", [
        (Domain(0, 4, False), [(0, 0), (4, 1)], "count key"),
        (Domain(1, 4, False), [(0, 0), (2, 1)], "count key"),
        # A NULL, another dictionary, a dictionary or a raw column
        # where the domain declares none.
        (Domain(0, 4, False), [(1, 0), (None, 1)], "value of column 0"),
        (Domain(0, 2, False, ("x", "y")), [("x", 0), ("z", 0)],
         "value of column 0"),
        (Domain(0, 4, False), [("x", 0)], "value of column 0"),
        (Domain(0, 4, False, ("x",)), [(1, 0)], "value of column 0"),
    ])
    def test_a_value_outside_raises(self, domain, rows, what):
        with pytest.raises(MiddlewareError, match=what):
            one_column_scan(domain, rows)

    @pytest.mark.parametrize("value", [-1, 2, 3, 100])
    def test_a_value_landing_on_a_neighbours_cells_raises(self, value):
        # A1 and A2 both declared 0..1, so A1's 2 is A2's first cell
        # and A2's -1 is A1's last: a key inside the key space, caught
        # because each column's cells must hold every pair once.
        layout = slot_layout(["n0", "n1"], [[0, 1], [0, 1]], 2,
                             (Domain(0, 2, False), Domain(0, 2, False)),
                             N_CLASSES, 10 ** 6)
        kernel = RoutingKernel([(), ()], {"A1": 0, "A2": 1})
        rows = [(0, 1, 0), (1, 0, 1), (0, 0, 2)]
        for position in (0, 1):
            bad = list(rows[2])
            bad[position] = value
            partition = ColumnarPartition.from_rows(rows[:2] + [tuple(bad)])
            with pytest.raises(MiddlewareError, match="outside the domain"):
                count_partition_columnar(
                    (kernel, layout, 2, N_CLASSES), 0, partition, [], []
                )


@pytest.fixture
def staging(tmp_path):
    manager = StagingManager(
        DatasetSpec([3, 3], 3), CostMeter(), CostModel(),
        MemoryBudget(10 ** 6), staging_dir=str(tmp_path),
    )
    yield manager
    manager.close()


class TestSourcesDeclareOnce:
    def test_a_staged_file_declares_the_range_it_wrote(self, staging):
        staged = staging.open_file("n1")
        assert staged.domains == ()
        pieces = [[(3, -7, 0), (9, 2, 1)], [(-40, 5, 2)], [(4, 4, 0)]]
        for piece in pieces:
            staged.append_rows(ColumnarPartition.from_rows(piece))
        staged.seal()
        written = [row for piece in pieces for row in piece]
        assert staged.domains == tuple(
            Domain(min(column), max(column) - min(column) + 1, False)
            for column in zip(*written)
        )

    def test_an_empty_file_declares_empty_domains(self, staging):
        staged = staging.open_file("n2")
        staged.append_rows(ColumnarPartition.from_rows([]))
        staged.seal()
        assert staged.domains == (Domain(0, 0, False),) * 3

    def test_a_memory_set_declares_its_concatenated_range(self, staging):
        pieces = [ColumnarPartition.from_rows([(2, None, 1), (6, 1, 0)]),
                  ColumnarPartition.from_rows([(-3, 4, 2)])]
        assert staging.reserve_memory("n3", 3)
        staging.commit_memory("n3", pieces)
        assert staging.memory_domains["n3"] == (
            Domain(-3, 10, False), Domain(1, 4, True), Domain(0, 3, False),
        )


    def test_a_temp_table_scan_counts_its_own_dictionaries(self):
        # The first "p" row holds A2 "z", the table's first row "y": the
        # temp table of the "p" rows has another A2 dictionary.
        rows = [("q", "y", 0), ("p", "z", 1), ("p", "y", 0),
                ("q", "z", 1)] * 10
        server = SQLServer()
        server.create_table("data", TableSchema.of(
            ("A1", "varchar"), ("A2", "varchar"), ("class", "int")
        ))
        server.bulk_load("data", rows)
        config = MiddlewareConfig.no_staging(
            1 << 22, aux_strategy="temp_table", aux_build_threshold=0.9
        )
        condition = PathCondition("A1", "=", "p")
        with Middleware(server, "data", DatasetSpec([2, 2], 2),
                        config) as mw:
            mw.queue_request(CountsRequest(
                node_id="n1", lineage=("root", "n1"),
                conditions=(condition,), attributes=("A2",), n_rows=20,
                est_cc_pairs=2,
            ))
            (result,) = mw.process_next_batch()
            assert mw.trace[0].access_path == "temp_table"
        (expected, _), = oracle_counts(rows, [(condition,)], [("A2",)],
                                       ("A1", "A2"), 2)
        assert result.cc == expected


class TestProcessWorkersGetDomainsByInstall:
    def test_a_pooled_scan_counts_dense_from_the_installed_layout(
            self, monkeypatch):
        installs, shipped, dense_widths = [], [], []
        install = ScanWorkerPool.install
        submit = ScanWorkerPool.submit
        merge_block = CCTable.merge_block

        def recording_install(pool, signature, kernel, slots, *rest,
                              **options):
            seconds = install(pool, signature, kernel, slots, *rest,
                              **options)
            if pool.remote:
                installs.append(pickle.loads(pool._payload)[1])
            return seconds

        def recording_submit(pool, seq, source, *rest):
            if pool.remote:
                shipped.append(pickle.dumps((source, *rest)))
            return submit(pool, seq, source, *rest)

        def recording_merge(batch, *payload):
            dense_widths.append(payload[6].shape[1])
            return merge_block(batch, *payload)

        monkeypatch.setattr(ScanWorkerPool, "install", recording_install)
        monkeypatch.setattr(ScanWorkerPool, "submit", recording_submit)
        monkeypatch.setattr(CCTable, "merge_block",
                            staticmethod(recording_merge))
        generating = generated()
        with make_middleware(generating, scan_workers=2,
                             scan_pool="process", scan_chunk_rows=8,
                             scan_cache_bytes=0) as mw:
            pooled = fit_tree(mw)
            assert any(record.workers == 2 for record in mw.trace)
        with make_middleware(generating) as mw:
            inline = fit_tree(mw)
        assert tree_signature(pooled.root) == tree_signature(inline.root)
        # The workers' context carries every domain the scan spans ...
        assert installs and all(layout.dense for layout in installs)
        assert all(isinstance(domain, Domain) for layout in installs
                   for _, _, domain in layout.dense)
        # ... no partition they were sent does ...
        assert shipped and not any(b"Domain" in blob for blob in shipped)
        # ... and what they counted came back in the dense form.
        assert dense_widths and all(width > 0 for width in dense_widths)
