"""Derived siblings: a family's largest child is its parent's table minus
its counted siblings'.

When every child of a split shares one batch, the execution module
counts all of them but the one with the most rows and derives that
one's CC table (``BatchCounts.derive``).  Each test here drives two
middleware sessions over one server with the same requests: in one the
children carry their :class:`~repro.core.requests.Family`, in the other
they do not and every child is counted.  Their tables, staged files,
memory sets, costs and per-scan records must be equal, and the first
session must really have derived:

* random data with NULLs, shifted and negative ranges; binary splits
  with either child the larger, multiway splits with 3+ children; two
  levels, so a derived table is the parent of the next family;
* ties in ``n_rows`` (the earlier slot is derived);
* derived children that are split-file, server-file and memory targets;
* a parent counted over a wider domain than its children's source
  (the root's staged file, then the parent's own, whose ``low`` moves),
  and the cell map matching RAW, NULL and dictionary cells by value;
* guards: a tampered parent raises and leaks nothing, a family with a
  child outside the batch is counted, a deferred sibling leaves its
  derived sibling right, and a process pool re-installs its context
  when only the derived set changes.
"""

import hashlib
import os
from pathlib import Path
from unittest import mock

import pytest

np = pytest.importorskip("numpy")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.common.errors import MiddlewareError  # noqa: E402
from repro.core import execution  # noqa: E402
from repro.common.locks import install_monitor  # noqa: E402
from repro.core import staging as staging_module  # noqa: E402
from repro.core.config import MiddlewareConfig  # noqa: E402
from repro.core.filters import PathCondition  # noqa: E402
from repro.core.middleware import Middleware  # noqa: E402
from repro.core.requests import CountsRequest, Family  # noqa: E402
from repro.datagen.dataset import DatasetSpec  # noqa: E402
from repro.datagen.loader import load_dataset  # noqa: E402
from repro.sqlengine.database import SQLServer  # noqa: E402

from ..conftest import WitnessMonitor  # noqa: E402

NAMES = ("A1", "A2", "A3")
N_CLASSES = 3
SPEC = DatasetSpec([4, 4, 4], N_CLASSES)
#: Value pools per attribute: NULLs, a range that does not start at 0
#: and one that goes negative.
POOLS = ([None, 0, 1, 2], [5, 6, 7, 8], [-2, -1, 0, 1])

CONFIGS = {
    # Every scan a SERVER scan, the filter pushed down.
    "pushed": lambda **kw: MiddlewareConfig.no_staging(1_000_000, **kw),
    # Every scan a SERVER scan, routed by the kernel alone.
    "server": lambda **kw: MiddlewareConfig.no_staging(
        1_000_000, push_filters=False, **kw
    ),
    # The root staged to a file, every family split out of it (§4.3.2).
    "split_files": lambda **kw: MiddlewareConfig.file_only(
        1_000_000, split_threshold=1.0, **kw
    ),
    # Server -> file -> memory.
    "memory": lambda **kw: MiddlewareConfig(memory_bytes=1_000_000, **kw),
    # Server -> memory.
    "memory_only": lambda **kw: MiddlewareConfig.memory_only(
        1_000_000, **kw
    ),
}
#: The configurations a NULL attribute value can be counted under: a
#: staged file holds int32 records, and a pushed SQL filter drops the
#: NULL rows a split's children route by Python equality.
NULL_SAFE = ("server", "memory_only")


@pytest.fixture(autouse=True)
def derive_any_size(monkeypatch):
    """These tables are tiny: derive whatever qualifies, cost aside
    (``TestSizeRule`` pins the rule itself)."""
    monkeypatch.setattr(execution, "DERIVE_KEYS_PER_CELL", 0)


def make_server(rows):
    server = SQLServer()
    load_dataset(server, "data", SPEC, rows)
    return server


def root_request():
    return CountsRequest("r", ("r",), (), NAMES, 0, 12)


def children(parent, cc, attribute, value, *, family):
    """The requests of ``parent``'s split on ``attribute``: binary on
    ``value``, multiway when ``value`` is None (one child per value,
    NULL included), attributes dropped as the client drops them."""
    if value is None:
        edges = [("=", v) for v in cc.values_of(attribute)]
    else:
        edges = [("=", value), ("<>", value)]
    specs = []
    for op, pivot in edges:
        inside = sum(cc.vector(attribute, pivot))
        n_rows = inside if op == "=" else cc.records - inside
        drop = op == "=" or cc.cardinality(attribute) <= 2
        attributes = tuple(
            name for name in parent.attributes
            if not (drop and name == attribute)
        )
        node_id = f"{parent.node_id}/{attribute}{op}{pivot}"
        specs.append((node_id, PathCondition(attribute, op, pivot),
                      attributes, n_rows))
    shared = Family(parent.node_id, cc, tuple(s[0] for s in specs))
    return [
        CountsRequest(
            node_id, parent.lineage + (node_id,),
            parent.conditions + (condition,), attributes, n_rows,
            est_cc_pairs=4 * len(attributes),
            family=shared if family else None,
        )
        for node_id, condition, attributes, n_rows in specs
    ]


def serve(mw, requests):
    """Queue ``requests`` and serve them all: ``{node id: table}``."""
    mw.queue_requests(requests)
    tables = {}
    while mw.pending:
        for result in mw.process_next_batch():
            tables[result.node_id] = result.cc
    return tables


def assert_same_table(derived, counted):
    assert derived == counted
    assert derived.records == counted.records
    assert derived.n_pairs == counted.n_pairs
    assert derived.size_bytes == counted.size_bytes
    assert derived.class_totals() == counted.class_totals()
    assert (derived.pair_count_by_attribute()
            == counted.pair_count_by_attribute())
    for attribute in NAMES:
        assert derived.cardinality(attribute) == counted.cardinality(attribute)


def scans(mw):
    """What each scan decided and charged: equal with and without
    families."""
    return [
        (r.mode, r.batch, round(r.cost, 6), r.rows_seen, r.rows_routed,
         r.stage_file_targets, r.stage_memory_targets, r.split_file,
         r.deferrals, r.sql_fallbacks)
        for r in mw.trace
    ]


@pytest.fixture
def staged(monkeypatch):
    """Every staged file sealed (its sha256) and memory set committed
    (its rows), in order, beside its node."""
    record = []
    seal = staging_module.StagedFile.seal
    commit = staging_module.StagingManager.commit_memory

    def sealed(file):
        seal(file)
        record.append((file.owner_node,
                       hashlib.sha256(Path(file.path).read_bytes()).digest()))

    def committed(manager, node_id, *args):
        commit(manager, node_id, *args)
        record.append((node_id, repr(manager.memory_rows(node_id))))

    monkeypatch.setattr(staging_module.StagedFile, "seal", sealed)
    monkeypatch.setattr(staging_module.StagingManager, "commit_memory",
                        committed)
    return record


class Twins:
    """Two sessions over one server, fed the same splits: ``derive``'s
    children carry their family, ``count``'s do not."""

    def __init__(self, server, config, staged):
        self.staged = staged
        self.sessions = [Middleware(server, "data", SPEC, config())
                         for _ in range(2)]
        self.tables = [{}, {}]
        self.requests = [{}, {}]
        self.files = [[], []]

    def close(self):
        for mw in self.sessions:
            mw.close()

    @property
    def derive(self):
        return self.sessions[0]

    def root(self):
        n_rows = self.derive.server.table("data").row_count
        for side in range(2):
            request = root_request()
            request.n_rows = n_rows
            self._serve(side, [request])
        return "r"

    def split(self, node_id, attribute, value):
        """Split ``node_id`` on both sides; the new children's ids."""
        made = []
        for side in range(2):
            batch = children(
                self.requests[side][node_id], self.tables[side][node_id],
                attribute, value, family=side == 0,
            )
            made = [request.node_id for request in batch]
            self._serve(side, batch)
        return made

    def _serve(self, side, requests):
        self.staged.clear()
        for request in requests:
            self.requests[side][request.node_id] = request
        self.tables[side].update(serve(self.sessions[side], requests))
        self.files[side].extend(self.staged)

    def check(self):
        """Both sides hold equal tables, staged bytes and scans."""
        derived, counted = self.tables
        assert derived.keys() == counted.keys()
        for node_id in counted:
            assert_same_table(derived[node_id], counted[node_id])
        assert self.files[0] == self.files[1]
        assert scans(self.sessions[0]) == scans(self.sessions[1])
        assert not any(record.derived for record in self.sessions[1].trace)
        return [node for record in self.derive.trace
                for node in record.derived]


@st.composite
def splits(draw):
    config = draw(st.sampled_from(sorted(CONFIGS)))
    pools = POOLS if config in NULL_SAFE else ([0, 1, 2, 3],) + POOLS[1:]
    rows = draw(st.lists(
        st.tuples(*(st.sampled_from(pool) for pool in pools),
                  st.integers(0, N_CLASSES - 1)),
        min_size=8, max_size=80,
    ))
    first = draw(st.sampled_from(NAMES))
    second = draw(st.sampled_from(NAMES))
    binary = draw(st.lists(st.booleans(), min_size=2, max_size=2))
    picks = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))
    chunk = draw(st.sampled_from([4, 64]))
    return rows, (first, second), binary, picks, config, chunk


def pivot(cc, attribute, pick, binary):
    values = cc.values_of(attribute)
    return values[pick % len(values)] if binary else None


class TestDerivedEqualsCounted:
    @given(splits())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_two_levels_of_random_splits(self, staged, drawn):
        rows, attributes, binary, picks, config, chunk = drawn
        twins = Twins(make_server(rows),
                      lambda: CONFIGS[config](scan_chunk_rows=chunk), staged)
        try:
            root = twins.root()
            cc = twins.tables[0][root]
            if cc.cardinality(attributes[0]) < 2:
                return
            level = twins.split(root, attributes[0], pivot(
                cc, attributes[0], picks[0], binary[0]))
            derived = twins.check()
            assert len(derived) == 1
            # The derived child is the family's largest, the earliest
            # slot of the batch on a tie.
            (record,) = twins.derive.trace[1:]
            assert sorted(record.batch) == sorted(level)
            sizes = [twins.requests[0][node].n_rows for node in record.batch]
            assert derived[0] == record.batch[sizes.index(max(sizes))]
            # Split the derived child: a derived table as a parent.
            node = derived[0]
            cc = twins.tables[0][node]
            attribute = attributes[1]
            if (attribute in twins.requests[0][node].attributes
                    and cc.cardinality(attribute) >= 2):
                twins.split(node, attribute, pivot(
                    cc, attribute, picks[1], binary[1]))
                assert len(twins.check()) == 2
        finally:
            twins.close()

    @pytest.mark.parametrize("config", NULL_SAFE)
    def test_multiway_splits_over_nulls(self, staged, config):
        # A1: NULL x 6, 0 x 5, 1 x 3, 2 x 2; A2 cycles 5..8.
        values = [None] * 6 + [0] * 5 + [1] * 3 + [2] * 2
        rows = [(a1, 5 + i % 4, (i % 4) - 2, i % N_CLASSES)
                for i, a1 in enumerate(values)]
        twins = Twins(make_server(rows), CONFIGS[config], staged)
        try:
            twins.root()
            assert len(twins.split("r", "A1", None)) == 4
            # The NULL child holds the most rows.
            assert twins.check() == ["r/A1=None"]
            # Four children, 2/2/1/1 rows: the tie goes to A2 = 5.
            assert len(twins.split("r/A1=None", "A2", None)) == 4
            twins.split("r/A1=0", "A2", 7)
            assert twins.check()[1:] == ["r/A1=None/A2=5", "r/A1=0/A2<>7"]
        finally:
            twins.close()

    def test_equal_child_derived_when_larger(self, staged):
        rows = [(0, 5, -2, i % N_CLASSES) for i in range(10)] + [
            (1, 6, -1, 0), (2, 7, 0, 1)
        ]
        twins = Twins(make_server(rows), CONFIGS["server"], staged)
        try:
            twins.root()
            twins.split("r", "A1", 0)
            assert twins.check() == ["r/A1=0"]
        finally:
            twins.close()

    def test_a_tie_derives_the_earlier_slot(self, staged):
        rows = [(i % 2, 5 + i % 3, -(i % 4), i % N_CLASSES)
                for i in range(24)]
        twins = Twins(make_server(rows), CONFIGS["memory"], staged)
        try:
            twins.root()
            level = twins.split("r", "A1", 0)
            assert [twins.requests[0][n].n_rows for n in level] == [12, 12]
            (record,) = [r for r in twins.derive.trace if r.derived]
            assert record.derived == (record.batch[0],)
            twins.check()
        finally:
            twins.close()

    @pytest.mark.parametrize("config", ["server_file", "split_files",
                                        "memory"])
    def test_derived_targets_stage_the_same_bytes(self, staged, config):
        # 20 rows with A1 = 0, 40 without: the '<>' child is derived.
        rows = [(i % 3, 5 + i % 4, (i % 3) - 1, i % N_CLASSES)
                for i in range(60)]
        configs = dict(CONFIGS, server_file=lambda: MiddlewareConfig(
            # Room for the 40-row child's file, not the root's.
            memory_bytes=1_000_000, memory_staging=False,
            file_budget_bytes=45 * SPEC.row_bytes,
        ))
        twins = Twins(make_server(rows), configs[config], staged)
        try:
            twins.root()
            twins.split("r", "A1", 0)
            (record,) = [r for r in twins.derive.trace if r.derived]
            assert record.derived == ("r/A1<>0",)
            if config == "split_files":
                # The FILE scan splits every child out to its file.
                assert record.mode == "FILE" and record.split_file
            else:
                assert "r/A1<>0" in (record.stage_file_targets
                                     + record.stage_memory_targets)
            assert twins.check() == ["r/A1<>0"]
            assert ("r/A1<>0", mock.ANY) in twins.files[0]
        finally:
            twins.close()

    def test_a_parent_counted_over_a_wider_domain(self, staged):
        # A2 follows A1, so each A1 child's staged file declares a
        # narrower A2 domain than the file its parent was counted from.
        rows = [(a1, 5 + 2 * a1 + i % 2, i % 3 - 1, i % N_CLASSES)
                for a1 in (0, 1) for i in range(12 + 6 * a1)]
        twins = Twins(make_server(rows), CONFIGS["split_files"], staged)
        try:
            twins.root()
            twins.split("r", "A1", 0)
            parent = twins.tables[0]["r/A1<>0"]
            grandparent_file = twins.derive.staging.file_for("r")
            twins.split("r/A1<>0", "A3", 0)
            child_file = twins.derive.staging.file_for("r/A1<>0")
            assert (child_file.domains[1].low
                    > grandparent_file.domains[1].low)
            assert twins.check() == ["r/A1<>0", "r/A1<>0/A3<>0"]
        finally:
            twins.close()


def binary_batch(mw, rows, value=0, family=True):
    root = root_request()
    root.n_rows = len(rows)
    cc = serve(mw, [root])["r"]
    return root, cc, children(root, cc, "A1", value, family=family)


ROWS = [(i % 3, 5 + i % 4, (i % 4) - 2, i % N_CLASSES) for i in range(90)]


class TestSizeRule:
    def test_a_child_with_fewer_keys_than_cells_is_counted(
            self, monkeypatch):
        # 60 '<>' rows x 3 listed columns = 180 keys; the layout spans
        # (3 + 4 + 4) values x 3 classes = 33 cells.
        monkeypatch.setattr(execution, "DERIVE_KEYS_PER_CELL", 180 / 33)
        server = make_server(ROWS)
        with Middleware(server, "data", SPEC, CONFIGS["server"]()) as mw:
            _, _, batch = binary_batch(mw, ROWS)
            serve(mw, batch)
            assert mw.trace[-1].derived == ("r/A1<>0",)
        monkeypatch.setattr(execution, "DERIVE_KEYS_PER_CELL", 181 / 33)
        with Middleware(server, "data", SPEC, CONFIGS["server"]()) as mw:
            _, _, batch = binary_batch(mw, ROWS)
            serve(mw, batch)
            assert mw.trace[-1].derived == ()


class TestGuards:
    def test_a_tampered_parent_raises_and_leaks_nothing(self, tmp_path):
        server = make_server(ROWS)
        monitor = WitnessMonitor()
        previous = install_monitor(monitor)
        try:
            config = CONFIGS["memory"](scan_chunk_rows=8,
                                       staging_dir=str(tmp_path))
            with Middleware(server, "data", SPEC, config) as mw:
                _, cc, batch = binary_batch(mw, ROWS)
                files = sorted(os.listdir(tmp_path))
                # One count +1 in the parent's table, in a column the
                # derived '<>' child lists.
                counts = cc.counts
                counts.base.flags.writeable = counts.flags.writeable = True
                counts[cc.pair_columns()[1][1], 0] += 1  # A2's first pair
                with pytest.raises(MiddlewareError, match="'r/A1<>0'"):
                    serve(mw, batch)
                assert mw.staging.file_nodes() == ["r"]
                assert sorted(os.listdir(tmp_path)) == files
                assert mw.staging.memory_nodes() == []
                assert mw.budget.tags() == []
                assert not {"staged-file", "future"} & set(
                    monitor.live_kinds()
                )
            assert monitor.live_kinds() == []
        finally:
            install_monitor(previous)

    def test_a_family_missing_a_child_counts_every_node(self):
        server = make_server(ROWS)
        tables = []
        for family in (True, False):
            with Middleware(server, "data", SPEC,
                            CONFIGS["memory"](scan_chunk_rows=8)) as mw:
                _, _, batch = binary_batch(mw, ROWS, family=family)
                # The '=' child is left out, as a leaf would be.
                tables.append(serve(mw, batch[1:]))
                assert not any(record.derived for record in mw.trace)
        assert tables[0] == tables[1]

    def test_a_deferred_sibling_leaves_its_derived_sibling_right(self):
        server = make_server(ROWS)
        with Middleware(server, "data", SPEC, CONFIGS["server"]()) as mw:
            _, _, batch = binary_batch(mw, ROWS, family=False)
            reference = serve(mw, batch)
        # Room for the root's 11 pairs (220 bytes), not for both
        # children's 10 + 8: admitted on estimates of one pair each,
        # the '<>' child (counted first in batch order, derived) takes
        # its 200 bytes and the counted '=' sibling is deferred.
        with Middleware(server, "data", SPEC,
                        MiddlewareConfig.no_staging(300)) as mw:
            _, _, batch = binary_batch(mw, ROWS)
            for request in batch:
                request.est_cc_pairs = 1
            tables = serve(mw, batch)
            first = next(record for record in mw.trace if record.derived)
            assert first.derived == ("r/A1<>0",)
            assert first.deferrals == 1 and first.nodes_served == 1
        for node_id, table in reference.items():
            assert_same_table(tables[node_id], table)

    def test_a_process_pool_reinstalls_when_only_the_derived_set_moves(self):
        server = make_server(ROWS)
        config = CONFIGS["server"](scan_workers=2, scan_pool="process",
                                   scan_chunk_rows=8)
        with Middleware(server, "data", SPEC, config) as mw:
            _, _, counted = binary_batch(mw, ROWS, family=False)
            reference = serve(mw, counted)
            root, cc, with_family = binary_batch(mw, ROWS)
            without = children(root, cc, "A1", 0, family=False)
            # Two scans in a row with one batch signature (ids,
            # conditions, attributes); only the derived slots differ.
            derived = serve(mw, with_family)
            again = serve(mw, without)
            assert mw.trace[-2].derived == ("r/A1<>0",)
            assert mw.trace[-1].derived == ()
            assert mw.trace[-2].workers == mw.trace[-1].workers == 2
        for node_id, table in reference.items():
            assert_same_table(derived[node_id], table)
            assert_same_table(again[node_id], table)


class TestCellMap:
    """How a parent's pairs land in a scan whose source declared other
    domains: by value, whatever the codes."""

    def test_cells_are_matched_by_value(self):
        from repro.core.cc_table import CCTable, _cell_map
        from repro.core.vector_kernel import slot_layout
        from repro.sqlengine.columnar import Domain

        # A: RAW, low moves from 3 to 5 and only the parent holds NULL;
        # B: another dictionary order; C: one domain; D: not counted
        # densely here.
        parent = CCTable(["A", "B", "C", "D"], 1)
        for a, b, c in [(3, "a", 0), (4, "b", 1), (5, "c", 0),
                        (6, "a", 1), (None, "a", 0)]:
            parent.count_row({"A": a, "B": b, "C": c, "D": a}, 0)
        assert parent.n_pairs == 15  # the array form, read by the map
        child = slot_layout(["n"], [[0, 1, 2]], 4, [
            Domain(5, 3, False), Domain(0, 3, False, ("c", "z", "a")),
            Domain(0, 2, False), None,
        ], 1, 10 ** 6)
        starts, cells = _cell_map(
            parent, child, {"A": 0, "B": 1, "C": 2, "D": 3}
        )
        # Parent values in first-met order; child cells 5, 6, 7 |
        # c, z, a | 0, 1.
        assert starts.tolist() == [0, 5, 8, 10]
        assert cells.tolist() == [
            -1, -1, 0, 1, -1,  # 3, 4, 5, 6, NULL
            5, -1, 3,          # a, b, c
            6, 7,              # 0, 1
            -1, -1, -1, -1, -1,
        ]
