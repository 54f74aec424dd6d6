"""One SERVER scan form: the access path's plan, on every executor.

Count-based guards (no timings) for what PR 22 deleted and unified:

* the default one-worker session no longer streams ``ForwardCursor``
  rows through a per-row Python filter — the 33x the ledger showed on
  ``server_serial`` — it counts slices of the server's own encoding,
  like a pooled session, and the rows the batch filter keeps are the
  rows the installed route takes: no filter travels with a slice;
* there is at most one in-process full encoding per table version: the
  columnar cache's entry, the encoding an SQL fallback's
  ``_vector_grouped_count`` groups over and ``HeapTable.columnar()``
  are one object, and DML strands it by version;
* a scan the cache may not keep (it stages its whole batch, the table
  is over budget, the budget is zero) counts over the same slices of
  the server's encoding with the same route and the same charges,
  and the session keeps nothing — the server keeps its one encoding
  of the version, so a later fit reads no heap row;
* a batch filter that is not the OR of the batch's paths is an error,
  not a silent detour onto another path.
"""

import pytest

np = pytest.importorskip("numpy")

from repro.client.baselines import grow_in_memory  # noqa: E402
from repro.client.decision_tree import DecisionTreeClassifier  # noqa: E402
from repro.client.growth import GrowthPolicy  # noqa: E402
from repro.common.errors import MiddlewareError  # noqa: E402
from repro.core import execution  # noqa: E402
from repro.core.auxiliary import PlainScanStrategy  # noqa: E402
from repro.core.config import MiddlewareConfig  # noqa: E402
from repro.core.middleware import Middleware  # noqa: E402
from repro.core.scan_pool import ScanWorkerPool  # noqa: E402
from repro.core.staging import DataLocation  # noqa: E402
from repro.datagen.loader import load_dataset  # noqa: E402
from repro.datagen.random_tree import (  # noqa: E402
    RandomTreeConfig,
    build_random_tree,
)
from repro.sqlengine.columnar import ColumnarPartition  # noqa: E402
from repro.sqlengine.cursors import ForwardCursor  # noqa: E402
from repro.sqlengine.database import SQLServer  # noqa: E402
from repro.sqlengine.expr import Comparison, Expr, col, lit  # noqa: E402
from repro.sqlengine.heap import HeapTable  # noqa: E402

from ..conftest import tree_signature  # noqa: E402
from .plan_seam import record_plan_requests  # noqa: E402

#: 9,300 rows: longer than one inline partition (8 x 1,024 rows).
CONCEPT = build_random_tree(RandomTreeConfig(
    n_attributes=8, values_per_attribute=3, n_classes=4, n_leaves=30,
    cases_per_leaf=300, seed=11,
))
SPEC = CONCEPT.spec
ROWS = CONCEPT.materialize()
DEPTH = 4

EXECUTORS = {
    "inline": {"scan_workers": 1},
    "threads": {"scan_workers": 2, "scan_pool": "thread"},
}


def make_server():
    server = SQLServer()
    load_dataset(server, "data", SPEC, ROWS)
    return server


def fit(session):
    return DecisionTreeClassifier(max_depth=DEPTH).fit(session).tree


@pytest.fixture(scope="module")
def reference_tree():
    return tree_signature(
        grow_in_memory(ROWS, SPEC, GrowthPolicy(max_depth=DEPTH)).root
    )


@pytest.fixture
def cursors_opened(monkeypatch):
    """Every ``ForwardCursor`` constructed while the test runs."""
    opened = []
    init = ForwardCursor.__init__

    def recording(self, *args, **kwargs):
        opened.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ForwardCursor, "__init__", recording)
    return opened


@pytest.fixture
def slices_submitted(monkeypatch):
    """``(source, slice rows)`` of every slice a SERVER scan hands
    ``ScanWorkerPool.submit`` (staged scans go through it too, over
    their own encodings).  No slice carries an expression: the rows a
    pushed filter keeps are the installed route's business."""
    submitted, modes, calls = [], [], []
    submit = ScanWorkerPool.submit
    partition_source = execution.ExecutionModule._partition_source

    def sourcing(self, schedule, *args):
        modes.append(schedule.mode)
        return partition_source(self, schedule, *args)

    def recording(self, seq, source, start, stop, *targets):
        calls.append(seq)
        assert not any(isinstance(target, Expr) for target in targets)
        if modes[-1] is DataLocation.SERVER:
            submitted.append((source, stop - start))
        return submit(self, seq, source, start, stop, *targets)

    monkeypatch.setattr(execution.ExecutionModule, "_partition_source",
                        sourcing)
    monkeypatch.setattr(ScanWorkerPool, "submit", recording)
    yield submitted
    assert calls, "the ScanWorkerPool.submit hook never fired"


class TestDefaultSessionCountsFromThePlan:
    def test_no_staging_fit_opens_no_cursor_and_encodes_once(
            self, cursors_opened, reference_tree):
        server = make_server()
        table = server.table("data")
        # Every scan_* knob at its default: one worker, unless the CI
        # leg's $REPRO_SCAN_WORKERS says otherwise — the form is the same.
        config = MiddlewareConfig.no_staging(1_000_000)
        with Middleware(server, "data", SPEC, config) as session:
            tree = fit(session)
            records = session.trace.by_mode("SERVER")
            assert len(records) == len(session.trace) > 2
            first, *later = records
            assert first.cached and not first.cache_hit
            assert all(r.cached and r.cache_hit for r in later)
            assert all(r.encode_seconds == 0.0 for r in later)
            assert first.rows_seen == len(ROWS) > first.partition_rows
            cache = session.execution.scan_cache
            (entry,) = cache._entries.values()
            assert entry.key == ("table", "data", table.version)
            assert entry.partition is table.columnar()
        assert cursors_opened == []
        assert tree_signature(tree.root) == reference_tree

    def test_staged_fit_keeps_nothing_and_the_server_one_encoding(
            self, cursors_opened, slices_submitted, monkeypatch,
            reference_tree):
        server = make_server()
        table = server.table("data")
        config = MiddlewareConfig(memory_bytes=4 * 1024 * 1024)
        with Middleware(server, "data", SPEC, config) as session:
            tree = fit(session)
            (root_scan,) = session.trace.by_mode("SERVER")
            # The root stages everything it reads: nothing will read
            # the table again, so the session keeps nothing of it...
            assert not root_scan.cached and not root_scan.cache_hit
            assert root_scan.rows_seen == len(ROWS)
            assert session.execution.scan_cache.resident_entries == 0
        # ...while the scan counted slices of the server's one encoding
        # of this version, which the server keeps.
        encoded = table.columnar()
        assert table._encoding == (table.version, encoded)
        assert slices_submitted
        assert all(source is encoded for source, _ in slices_submitted)
        assert cursors_opened == []
        assert tree_signature(tree.root) == reference_tree
        # A second fit of the same version reads no heap row at all.
        monkeypatch.setattr(
            HeapTable, "scan_rows",
            lambda self: pytest.fail("read heap rows again"),
        )
        with Middleware(server, "data", SPEC, config) as session:
            assert tree_signature(fit(session).root) == reference_tree


class TestOneEncodingPerTableVersion:
    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_cache_sql_fallback_and_server_share_one_object(
            self, executor, monkeypatch, reference_tree):
        handed_out = []
        columnar = HeapTable.columnar

        def recording(table):
            handed_out.append(columnar(table))
            return handed_out[-1]

        full_encodes = []
        from_rows = ColumnarPartition.from_rows.__func__

        def counting(cls, rows):
            if len(rows) == len(ROWS):
                full_encodes.append(len(rows))
            return from_rows(cls, rows)

        monkeypatch.setattr(HeapTable, "columnar", recording)
        monkeypatch.setattr(
            ColumnarPartition, "from_rows", classmethod(counting)
        )
        server = make_server()
        # 500 bytes: CC tables overflow, so SQL fallbacks fire.
        config = MiddlewareConfig.no_staging(500, **EXECUTORS[executor])
        with Middleware(server, "data", SPEC, config) as session:
            tree = fit(session)
            assert session.stats.sql_fallbacks > 0
            (entry,) = session.execution.scan_cache._entries.values()
            # One miss asked the server once; every SQL fallback's
            # grouped count asked again and got the same object.
            assert len(handed_out) > 1
            assert all(p is entry.partition for p in handed_out)
            assert entry.partition is server.table("data").columnar()
        assert full_encodes == [len(ROWS)]
        assert tree_signature(tree.root) == reference_tree

    def test_a_second_session_re_encodes_nothing(self, monkeypatch):
        server = make_server()
        config = MiddlewareConfig.no_staging(1_000_000, scan_workers=1)
        with Middleware(server, "data", SPEC, config) as session:
            fit(session)
        encoded = server.table("data").columnar()
        monkeypatch.setattr(
            ColumnarPartition, "from_rows",
            lambda *a, **k: pytest.fail("re-encoded an unchanged table"),
        )
        with Middleware(server, "data", SPEC, config) as session:
            fit(session)
            first = session.trace[0]
            assert first.cached and not first.cache_hit  # this cache's miss
            (entry,) = session.execution.scan_cache._entries.values()
            assert entry.partition is encoded

    def test_insert_between_scans_strands_the_old_version(
            self, slices_submitted):
        server = make_server()
        table = server.table("data")
        config = MiddlewareConfig.no_staging(1_000_000, scan_workers=1)
        with Middleware(server, "data", SPEC, config) as session:
            classifier = DecisionTreeClassifier(max_depth=1)
            classifier.fit(session)
            cache = session.execution.scan_cache
            assert (cache.misses, cache.resident_entries) == (1, 1)
            old = table.columnar()
            assert all(source is old for source, _ in slices_submitted)
            del slices_submitted[:]

            table.insert(ROWS[0])
            grown = ROWS + [ROWS[0]]
            tree = DecisionTreeClassifier(max_depth=1).fit(session).tree
            new = table.columnar()
            assert new is not old and new.n_rows == len(grown)
            assert cache.misses == 2 and cache.resident_entries == 1
            (entry,) = cache._entries.values()
            assert entry.key == ("table", "data", table.version)
            # No scan after the INSERT counted over the old encoding.
            assert slices_submitted
            assert all(source is new for source, _ in slices_submitted)
            assert tree_signature(tree.root) == tree_signature(
                grow_in_memory(grown, SPEC, GrowthPolicy(max_depth=1)).root
            )


def _reference_stream_cost(batches):
    """What the metered cursor stream charges for the same scans."""
    server = make_server()
    strategy = PlainScanStrategy(server, "data")
    for predicate, relevant in batches:
        for _ in strategy.rows(predicate, relevant):
            pass
    return dict(server.meter.charges), dict(server.meter.counts)


class TestTransientScans:
    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    @pytest.mark.parametrize("budget", [0, 64 * 1024],
                             ids=["cache-off", "oversize"])
    def test_uncacheable_table_is_counted_with_the_keep_mask(
            self, budget, executor, cursors_opened, slices_submitted,
            reference_tree):
        server = make_server()
        config = MiddlewareConfig.no_staging(
            1_000_000, scan_cache_bytes=budget, **EXECUTORS[executor]
        )
        with Middleware(server, "data", SPEC, config) as session:
            batches = record_plan_requests(session)
            tree = fit(session)
            records = list(session.trace)
            assert all(r.mode == "SERVER" for r in records)
            assert not any(r.cached or r.cache_hit for r in records)
            # Filtered levels see only the rows the route kept.
            assert records[0].rows_seen == len(ROWS)
            assert all(r.rows_seen == r.rows_routed for r in records[1:])
            assert any(r.rows_seen < len(ROWS) for r in records[1:])
            cache = session.execution.scan_cache
            assert cache is None or cache.resident_entries == 0
        assert cursors_opened == []
        # Partition-sized slices of the server's one encoding.
        encoded = server.table("data").columnar()
        assert slices_submitted
        assert all(source is encoded and rows <= records[0].partition_rows
                   for source, rows in slices_submitted)
        assert tree_signature(tree.root) == reference_tree
        # ...at exactly the price of the cursor stream it replaced.
        charges, counts = _reference_stream_cost(batches)
        assert dict(server.meter.charges) == pytest.approx(charges)
        assert dict(server.meter.counts) == counts


class TestUnsupportedBatchFilter:
    def test_a_filter_the_keep_mask_cannot_evaluate_is_an_error(
            self, monkeypatch, cursors_opened):
        # The middleware builds batch filters from PathConditions,
        # whose operators are validated to = / <>; plant one it never
        # would.
        monkeypatch.setattr(
            execution, "batch_filter",
            lambda predicates: Comparison("<", col("A1"), lit(1)),
        )
        server = make_server()
        config = MiddlewareConfig.no_staging(1_000_000, scan_workers=1)
        with Middleware(server, "data", SPEC, config) as session:
            with pytest.raises(MiddlewareError, match="A1 < 1"):
                fit(session)
            assert session.budget.used == 0
            assert session.budget.tags() == []
            assert len(session.trace) == 0
        assert cursors_opened == []
        assert server.meter.total == 0.0
