"""Unit tests for the execution module: single-scan counting, staging
writes, and the SQL fallback (§4.1)."""

import pytest

from repro.client.baselines import build_cc_from_rows
from repro.core.config import MiddlewareConfig
from repro.core.filters import PathCondition
from repro.core.middleware import Middleware
from repro.core.requests import CountsRequest
from repro.core.staging import DataLocation
from repro.datagen.dataset import DatasetSpec
from repro.datagen.loader import load_dataset
from repro.sqlengine.database import SQLServer

SPEC = DatasetSpec([3, 3], 3)


def dataset_rows():
    """A tiny deterministic data set over (A1, A2, class)."""
    rows = []
    label = 0
    for a1 in range(3):
        for a2 in range(3):
            for _ in range(a1 + a2 + 1):
                rows.append((a1, a2, label % 3))
                label += 1
    return rows


def make_server(rows):
    server = SQLServer()
    load_dataset(server, "data", SPEC, rows)
    return server


def middleware_for(server, **config_overrides):
    config_overrides.setdefault("memory_bytes", 100_000)
    return Middleware(server, "data", SPEC, MiddlewareConfig(**config_overrides))


def root_request(rows):
    return CountsRequest(
        node_id="root",
        lineage=("root",),
        conditions=(),
        attributes=("A1", "A2"),
        n_rows=len(rows),
        est_cc_pairs=6,
    )


def child_request(node_id, value, rows, attributes=("A2",), est_cc_pairs=3):
    subset = [r for r in rows if r[0] == value]
    return CountsRequest(
        node_id=node_id,
        lineage=("root", node_id),
        conditions=(PathCondition("A1", "=", value),),
        attributes=attributes,
        n_rows=len(subset),
        est_cc_pairs=est_cc_pairs,
    )


class TestSingleScanCounting:
    def test_root_counts_match_reference(self):
        rows = dataset_rows()
        server = make_server(rows)
        with middleware_for(server) as mw:
            mw.queue_request(root_request(rows))
            (result,) = mw.process_next_batch()
        expected = build_cc_from_rows(rows, SPEC, ("A1", "A2"))
        assert result.cc == expected
        assert result.source is DataLocation.SERVER
        assert not result.used_sql_fallback

    def test_multiple_nodes_one_scan(self):
        rows = dataset_rows()
        server = make_server(rows)
        with middleware_for(server, file_staging=False,
                            memory_staging=False) as mw:
            for value in range(3):
                mw.queue_request(child_request(f"n{value}", value, rows))
            results = mw.process_next_batch()
            assert len(results) == 3
            assert mw.stats.batches == 1
            for value, result in zip(range(3), sorted(
                results, key=lambda r: r.node_id
            )):
                subset = [r for r in rows if r[0] == value]
                assert result.cc == build_cc_from_rows(subset, SPEC, ("A2",))

    def test_only_requested_attributes_counted(self):
        rows = dataset_rows()
        server = make_server(rows)
        with middleware_for(server) as mw:
            mw.queue_request(child_request("n0", 0, rows, attributes=("A2",)))
            (result,) = mw.process_next_batch()
        assert result.cc.attributes == ("A2",)
        assert result.cc.cardinality("A1") == 0

    def test_row_count_mismatch_raises(self):
        rows = dataset_rows()
        server = make_server(rows)
        bad = CountsRequest(
            node_id="bad",
            lineage=("bad",),
            conditions=(),
            attributes=("A1",),
            n_rows=len(rows) + 5,  # lie about the size
            est_cc_pairs=3,
        )
        from repro.common.errors import MiddlewareError

        with middleware_for(server) as mw:
            mw.queue_request(bad)
            with pytest.raises(MiddlewareError, match="promised"):
                mw.process_next_batch()


class _SpyStrategy:
    """Wraps a server-access strategy, recording the predicates its
    plans are asked with."""

    def __init__(self, inner):
        self._inner = inner
        self.predicates = []

    def plan_columnar(self, predicate, relevant):
        self.predicates.append(predicate)
        return self._inner.plan_columnar(predicate, relevant)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestRowSources:
    """Source contracts: metering and filter push-down wiring."""

    def test_memory_scan_meters_one_read_per_row(self):
        rows = dataset_rows()
        server = make_server(rows)
        with middleware_for(server, file_staging=False) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()  # stages all rows into memory
            before = server.meter.counts["memory_read"]
            charge_before = server.meter.charges["memory_read"]
            mw.queue_request(child_request("n0", 0, rows))
            mw.process_next_batch()  # served from root's memory set
            # Exactly one metered read event per source row, priced at
            # the model's per-row memory rate.
            assert server.meter.counts["memory_read"] - before == len(rows)
            assert server.meter.charges["memory_read"] - charge_before == \
                pytest.approx(server.model.memory_row * len(rows))

    def test_push_filters_off_sends_no_predicate(self):
        rows = dataset_rows()
        for push in (True, False):
            server = make_server(rows)
            with middleware_for(server, file_staging=False,
                                memory_staging=False,
                                push_filters=push) as mw:
                spy = _SpyStrategy(mw.execution._strategy)
                mw.execution._strategy = spy
                mw.queue_request(child_request("n0", 0, rows))
                mw.process_next_batch()
            assert len(spy.predicates) == 1
            if push:
                assert spy.predicates[0] is not None
            else:
                assert spy.predicates[0] is None


class TestFilterPushdown:
    def test_pushdown_reduces_transfer(self):
        rows = dataset_rows()
        pushed_server = make_server(rows)
        with middleware_for(pushed_server, file_staging=False,
                            memory_staging=False) as mw:
            mw.queue_request(child_request("n0", 0, rows))
            mw.process_next_batch()
        pushed = pushed_server.meter.charges["transfer"]

        plain_server = make_server(rows)
        with middleware_for(plain_server, file_staging=False,
                            memory_staging=False, push_filters=False) as mw:
            mw.queue_request(child_request("n0", 0, rows))
            mw.process_next_batch()
        unpushed = plain_server.meter.charges["transfer"]
        assert pushed < unpushed

    def test_pushdown_does_not_change_counts(self):
        rows = dataset_rows()
        results = {}
        for push in (True, False):
            server = make_server(rows)
            with middleware_for(server, push_filters=push) as mw:
                mw.queue_request(child_request("n1", 1, rows))
                (result,) = mw.process_next_batch()
                results[push] = result.cc
        assert results[True] == results[False]


class TestFileStaging:
    def test_server_scan_writes_staging_file(self):
        rows = dataset_rows()
        server = make_server(rows)
        with middleware_for(server, memory_staging=False) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            assert mw.staging.file_nodes() == ["root"]
            staged = mw.staging.file_for("root")
            assert staged.row_count == len(rows)
            assert server.meter.charges["file_write"] > 0

    def test_descendants_served_from_file(self):
        rows = dataset_rows()
        server = make_server(rows)
        with middleware_for(server, memory_staging=False) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            mw.queue_request(child_request("n0", 0, rows))
            (result,) = mw.process_next_batch()
            assert result.source is DataLocation.FILE
            assert mw.stats.scans_by_mode[DataLocation.SERVER] == 1
            assert mw.stats.scans_by_mode[DataLocation.FILE] == 1

    def test_split_writes_per_node_files(self):
        rows = dataset_rows()
        server = make_server(rows)
        with middleware_for(
            server, memory_staging=False, file_split_threshold=1.0
        ) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            mw.queue_request(child_request("n0", 0, rows))
            mw.queue_request(child_request("n1", 1, rows))
            mw.process_next_batch()
            nodes = mw.staging.file_nodes()
            assert "n0" in nodes and "n1" in nodes
            n0_rows = [r for r in rows if r[0] == 0]
            assert mw.staging.file_for("n0").row_count == len(n0_rows)


class TestMemoryStaging:
    def test_server_scan_loads_memory(self):
        rows = dataset_rows()
        server = make_server(rows)
        with middleware_for(server, file_staging=False) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            assert mw.staging.memory_nodes() == ["root"]
            mw.queue_request(child_request("n0", 0, rows))
            (result,) = mw.process_next_batch()
            assert result.source is DataLocation.MEMORY

    def test_memory_scan_is_cheapest(self):
        rows = dataset_rows()

        def cost_of(config_kwargs):
            server = make_server(rows)
            with middleware_for(server, **config_kwargs) as mw:
                mw.queue_request(root_request(rows))
                mw.process_next_batch()
                server.meter.reset()
                mw.queue_request(child_request("n0", 0, rows))
                mw.process_next_batch()
                return server.meter.total

        memory = cost_of({"file_staging": False})
        file_ = cost_of({"memory_staging": False})
        server_ = cost_of({"file_staging": False, "memory_staging": False})
        assert memory < file_ < server_


class TestSQLFallback:
    def test_tiny_budget_falls_back_and_stays_correct(self):
        rows = dataset_rows()
        server = make_server(rows)
        with middleware_for(
            server, memory_bytes=8, file_staging=False, memory_staging=False
        ) as mw:
            mw.queue_request(root_request(rows))
            (result,) = mw.process_next_batch()
        assert result.used_sql_fallback
        assert result.cc == build_cc_from_rows(rows, SPEC, ("A1", "A2"))
        assert mw.stats.sql_fallbacks == 1
        # The fallback issued a real (UNION) SQL statement.
        assert server.meter.charges["query_overhead"] > 0

    def test_partial_budget_some_nodes_fall_back(self):
        rows = dataset_rows()
        server = make_server(rows)
        # Enough for roughly one CC table (3 pairs x 20B) but not three.
        with middleware_for(
            server, memory_bytes=70, file_staging=False, memory_staging=False
        ) as mw:
            for value in range(3):
                mw.queue_request(child_request(f"n{value}", value, rows))
            fallbacks = 0
            while mw.pending:
                for result in mw.process_next_batch():
                    value = int(result.node_id[1])
                    subset = [r for r in rows if r[0] == value]
                    assert result.cc == build_cc_from_rows(
                        subset, SPEC, ("A2",)
                    )
                    fallbacks += result.used_sql_fallback
        assert mw.budget.used == 0  # everything released


class TestDeferral:
    def test_overflow_in_shared_scan_defers_not_falls_back(self):
        rows = dataset_rows()
        server = make_server(rows)
        # Underestimates (1 pair each) admit all three nodes at once,
        # but the budget cannot hold their real CC tables (3 pairs each).
        with middleware_for(
            server, memory_bytes=100, file_staging=False, memory_staging=False
        ) as mw:
            for value in range(3):
                mw.queue_request(
                    child_request(f"n{value}", value, rows, est_cc_pairs=1)
                )
            mw.process_next_batch()
            assert mw.stats.deferrals >= 1
            assert mw.pending >= 1  # deferred requests were re-queued

    def test_deferred_nodes_eventually_served_exactly(self):
        rows = dataset_rows()
        server = make_server(rows)
        with middleware_for(
            server, memory_bytes=100, file_staging=False, memory_staging=False
        ) as mw:
            for value in range(3):
                mw.queue_request(
                    child_request(f"n{value}", value, rows, est_cc_pairs=1)
                )
            results = {}
            while mw.pending:
                for result in mw.process_next_batch():
                    results[result.node_id] = result
        assert len(results) == 3
        for value in range(3):
            subset = [r for r in rows if r[0] == value]
            assert results[f"n{value}"].cc == build_cc_from_rows(
                subset, SPEC, ("A2",)
            )

    def test_deferral_raises_estimate(self):
        rows = dataset_rows()
        server = make_server(rows)
        with middleware_for(
            server, memory_bytes=100, file_staging=False, memory_staging=False
        ) as mw:
            requests = [
                child_request(f"n{value}", value, rows, est_cc_pairs=1)
                for value in range(3)
            ]
            original = {r.node_id: r.est_cc_pairs for r in requests}
            for request in requests:
                mw.queue_request(request)
            mw.process_next_batch()
            for request in requests:
                assert request.est_cc_pairs >= original[request.node_id]

    def test_solo_overflow_falls_back_to_sql(self):
        rows = dataset_rows()
        server = make_server(rows)
        with middleware_for(
            server, memory_bytes=8, file_staging=False, memory_staging=False
        ) as mw:
            mw.queue_request(root_request(rows))
            (result,) = mw.process_next_batch()
        assert result.used_sql_fallback
        assert mw.stats.deferrals == 0


class TestStatsAndCleanup:
    def test_stats_accumulate(self):
        rows = dataset_rows()
        server = make_server(rows)
        with middleware_for(server) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            assert mw.stats.batches == 1
            assert mw.stats.rows_seen == len(rows)
            assert mw.stats.rows_routed == len(rows)

    def test_budget_fully_released_after_batches(self):
        rows = dataset_rows()
        server = make_server(rows)
        with middleware_for(server, file_staging=False,
                            memory_staging=False) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            assert mw.budget.used == 0
