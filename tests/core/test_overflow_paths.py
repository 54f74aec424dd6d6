"""Correctness sweep of the §4.1.1 overflow and staging recovery paths.

Covers the runtime-memory recoveries (deferral vs SQL fallback), the
file-space budget on the §4.3.2 split path, and the cleanup branch of
``ExecutionModule.run`` when a scan dies mid-flight.
"""

import os

import pytest

from repro.client.baselines import build_cc_from_rows
from repro.core.config import MiddlewareConfig
from repro.core.filters import PathCondition
from repro.core.middleware import Middleware
from repro.core.requests import CountsRequest
from repro.datagen.dataset import DatasetSpec
from repro.datagen.loader import load_dataset
from repro.sqlengine.database import SQLServer

from .plan_seam import wrap_plan_slices

SPEC = DatasetSpec([3, 3], 3)


def dataset_rows():
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


def root_request(rows):
    return CountsRequest(
        node_id="root",
        lineage=("root",),
        conditions=(),
        attributes=("A1", "A2"),
        n_rows=len(rows),
        est_cc_pairs=6,
    )


def child_request(node_id, value, rows, est_cc_pairs=3):
    subset = [r for r in rows if r[0] == value]
    return CountsRequest(
        node_id=node_id,
        lineage=("root", node_id),
        conditions=(PathCondition("A1", "=", value),),
        attributes=("A2",),
        n_rows=len(subset),
        est_cc_pairs=est_cc_pairs,
    )


@pytest.fixture(
    params=[
        # Every default: each source here is one inline partition.
        {},
        # One worker, 2-row chunks: several inline partitions per scan
        # (admission post-merge, staging applied in place).
        {"scan_workers": 1, "scan_chunk_rows": 2},
        # Smaller partitions still, transient (nothing cached), on two
        # pool threads.
        {"scan_workers": 2, "scan_chunk_rows": 4, "scan_cache_bytes": 0},
    ],
    ids=["one-partition", "inline", "threads"],
)
def scan_loop(request):
    """Config overrides selecting an executor and partition size: each
    must take the same recovery decisions and clean up the same way."""
    return request.param


class TestLastSurvivorFallsBack:
    """Regression: `_abandon` used to count already-abandoned peers.

    With ``len(matchers) > 1`` as the defer test, the last surviving
    node of a batch whose peers all overflowed was deferred with a
    raised estimate — costing an extra scan — instead of switching to
    SQL-based lazy counting like any other solo overflow.
    """

    def overflow_everyone(self, scan_loop):
        rows = dataset_rows()
        server = make_server(rows)
        # est 1 pair/node admits both (2 x 20B = 40B budget), but each
        # node's true CC is 3 pairs (60B): both must overflow.
        mw = Middleware(
            server, "data", SPEC,
            MiddlewareConfig(
                memory_bytes=40,
                file_staging=False,
                memory_staging=False,
                **scan_loop,
            ),
        )
        with mw:
            for value in range(2):
                mw.queue_request(
                    child_request(f"n{value}", value, rows, est_cc_pairs=1)
                )
            results = {r.node_id: r for r in mw.process_next_batch()}
            first_scan = mw.trace[0]
            while mw.pending:
                for result in mw.process_next_batch():
                    results[result.node_id] = result
            budget_used = mw.budget.used
        return rows, mw, results, first_scan, budget_used

    def test_last_survivor_uses_sql_fallback(self, scan_loop):
        _, mw, _, first_scan, _ = self.overflow_everyone(scan_loop)
        assert first_scan.deferrals == 1
        assert first_scan.sql_fallbacks == 1
        # One extra scan for the deferred node; no third scan for a
        # node that could never have fit anyway.
        assert mw.stats.batches == 2

    def test_counts_stay_exact_through_both_recoveries(self, scan_loop):
        rows, _, results, _, _ = self.overflow_everyone(scan_loop)
        for value in range(2):
            subset = [r for r in rows if r[0] == value]
            assert results[f"n{value}"].cc == build_cc_from_rows(
                subset, SPEC, ("A2",)
            )

    def test_budget_clean_after_recoveries(self, scan_loop):
        _, _, _, _, budget_used = self.overflow_everyone(scan_loop)
        assert budget_used == 0


class TestDeferralRaisesEstimate:
    def test_deferred_estimate_matches_observed_pairs(self, scan_loop):
        rows = dataset_rows()
        server = make_server(rows)
        requests = [
            child_request(f"n{value}", value, rows, est_cc_pairs=1)
            for value in range(3)
        ]
        with Middleware(
            server, "data", SPEC,
            MiddlewareConfig(
                memory_bytes=100,
                file_staging=False,
                memory_staging=False,
                **scan_loop,
            ),
        ) as mw:
            for request in requests:
                mw.queue_request(request)
            mw.process_next_batch()
            deferred = [r for r in requests if r.est_cc_pairs > 1]
            assert deferred  # someone overflowed and was re-estimated
            for request in deferred:
                # The new estimate is the observed pair count — a lower
                # bound on the truth, and at least one better than the
                # original lie.
                assert 2 <= request.est_cc_pairs <= 3

    def test_lone_node_overflow_falls_back_not_defers(self, scan_loop):
        rows = dataset_rows()
        server = make_server(rows)
        with Middleware(
            server, "data", SPEC,
            MiddlewareConfig.no_staging(8, **scan_loop),
        ) as mw:
            mw.queue_request(root_request(rows))
            (result,) = mw.process_next_batch()
        assert result.used_sql_fallback
        assert mw.stats.deferrals == 0
        assert mw.stats.sql_fallbacks == 1
        assert result.cc == build_cc_from_rows(rows, SPEC, ("A1", "A2"))


class TestSplitFileBudget:
    """Regression: §4.3.2 split files bypassed ``file_budget_bytes``."""

    def split_scan(self, file_budget_rows, scan_loop):
        rows = dataset_rows()
        server = make_server(rows)
        row_bytes = SPEC.row_bytes
        mw = Middleware(
            server, "data", SPEC,
            MiddlewareConfig(
                memory_bytes=100_000,
                memory_staging=False,
                file_split_threshold=1.0,
                file_budget_bytes=file_budget_rows * row_bytes,
                **scan_loop,
            ),
        )
        with mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()  # stages root (27 rows) to a file
            mw.queue_request(child_request("n0", 0, rows))  # 6 rows
            mw.queue_request(child_request("n1", 1, rows))  # 9 rows
            mw.process_next_batch()
            staged = mw.staging.file_nodes()
            bytes_used = mw.staging.file_bytes_used
        return mw, staged, bytes_used

    def test_split_respects_file_budget(self, scan_loop):
        # Root (27) + n0 (6) fit a 35-row budget; adding n1 (9) would
        # not — n1's split file must be skipped, not written.
        _, staged, bytes_used = self.split_scan(35, scan_loop)
        assert "n0" in staged
        assert "n1" not in staged
        assert bytes_used <= 35 * SPEC.row_bytes

    def test_skipped_split_still_counts_node(self, scan_loop):
        mw, _, _ = self.split_scan(35, scan_loop)
        # Both children were served on the split scan despite n1's
        # split target being skipped.
        record = mw.trace[1]
        assert set(record.batch) == {"n0", "n1"}
        assert record.sql_fallbacks == 0 and record.deferrals == 0

    def test_roomy_budget_splits_everyone(self, scan_loop):
        _, staged, _ = self.split_scan(100, scan_loop)
        assert "n0" in staged and "n1" in staged


class _ExplodingSlices:
    """A SERVER scan's slice loop that dies after ``blow_after`` slices
    (at its end, when the scan is shorter)."""

    def __init__(self, starts, blow_after):
        self._starts = starts
        self._remaining = blow_after

    def __iter__(self):
        return self

    def __next__(self):
        if self._remaining == 0:
            raise RuntimeError("simulated mid-scan failure")
        self._remaining -= 1
        return next(self._starts)


class TestExceptionCleanup:
    """`ExecutionModule.run`'s except branch must release everything."""

    def exploding_middleware(self, scan_loop, blow_after=1,
                             **config_overrides):
        rows = dataset_rows()
        server = make_server(rows)
        config_overrides.setdefault("memory_bytes", 100_000)
        config_overrides.update(scan_loop)
        mw = Middleware(
            server, "data", SPEC, MiddlewareConfig(**config_overrides)
        )
        self.restore = wrap_plan_slices(
            mw, lambda starts: _ExplodingSlices(starts, blow_after)
        )
        return mw, rows

    def test_file_writers_abandoned(self, scan_loop):
        mw, rows = self.exploding_middleware(
            scan_loop, memory_staging=False
        )
        with mw:
            mw.queue_request(root_request(rows))
            with pytest.raises(RuntimeError, match="mid-scan"):
                mw.process_next_batch()
            assert mw.staging.file_nodes() == []
            staging_dir = mw.staging._dir
            assert os.listdir(staging_dir) == []
            assert mw.budget.used == 0

    def test_memory_reservations_cancelled(self, scan_loop):
        mw, rows = self.exploding_middleware(
            scan_loop, file_staging=False
        )
        with mw:
            mw.queue_request(root_request(rows))
            with pytest.raises(RuntimeError, match="mid-scan"):
                mw.process_next_batch()
            assert mw.staging.memory_nodes() == []
            assert mw.budget.used == 0

    def test_cc_reservations_released(self, scan_loop):
        mw, rows = self.exploding_middleware(
            scan_loop, file_staging=False, memory_staging=False
        )
        with mw:
            mw.queue_request(root_request(rows))
            with pytest.raises(RuntimeError, match="mid-scan"):
                mw.process_next_batch()
            assert mw.budget.used == 0
            assert mw.budget.tags() == []

    def test_session_survives_and_recovers(self, scan_loop):
        # After the failed scan the same node can be re-queued and
        # served: no poisoned reservations or half-written files.
        mw, rows = self.exploding_middleware(
            scan_loop, memory_staging=False
        )
        with mw:
            mw.queue_request(root_request(rows))
            with pytest.raises(RuntimeError, match="mid-scan"):
                mw.process_next_batch()
            self.restore()
            mw.queue_request(root_request(rows))
            (result,) = mw.process_next_batch()
            assert result.cc == build_cc_from_rows(rows, SPEC, ("A1", "A2"))
