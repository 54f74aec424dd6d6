"""Failure injection: the middleware cleans up when scans die mid-way."""

import pytest

from repro.common.errors import MiddlewareError, StagingError
from repro.core.config import MiddlewareConfig
from repro.core.filters import PathCondition
from repro.core.middleware import Middleware
from repro.core.requests import CountsRequest
from repro.datagen.dataset import DatasetSpec
from repro.datagen.loader import load_dataset
from repro.sqlengine.database import SQLServer

SPEC = DatasetSpec([3, 3], 2)
ROWS = [(a, b, (a + b) % 2) for a in range(3) for b in range(3)
        for _ in range(4)]


def make_middleware(**overrides):
    server = SQLServer()
    load_dataset(server, "data", SPEC, ROWS)
    overrides.setdefault("memory_bytes", 50_000)
    return Middleware(server, "data", SPEC, MiddlewareConfig(**overrides))


def root_request(n_rows=len(ROWS)):
    return CountsRequest(
        node_id="root",
        lineage=("root",),
        conditions=(),
        attributes=("A1", "A2"),
        n_rows=n_rows,
        est_cc_pairs=6,
    )


class _ExplodingIterator:
    """Row iterator that dies after a few rows."""

    def __init__(self, rows, blow_after):
        self._rows = iter(rows)
        self._remaining = blow_after

    def __iter__(self):
        return self

    def __next__(self):
        if self._remaining == 0:
            raise RuntimeError("disk on fire")
        self._remaining -= 1
        return next(self._rows)


class TestScanFailureCleanup:
    def _explode(self, middleware, blow_after=3):
        """Patch the execution module's row source to fail mid-scan."""
        original = middleware.execution._rows_for

        def failing(schedule, scan):
            return _ExplodingIterator(original(schedule, scan), blow_after)

        middleware.execution._rows_for = failing

    def test_cc_reservations_released_on_failure(self):
        with make_middleware() as mw:
            self._explode(mw)
            mw.queue_request(root_request())
            with pytest.raises(RuntimeError, match="disk on fire"):
                mw.process_next_batch()
            assert mw.budget.used == 0

    def test_partial_staging_files_removed_on_failure(self):
        with make_middleware(memory_staging=False) as mw:
            self._explode(mw)
            mw.queue_request(root_request())
            with pytest.raises(RuntimeError):
                mw.process_next_batch()
            assert mw.staging.file_nodes() == []

    def test_memory_reservations_cancelled_on_failure(self):
        with make_middleware(file_staging=False) as mw:
            self._explode(mw)
            mw.queue_request(root_request())
            with pytest.raises(RuntimeError):
                mw.process_next_batch()
            assert mw.staging.memory_nodes() == []
            assert mw.budget.used == 0

    def test_middleware_still_usable_after_failure(self):
        with make_middleware() as mw:
            self._explode(mw)
            mw.queue_request(root_request())
            with pytest.raises(RuntimeError):
                mw.process_next_batch()
            # Restore a healthy row source and retry from scratch.
            mw.execution._rows_for = type(mw.execution)._rows_for.__get__(
                mw.execution
            )
            mw.queue_request(root_request())
            (result,) = mw.process_next_batch()
            assert result.cc.records == len(ROWS)


class TestPoisonedPartition:
    """A worker dying mid-scan must not corrupt the session.

    The poison is a row carrying an unhashable attribute value: the
    routing kernel's dict probe raises ``TypeError`` *inside a pool
    worker*, which is the failure mode the persistent pool must survive
    — outstanding futures drained, the staging writer aborted, no
    half-written staged file left behind, and the same pool object
    serving the next scan.
    """

    POISON = ([], 0, 0)  # unhashable A1 value blows up in the worker

    def _poison(self, middleware, poison_after=8):
        original = middleware.execution._rows_for

        def poisoned(schedule, scan):
            rows = list(original(schedule, scan))
            rows.insert(poison_after, self.POISON)
            return iter(rows)

        middleware.execution._rows_for = poisoned

    def _restore(self, middleware):
        middleware.execution._rows_for = type(
            middleware.execution
        )._rows_for.__get__(middleware.execution)

    PARALLEL = {
        "scan_workers": 2,
        "scan_parallel_min_rows": 0,
        "scan_chunk_rows": 4,
        # The poison rides the streaming row source (``_rows_for``),
        # which the columnar cache's encode-once path never touches —
        # pin the cache off so the streaming failure path stays under
        # test.  TestPoisonedCachedScan covers the cached path.
        "scan_columnar_cache": False,
    }

    #: The same scan through the inline executor: one worker, so the
    #: poison is met on the calling thread, mid-stream, with the
    #: earlier partitions' staged rows already appended in place.
    INLINE = dict(PARALLEL, scan_workers=1)

    def _assert_poisoned_scan_leaves_nothing(self, tmp_path, **config):
        with make_middleware(memory_staging=False,
                             staging_dir=str(tmp_path),
                             **config) as mw:
            self._poison(mw)
            mw.queue_request(root_request())
            with pytest.raises(TypeError):
                mw.process_next_batch()
            # The poisoned scan staged nothing and leaked nothing: no
            # registered file, no stray bytes on disk, no memory held.
            assert mw.staging.file_nodes() == []
            assert list(tmp_path.iterdir()) == []
            assert mw.budget.used == 0
            assert mw.budget.tags() == []

    def test_staged_file_set_unchanged_after_worker_failure(self, tmp_path):
        self._assert_poisoned_scan_leaves_nothing(tmp_path, **self.PARALLEL)

    def test_staged_file_set_unchanged_after_inline_failure(self, tmp_path):
        self._assert_poisoned_scan_leaves_nothing(tmp_path, **self.INLINE)

    def test_inline_executor_serves_the_next_scan(self, tmp_path):
        with make_middleware(memory_staging=False,
                             staging_dir=str(tmp_path),
                             **self.INLINE) as mw:
            self._poison(mw, poison_after=20)  # past the first partition
            mw.queue_request(root_request())
            with pytest.raises(TypeError):
                mw.process_next_batch()
            pool = mw.scan_pool
            assert pool is not None and pool.inline
            self._restore(mw)
            mw.queue_request(root_request())
            (result,) = mw.process_next_batch()
            assert result.cc.records == len(ROWS)
            assert mw.execution.last_scan.columnar
            assert mw.scan_pool is pool and pool.pools_created == 0
            # The retry staged the root afresh over the abandoned file.
            assert list(mw.staging.file_for("root").scan()) == ROWS

    def test_pool_survives_and_serves_the_next_scan(self):
        with make_middleware(**self.PARALLEL) as mw:
            self._poison(mw)
            mw.queue_request(root_request())
            with pytest.raises(TypeError):
                mw.process_next_batch()
            pool = mw.scan_pool
            assert pool is not None and pool.active
            created_before = pool.pools_created
            self._restore(mw)
            mw.queue_request(root_request())
            (result,) = mw.process_next_batch()
            assert result.cc.records == len(ROWS)
            # Same pool object, same executor: a worker-level failure
            # does not cost the session its warm pool.
            assert mw.scan_pool is pool
            assert pool.pools_created == created_before

    def test_poison_mid_stream_with_prefetch_enabled(self, tmp_path):
        with make_middleware(memory_staging=False,
                             staging_dir=str(tmp_path),
                             scan_prefetch_partitions=3,
                             **self.PARALLEL) as mw:
            self._poison(mw, poison_after=20)
            mw.queue_request(root_request())
            with pytest.raises(TypeError):
                mw.process_next_batch()
            assert mw.staging.file_nodes() == []
            assert list(tmp_path.iterdir()) == []
            assert mw.budget.used == 0


class TestPoisonedCachedScan:
    """A scan served by the warm columnar cache dying mid-count.

    The cached encoding is valid regardless of how a count over it
    ends, so a failed warm scan must leave the cache entry serving:
    futures drained, no staging residue, the *same* entry (no
    re-encode) counting the retry.
    """

    PARALLEL = {
        "scan_workers": 2,
        "scan_parallel_min_rows": 0,
        "scan_chunk_rows": 4,
    }

    def test_warm_scan_failure_leaves_cache_serving(self):
        with make_middleware(file_staging=False, memory_staging=False,
                             **self.PARALLEL) as mw:
            mw.queue_request(root_request())
            mw.process_next_batch()  # cold scan: encodes and admits
            cache = mw.execution.scan_cache
            if cache is None or not mw.execution.last_scan.cached:
                pytest.skip("columnar cache not active (numpy missing)")
            assert cache.misses == 1
            pool = mw.scan_pool
            assert pool is not None
            original = pool.submit_columnar_slice
            calls = {"n": 0}

            def failing(*args, **kwargs):
                calls["n"] += 1
                if calls["n"] > 1:
                    raise RuntimeError("coordinator tripped")
                return original(*args, **kwargs)

            pool.submit_columnar_slice = failing
            mw.queue_request(root_request())
            with pytest.raises(RuntimeError, match="coordinator tripped"):
                mw.process_next_batch()
            pool.submit_columnar_slice = original
            # The warm entry survived the failed count untouched...
            assert cache.resident_entries == 1
            assert cache.hits >= 1
            assert mw.budget.used == 0
            # ...and serves the retry without re-encoding.
            mw.queue_request(root_request())
            (result,) = mw.process_next_batch()
            assert result.cc.records == len(ROWS)
            assert cache.misses == 1


class TestBadClientInput:
    def test_wrong_row_promise_surfaces_clearly(self):
        with make_middleware() as mw:
            mw.queue_request(root_request(n_rows=7))
            with pytest.raises(MiddlewareError, match="promised"):
                mw.process_next_batch()
            assert mw.budget.used == 0

    def test_unsealed_file_scan_rejected(self):
        with make_middleware() as mw:
            staged = mw.staging.open_file("x")
            with pytest.raises(StagingError, match="seal"):
                list(staged.scan())

    def test_overlapping_requests_still_counted_exactly(self):
        # Root and a child queued simultaneously (a client protocol
        # violation): every node still receives exact counts.
        with make_middleware(file_staging=False,
                             memory_staging=False) as mw:
            child_rows = sum(1 for r in ROWS if r[0] == 1)
            mw.queue_request(root_request())
            mw.queue_request(
                CountsRequest(
                    node_id="child",
                    lineage=("root", "child"),
                    conditions=(PathCondition("A1", "=", 1),),
                    attributes=("A2",),
                    n_rows=child_rows,
                    est_cc_pairs=3,
                )
            )
            results = {}
            while mw.pending:
                for result in mw.process_next_batch():
                    results[result.node_id] = result.cc
            assert results["root"].records == len(ROWS)
            assert results["child"].records == child_rows
