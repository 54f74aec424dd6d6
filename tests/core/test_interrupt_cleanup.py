"""Regressions: BaseException cleanup and worker-context reset.

Two bugs this file pins down:

* ``ExecutionModule.run`` used to clean up staged writers and
  reservations under ``except Exception:`` — a ``KeyboardInterrupt``
  (or any other ``BaseException``) mid-scan sailed past the handler
  with files open and CC/memory reservations held.
* the process-worker routing-context cache (``_PROCESS_CTX``) is a
  module global with no reset hook: a pool could leave its last
  installed context behind for the next pool (or test) to trip over
  at a matching generation number.
"""

import pickle
import threading

import pytest

from repro.core import scan_pool
from repro.core.config import MiddlewareConfig
from repro.core.filters import RoutingKernel
from repro.core.middleware import Middleware
from repro.core.requests import CountsRequest
from repro.core.vector_kernel import slot_layout
from repro.datagen.dataset import DatasetSpec
from repro.datagen.loader import load_dataset
from repro.sqlengine.columnar import ColumnarPartition
from repro.sqlengine.database import SQLServer

from .plan_seam import wrap_plan_slices

SPEC = DatasetSpec([3, 3], 2)
ROWS = [(a, b, (a + b) % 2) for a in range(3) for b in range(3)
        for _ in range(4)]


def make_middleware(**overrides):
    server = SQLServer()
    load_dataset(server, "data", SPEC, ROWS)
    overrides.setdefault("memory_bytes", 50_000)
    return Middleware(server, "data", SPEC, MiddlewareConfig(**overrides))


def root_request():
    return CountsRequest(
        node_id="root",
        lineage=("root",),
        conditions=(),
        attributes=("A1", "A2"),
        n_rows=len(ROWS),
        est_cc_pairs=6,
    )


class _InterruptingIterator:
    """Slice loop that raises KeyboardInterrupt after a few slices."""

    def __init__(self, slices, blow_after):
        self._slices = slices
        self._remaining = blow_after
        self.closed = False

    def __iter__(self):
        return self

    def __next__(self):
        if self._remaining == 0:
            raise KeyboardInterrupt
        self._remaining -= 1
        return next(self._slices)

    def close(self):
        """What a partitioned scan calls on the source it abandons."""
        self.closed = True
        self._slices.close()


class TestKeyboardInterruptCleanup:
    def _interrupt(self, middleware, blow_after=1):
        """Interrupt the SERVER scan's slice loop once its first slice
        is counted (every session here stages its root, so the scan is
        transient)."""
        def interrupting(slices):
            self.source = _InterruptingIterator(slices, blow_after)
            return self.source

        return wrap_plan_slices(middleware, interrupting)

    def test_file_writers_abandoned_on_interrupt(self, tmp_path):
        with make_middleware(memory_staging=False,
                             staging_dir=str(tmp_path)) as mw:
            self._interrupt(mw)
            mw.queue_request(root_request())
            with pytest.raises(KeyboardInterrupt):
                mw.process_next_batch()
            assert mw.staging.file_nodes() == []
            assert list(tmp_path.iterdir()) == []
            assert mw.budget.used == 0

    def test_memory_reservations_cancelled_on_interrupt(self):
        with make_middleware(file_staging=False) as mw:
            self._interrupt(mw)
            mw.queue_request(root_request())
            with pytest.raises(KeyboardInterrupt):
                mw.process_next_batch()
            assert mw.staging.memory_nodes() == []
            assert mw.budget.used == 0

    #: The inline executor with 16-row partitions, so an interrupt
    #: after the first slice lands mid-scan with that partition already
    #: counted and staged in place.
    INLINE = {"scan_workers": 1, "scan_chunk_rows": 2}

    def test_inline_interrupt_leaves_nothing_behind(self, tmp_path):
        threads_before = threading.active_count()
        with make_middleware(staging_dir=str(tmp_path),
                             **self.INLINE) as mw:
            restore = self._interrupt(mw)
            mw.queue_request(root_request())
            with pytest.raises(KeyboardInterrupt):
                mw.process_next_batch()
            assert self.source.closed  # the slice loop was not left open
            assert mw.staging.file_nodes() == []
            assert mw.staging.memory_nodes() == []
            assert list(tmp_path.iterdir()) == []
            assert mw.budget.used == 0
            assert mw.budget.tags() == []
            assert threading.active_count() == threads_before
            restore()
            mw.queue_request(root_request())
            (result,) = mw.process_next_batch()
            assert result.cc.records == len(ROWS)
            assert mw.trace[-1].workers == 1

    def test_middleware_usable_after_interrupt(self):
        with make_middleware() as mw:
            restore = self._interrupt(mw)
            mw.queue_request(root_request())
            with pytest.raises(KeyboardInterrupt):
                mw.process_next_batch()
            restore()
            mw.queue_request(root_request())
            (result,) = mw.process_next_batch()
            assert result.cc.records == len(ROWS)


def _context():
    """A routing context whose one slot takes every row."""
    return (RoutingKernel([()], {"A1": 0}),
            slot_layout(["root"], [(0,)], 2), 2, 2)


class TestProcessContextReset:
    @pytest.fixture(autouse=True)
    def _clean_cache(self):
        scan_pool.reset_process_context()
        yield
        scan_pool.reset_process_context()

    def test_reset_clears_the_module_cache(self):
        scan_pool._PROCESS_CTX = (7, object())
        scan_pool.reset_process_context()
        assert scan_pool._PROCESS_CTX == (0, None)

    def test_pickled_worker_refreshes_after_reset(self):
        payload = pickle.dumps(_context(), pickle.HIGHEST_PROTOCOL)
        rows = ColumnarPartition.from_rows([(0, 1, 1), (2, 0, 0)])
        scan_pool._count_columnar_pickled_slice(
            1, payload, 0, rows, (), ()
        )
        generation, ctx = scan_pool._PROCESS_CTX
        assert generation == 1 and ctx is not None

        scan_pool.reset_process_context()
        assert scan_pool._PROCESS_CTX == (0, None)

        # Same generation number again: without the reset the stale
        # cached context would be reused; after it, the payload is
        # unpickled afresh.
        seq, payloads, routed, writes, captures, _, seen = (
            scan_pool._count_columnar_pickled_slice(
                1, payload, 3, rows, (), ()
            )
        )
        assert seq == 3 and routed == seen == len(rows)
        assert scan_pool._PROCESS_CTX[0] == 1

    def test_pool_close_resets_the_cache(self):
        pool = scan_pool.ScanWorkerPool("thread", 1)
        scan_pool._PROCESS_CTX = (9, object())
        pool.close()
        assert scan_pool._PROCESS_CTX == (0, None)

    def test_closed_pool_rejects_new_executors(self):
        pool = scan_pool.ScanWorkerPool("thread", 1)
        pool.close()
        with pytest.raises(Exception, match="closed"):
            pool._ensure_executor()
