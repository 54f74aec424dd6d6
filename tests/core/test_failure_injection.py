"""Failure injection: the middleware cleans up when scans die mid-way."""

import errno
import os
import threading

import pytest

from repro.client.baselines import build_cc_from_rows
from repro.common.errors import MiddlewareError, StagingError
from repro.common.locks import install_monitor
from repro.core.cc_table import CCTable
from repro.core.config import MiddlewareConfig
from repro.core.filters import PathCondition
from repro.core.middleware import Middleware
from repro.core.requests import CountsRequest
from repro.core.staging import StagedFile
from repro.datagen.dataset import DatasetSpec
from repro.datagen.loader import load_dataset
from repro.sqlengine.database import SQLServer

from ..conftest import WitnessMonitor
from .plan_seam import wrap_plan_slices

SPEC = DatasetSpec([3, 3], 2)
ROWS = [(a, b, (a + b) % 2) for a in range(3) for b in range(3)
        for _ in range(4)]


def make_middleware(spec=SPEC, rows=ROWS, **overrides):
    server = SQLServer()
    load_dataset(server, "data", spec, rows)
    overrides.setdefault("memory_bytes", 50_000)
    return Middleware(server, "data", spec, MiddlewareConfig(**overrides))


def root_request(n_rows=len(ROWS)):
    return CountsRequest(
        node_id="root",
        lineage=("root",),
        conditions=(),
        attributes=("A1", "A2"),
        n_rows=n_rows,
        est_cc_pairs=6,
    )


def child_requests(rows=ROWS, values=range(3)):
    """One request per A1 value, the children of the root split."""
    return [
        CountsRequest(
            node_id=f"n{value}",
            lineage=("root", f"n{value}"),
            conditions=(PathCondition("A1", "=", value),),
            attributes=("A2",),
            n_rows=sum(1 for row in rows if row[0] == value),
            est_cc_pairs=3,
        )
        for value in values
    ]


def assert_children_counted(middleware, spec=SPEC, rows=ROWS,
                            values=range(3)):
    """Queue the children afresh, drain the queue, check every CC."""
    middleware.queue_requests(child_requests(rows, values))
    counted = {}
    while middleware.pending:
        for result in middleware.process_next_batch():
            counted[result.node_id] = result.cc
    for value in values:
        subset = [row for row in rows if row[0] == value]
        assert counted[f"n{value}"] == build_cc_from_rows(
            subset, spec, ("A2",)
        )


class _ExplodingIterator:
    """Slice loop that dies after a few slices."""

    def __init__(self, slices, blow_after):
        self._slices = slices
        self._remaining = blow_after

    def __iter__(self):
        return self

    def __next__(self):
        if self._remaining == 0:
            raise RuntimeError("disk on fire")
        self._remaining -= 1
        return next(self._slices)


class TestScanFailureCleanup:
    def _explode(self, middleware, blow_after=1):
        """Make the SERVER scan's slice loop fail once its first slice
        is counted (the root is staged by its own scan, so the scan is
        transient; here it is one partition long)."""
        return wrap_plan_slices(
            middleware, lambda slices: _ExplodingIterator(slices, blow_after)
        )

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
            restore = self._explode(mw)
            mw.queue_request(root_request())
            with pytest.raises(RuntimeError):
                mw.process_next_batch()
            # Restore a healthy row source and retry from scratch.
            restore()
            mw.queue_request(root_request())
            (result,) = mw.process_next_batch()
            assert result.cc.records == len(ROWS)


class TestPoisonedPartition:
    """A scan dying mid-way must not corrupt the session.

    The poison is the first slice of a transient SERVER scan that
    starts at or past row ``poison_after``: its offset turned into a
    float, which numpy refuses with ``TypeError`` where the slice is
    cut — in the worker — with earlier partitions already at the
    workers, which is the failure mode the persistent pool must
    survive: outstanding futures drained, no half-written staged file
    left behind, and the same pool object serving the next scan.
    """

    def _poison(self, middleware, poison_after=8):
        def poisoned(slices):
            for encoding, start, stop in slices:
                if start >= poison_after:
                    yield encoding, float(start), stop
                    yield from slices
                    return
                yield encoding, start, stop

        return wrap_plan_slices(middleware, poisoned)

    PARALLEL = {
        "scan_workers": 2,
        "scan_chunk_rows": 4,
        # Pin the cache off so every scan here is transient, staged
        # root or not.  TestPoisonedCachedScan covers the resident path.
        "scan_cache_bytes": 0,
    }

    #: The same scan through the inline executor: one worker, so the
    #: poison is met on the calling thread, mid-stream, with the
    #: earlier partitions' staged rows already appended in place.
    #: (16-row partitions, like the pool's on this data: 8 chunks of 2).
    INLINE = dict(PARALLEL, scan_workers=1, scan_chunk_rows=2)

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
            restore = self._poison(mw, poison_after=16)  # 2nd partition
            mw.queue_request(root_request())
            with pytest.raises(TypeError):
                mw.process_next_batch()
            pool = mw.scan_pool
            assert pool is not None and pool.inline
            restore()
            mw.queue_request(root_request())
            (result,) = mw.process_next_batch()
            assert result.cc.records == len(ROWS)
            assert mw.scan_pool is pool and pool.pools_created == 0
            # The retry staged the root afresh over the abandoned file.
            assert list(mw.staging.file_for("root").scan()) == ROWS

    def test_pool_survives_and_serves_the_next_scan(self):
        with make_middleware(**self.PARALLEL) as mw:
            restore = self._poison(mw)
            mw.queue_request(root_request())
            with pytest.raises(TypeError):
                mw.process_next_batch()
            pool = mw.scan_pool
            assert pool is not None and pool.active
            created_before = pool.pools_created
            restore()
            mw.queue_request(root_request())
            (result,) = mw.process_next_batch()
            assert result.cc.records == len(ROWS)
            # Same pool object, same executor: a worker-level failure
            # does not cost the session its warm pool.
            assert mw.scan_pool is pool
            assert pool.pools_created == created_before

    def test_poison_mid_stream_on_a_pool(self, tmp_path):
        with make_middleware(memory_staging=False,
                             staging_dir=str(tmp_path),
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

    PARALLEL = {"scan_workers": 2, "scan_chunk_rows": 4}

    def test_warm_scan_failure_leaves_cache_serving(self):
        with make_middleware(file_staging=False, memory_staging=False,
                             **self.PARALLEL) as mw:
            mw.queue_request(root_request())
            mw.process_next_batch()  # cold scan: encodes and admits
            cache = mw.execution.scan_cache
            if cache is None or not mw.trace[-1].cached:
                pytest.skip("columnar cache not active (numpy missing)")
            assert cache.misses == 1
            pool = mw.scan_pool
            assert pool is not None
            original = pool.submit
            calls = {"n": 0}

            def failing(*args, **kwargs):
                calls["n"] += 1
                if calls["n"] > 1:
                    raise RuntimeError("coordinator tripped")
                return original(*args, **kwargs)

            pool.submit = failing
            mw.queue_request(root_request())
            with pytest.raises(RuntimeError, match="coordinator tripped"):
                mw.process_next_batch()
            del pool.submit
            assert calls["n"] > 1
            # The warm entry survived the failed count untouched...
            assert cache.resident_entries == 1
            assert cache.hits >= 1
            assert mw.budget.used == 0
            # ...and serves the retry without re-encoding.
            mw.queue_request(root_request())
            (result,) = mw.process_next_batch()
            assert result.cc.records == len(ROWS)
            assert cache.misses == 1


#: Overrides cutting the 36-row data set into several partitions.
PARTITIONED = {"scan_chunk_rows": 4}

#: The executors a set-up or commit failure can interrupt.
LOOPS = {
    "one-partition": {"scan_workers": 1},
    "inline": {"scan_workers": 1, "scan_chunk_rows": 2},
    "threads": dict(PARTITIONED, scan_workers=2),
}


def _disk_full(*_args, **_kwargs):
    raise OSError(errno.ENOSPC, "No space left on device")


def _no_room(*_args, **_kwargs):
    raise StagingError("no room")


def _failing_on_call(k, original, fail=_disk_full):
    """``original``, except that its ``k``-th call fails instead."""
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        if len(calls) == k:
            return fail(*args, **kwargs)
        return original(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("loop", sorted(LOOPS))
@pytest.mark.parametrize("k", [1, 2, 3])
class TestSetUpAndCommitFailure:
    """A split scan whose k-th output file will not open, or not seal.

    Regression: ``run`` opened its staging files before the ``try`` and
    sealed them after it, so an ``OSError`` at either end skipped all
    cleanup — files stayed registered *unsealed* and the batch's
    ``cc:*`` and data reservations were never returned.
    """

    @pytest.fixture
    def session(self, loop, tmp_path):
        """A session that staged the root's file, then its monitor."""
        monitor = WitnessMonitor()
        previous = install_monitor(monitor)
        try:
            with make_middleware(file_split_threshold=1.0,
                                 staging_dir=str(tmp_path),
                                 **LOOPS[loop]) as mw:
                mw.queue_request(root_request())
                mw.process_next_batch()
                assert mw.staging.file_nodes() == ["root"]
                yield mw, monitor
            assert monitor.live_kinds() == []
        finally:
            install_monitor(previous)

    def _assert_nothing_left_then_retry(self, mw, monitor, tmp_path):
        root_file = os.path.basename(mw.staging.file_for("root").path)
        assert mw.staging.file_nodes() == ["root"]
        assert os.listdir(tmp_path) == [root_file]
        assert mw.staging.memory_nodes() == []
        assert mw.budget.tags() == []  # no cc:* and no data reservation
        assert not {"staged-file", "future"} & set(monitor.live_kinds())
        assert_children_counted(mw)
        for value in range(3):
            staged = mw.staging.file_for(f"n{value}")
            assert list(staged.scan()) == [r for r in ROWS if r[0] == value]

    def test_file_that_will_not_open(self, k, session, tmp_path):
        mw, monitor = session
        mw.staging.open_file = _failing_on_call(k, mw.staging.open_file)
        mw.queue_requests(child_requests())
        with pytest.raises(OSError, match="No space left"):
            mw.process_next_batch()
        del mw.staging.open_file
        self._assert_nothing_left_then_retry(mw, monitor, tmp_path)

    def test_file_that_will_not_seal(self, k, session, tmp_path,
                                     monkeypatch):
        mw, monitor = session
        mw.queue_requests(child_requests())
        with monkeypatch.context() as patch:
            patch.setattr(
                StagedFile, "seal", _failing_on_call(k, StagedFile.seal)
            )
            with pytest.raises(OSError, match="No space left"):
                mw.process_next_batch()
        self._assert_nothing_left_then_retry(mw, monitor, tmp_path)

    def test_memory_set_that_will_not_commit(self, k, session, tmp_path):
        # Every file is sealed by now and k - 1 sets are installed:
        # all of it goes, committed or not.
        mw, monitor = session
        mw.staging.commit_memory = _failing_on_call(
            k, mw.staging.commit_memory, _no_room
        )
        mw.queue_requests(child_requests())
        with pytest.raises(StagingError, match="no room"):
            mw.process_next_batch()
        del mw.staging.commit_memory
        self._assert_nothing_left_then_retry(mw, monitor, tmp_path)


# -- the one scan loop, stage by stage -------------------------------------------

#: name -> (config, whether a root scan primes the session, whether
#: the scan under test counts over an encoding the session keeps,
#: whether it writes staged files).  Every scenario's scan under test
#: writes files where it can (a MEMORY scan is already on the best
#: tier, and a SERVER scan that stages nothing is what makes an encoding
#: resident or uncached): where it writes none, the ``put`` and
#: ``close`` faults have no write to hit, and the scan must succeed.
SOURCES = {
    "server-transient": ({"memory_staging": False}, False, False, True),
    "server-uncached": (
        {"memory_staging": False, "file_staging": False,
         "scan_cache_bytes": 0}, False, False, False),
    "server-resident": (
        {"memory_staging": False, "file_staging": False}, False, True,
        False),
    "file-streamed": (
        {"memory_staging": False, "file_split_threshold": 1.0,
         "scan_cache_bytes": 0}, True, False, True),
    "file-cached": (
        {"memory_staging": False, "file_split_threshold": 1.0}, True, True,
        True),
    "memory": ({"file_staging": False}, True, False, False),
}
EXECUTORS = {
    # 2-row chunks: the inline executor's partitions stay 16 rows.
    "inline": {"scan_workers": 1, "scan_chunk_rows": 2},
    "threads": {"scan_workers": 2},
    "processes": {"scan_workers": 2, "scan_pool": "process"},
}
FAULTS = ("pull", "submit", "merge", "put", "close")
#: The faults planted on the scan's staged files.
WRITE_FAULTS = ("put", "close")


def _pipeline_cases():
    for source in SOURCES:
        for executor in EXECUTORS:
            # An inline FILE scan streams; it never runs over the cache.
            if executor == "inline" and source == "file-cached":
                continue
            for fault in FAULTS:
                yield source, executor, fault


class _Injected(Exception):
    """The fault a pipeline-stage test plants."""


def _inject(*_args, **_kwargs):
    raise _Injected("injected")


class _ExplodingPartitions:
    """A partition iterator that dies after its first partition."""

    def __init__(self, inner):
        self._inner = iter(inner)
        self._served = 0

    def __iter__(self):
        return self

    def __next__(self):
        if self._served:
            raise _Injected("injected")
        self._served += 1
        return next(self._inner)

    def close(self):
        close = getattr(self._inner, "close", None)
        if close is not None:
            close()


class _TrackedSlices:
    """A slice loop that remembers being closed or run to its end (a
    fault after the loop, such as a seal, finds nothing left open)."""

    def __init__(self, slices):
        self._slices = slices
        self.closed = False

    def __iter__(self):
        return self

    def __next__(self):
        try:
            return next(self._slices)
        except StopIteration:
            self.closed = True
            raise

    def close(self):
        self.closed = True
        # The slices' generator holds the encoding it cuts: let go.
        self._slices.close()


class TestPipelineStageFailures:
    """One loop, so one failure matrix: every partition source and every
    executor, with a fault planted at each stage of
    ``source -> partition -> submit -> collect/merge -> stage`` in turn.
    Whatever dies, the scan must close its row source, drain its
    futures, and leave no shm segment, helper thread, staged file or
    reservation behind — and the session must serve the same requests
    once the fault is gone.
    """

    def _arm(self, fault, mw, patch):
        """Plant ``fault`` for the next scan of ``mw``."""
        execution = mw.execution
        if fault == "pull":
            build = execution._partition_source

            def tampered(*args):
                source = build(*args)
                opened = source.open
                source.open = lambda *a: _ExplodingPartitions(opened(*a))
                return source

            patch.setattr(execution, "_partition_source", tampered)
        elif fault == "submit":
            # The second slice fails with one in flight.
            pool = mw._shared_scan_pool()
            patch.setattr(pool, "submit", _failing_on_call(
                2, pool.submit, _inject
            ))
        elif fault == "merge":
            patch.setattr(CCTable, "merge_block", _failing_on_call(
                2, CCTable.merge_block, _inject
            ))
        elif fault == "put":
            # The scan's second staged piece fails to append.
            patch.setattr(StagedFile, "append_rows", _failing_on_call(
                2, StagedFile.append_rows, _inject
            ))
        else:
            # The scan's first staged file fails to seal.
            patch.setattr(StagedFile, "seal", _failing_on_call(
                1, StagedFile.seal, _inject
            ))

    @pytest.mark.parametrize("source, executor, fault",
                             list(_pipeline_cases()))
    def test_fault_leaves_nothing_behind(self, source, executor, fault,
                                         tmp_path, monkeypatch):
        pytest.importorskip("numpy")
        overrides, primed, resident, writes = SOURCES[source]
        fires = writes or fault not in WRITE_FAULTS
        threads_before = set(threading.enumerate())
        monitor = WitnessMonitor()
        previous = install_monitor(monitor)
        try:
            with make_middleware(
                staging_dir=str(tmp_path),
                **{**PARTITIONED, **EXECUTORS[executor], **overrides},
            ) as mw:
                self._run_case(mw, monitor, source, fault, fires, primed,
                               resident, tmp_path, monkeypatch)
            assert monitor.live_kinds() == []
        finally:
            install_monitor(previous)
        # No thread outlives the session: its pool's workers are the
        # only helper threads a scan may start.
        assert set(threading.enumerate()) == threads_before

    def _run_case(self, mw, monitor, source, fault, fires, primed,
                  resident, tmp_path, monkeypatch):
        def queue():
            if primed:
                mw.queue_requests(child_requests())
            else:
                mw.queue_request(root_request())

        if primed:
            mw.queue_request(root_request())
            mw.process_next_batch()
        trackers = []

        def tracked(slices):
            trackers.append(_TrackedSlices(slices))
            return trackers[-1]

        before = (mw.staging.file_nodes(), sorted(os.listdir(tmp_path)),
                  mw.staging.memory_nodes(), sorted(mw.budget.tags()))
        queue()
        restore = wrap_plan_slices(mw, tracked)
        with monkeypatch.context() as patch:
            self._arm(fault, mw, patch)
            if fires:
                with pytest.raises(_Injected):
                    mw.process_next_batch()
            else:
                mw.process_next_batch()
        restore()

        # The scan under test really was the one the case names: every
        # SERVER scan, resident or transient, runs the slice loop, and
        # a staged one does not.
        assert len(trackers) == source.startswith("server-")
        assert all(tracker.closed for tracker in trackers)
        for node_id in mw.staging.file_nodes():
            assert mw.staging.file_for(node_id)._active_scans == 0
        live = monitor.live_kinds()
        assert not {"future", "staged-file"} & set(live)
        cache = mw.execution.scan_cache
        assert live.count("shm-segment") == (
            cache.live_segments if cache is not None else 0
        )
        assert (mw.staging.file_nodes(), sorted(os.listdir(tmp_path)),
                mw.staging.memory_nodes(),
                sorted(mw.budget.tags())) == before

        # The same session, the fault gone, serves the same requests.
        if primed:
            assert_children_counted(mw)
        else:
            mw.queue_request(root_request())
            (result,) = mw.process_next_batch()
            assert result.cc == build_cc_from_rows(ROWS, SPEC, ("A1", "A2"))
        assert mw.trace[-1].cached == resident


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
