"""The scan-worker pool: executor of the scan pipeline.

Whichever source feeds ``ExecutionModule._count_partitioned``, every
partition is a slice ``(encoding, start, stop)`` and goes through
:meth:`ScanWorkerPool.submit`, which decides where it is counted —
inline, in a thread, or in another process — and, for a process, how
it travels.  A process worker gets one of two things: a resident
encoding's persistent segment reference
(:func:`_count_columnar_shm_slice`, attached once per table version),
or the slice itself, pickled (:func:`_count_columnar_pickled_slice`).

The paper's batching argument (§4) is that one shared sequential scan
amortizes CC-table construction across all active nodes; any fixed
per-scan overhead — building an executor, forking workers, shipping
the compiled routing kernel — erodes exactly that win, so
:class:`ScanWorkerPool` is a *session*-lifetime resource:

* it is owned by the :class:`~repro.core.middleware.Middleware`
  session, created lazily on the first scan that goes parallel, reused
  by every later scan, and shut down in ``Middleware.close()``;
* each scan *installs* its routing context (compiled kernel, slot
  table with the route tables built for it, class index) before
  submitting partitions.  Installation is
  generation-counted: worker-side state is refreshed only when the
  schedule's kernel actually changed — a retried or repeated schedule
  reuses the already-installed context;
* thread workers read the installed context by reference (shared
  memory); process workers receive ``(generation, payload)`` with each
  partition and unpickle the payload only when their cached generation
  is stale, so a scan's kernel is pickled once on the coordinator and
  decoded at most once per worker process, never once per partition;
* a scan that fails mid-flight :meth:`drain`\\ s its outstanding
  futures — cancelling queued partitions and waiting out running ones
  — so the next scan reuses a pool with no stale work in it, and
  :meth:`retire_broken` recycles the executor when the failure killed
  it (e.g. a dead process worker), letting the next scan transparently
  rebuild.

A scan may also be installed *inline*: ``submit`` then runs the same
task on the calling thread and returns an already-completed future.
A pool of **one** worker (``scan_workers=1``, the default) counts
every scan that way and never creates an ``Executor`` or any thread,
whatever its ``kind``.  A larger pool is not started for a scan whose
source fits in one partition — there is nothing to overlap — so such
scans run inline until a longer one creates the executor; from then on
every scan of the session goes to the workers, and the coordinator
thread does no counting of its own.  Either way
:func:`count_partition_slice` is the one way into the counting kernel
for every worker count.

Worker tasks return only additive, order-independent state (one
payload of count arrays, routed counts, staged-row index arrays), so
everything the coordinator merges is independent of completion order;
staging output is applied strictly in partition order by the caller.
Workers never touch the memory budget, the cost meter, or any file.
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from multiprocessing import resource_tracker
from typing import Any, Iterable

from ..common.errors import MiddlewareError
from ..common.locks import new_lock, resource_closed, resource_created
from ..sqlengine.columnar import ColumnarPartition
from .shm import ShmSegmentRef, attach_readonly, partition_from_handle
from .vector_kernel import count_partition_slice
# Bound only for the e2e tracer's patch table (ROADMAP item 1(c)).
from .vector_kernel import count_partition_columnar  # noqa: F401

#: Worker-process routing-context cache: ``(generation, ctx)``.  One
#: slot per process is safe because a worker serves one pool, and a
#: pool installs contexts with strictly increasing generations.
_PROCESS_CTX: tuple[int, Any] = (0, None)

#: Worker-process persistent-segment cache:
#: ``(generation, segment, partition)``.  The columnar cache ships one
#: segment per table version and references it by generation on every
#: later scan; the worker re-attaches only when the generation moves,
#: so a warm multi-level fit pays one attach per worker per table
#: version instead of one per partition per scan.
_SEGMENT_CTX: tuple[int, Any, Any] = (0, None, None)


def _drop_segment_context() -> None:
    """Release the worker's cached persistent-segment attachment."""
    global _SEGMENT_CTX
    _generation, segment, _partition = _SEGMENT_CTX
    # Drop the partition views before closing the attachment — closing
    # a segment with live numpy views raises BufferError.
    _SEGMENT_CTX = (0, None, None)
    del _partition
    if segment is not None:
        try:
            segment.close()
        except BufferError:  # pragma: no cover - views still alive
            pass


def reset_process_context() -> None:
    """Reset the module-level worker routing-context caches.

    ``_PROCESS_CTX`` / ``_SEGMENT_CTX`` live in module globals so
    process workers can cache an unpickled context (and a persistent
    shared-memory attachment) between partitions.  Inside the
    *coordinator* process the same globals are touched when the pool
    runs thread workers (same interpreter) and whenever tests call the
    worker functions directly — without an explicit reset, a kernel or
    segment installed by one pool could leak into the next pool's
    first scan at the same generation number.
    :meth:`ScanWorkerPool.close` calls this, and test fixtures use it
    to isolate cases from each other.
    """
    global _PROCESS_CTX
    _PROCESS_CTX = (0, None)
    _drop_segment_context()


def _process_context(generation: int, payload: bytes) -> Any:
    """The worker process's routing context, unpickled when stale."""
    global _PROCESS_CTX
    cached_generation, ctx = _PROCESS_CTX
    if cached_generation != generation:
        ctx = pickle.loads(payload)
        _PROCESS_CTX = (generation, ctx)
    return ctx


def _attached_segment_partition(ref: ShmSegmentRef) -> ColumnarPartition:
    """The worker's zero-copy view over a persistent cached segment.

    Cached by generation in ``_SEGMENT_CTX``: an unchanged table
    version reuses the existing attachment; a new generation drops the
    old views, closes the stale attachment and re-attaches.
    """
    global _SEGMENT_CTX
    generation, _segment, partition = _SEGMENT_CTX
    if generation == ref.generation and partition is not None:
        return partition
    _drop_segment_context()
    segment = attach_readonly(ref.handle.segment)
    partition = partition_from_handle(segment, ref.handle)
    _SEGMENT_CTX = (ref.generation, segment, partition)
    return partition


def _count_columnar_shm_slice(
    generation: int,
    payload: bytes,
    seq: int,
    ref: ShmSegmentRef,
    start: int,
    stop: int,
    stage_nodes: Iterable[Any],
    capture_nodes: Iterable[Any],
    routes: Any = None,
) -> tuple[int, tuple[Any, ...], int, dict[Any, Any], dict[Any, Any],
           float, int]:
    """Process-pool task over a slice of a resident encoding.

    The attachment is *kept* across tasks and scans (see
    ``_SEGMENT_CTX``): the cached encoding is shipped once per table
    version, and each task counts rows ``[start, stop)`` of it.
    """
    ctx = _process_context(generation, payload)
    partition = _attached_segment_partition(ref)
    return count_partition_slice(
        ctx, seq, partition, start, stop, stage_nodes, capture_nodes, routes,
    )


def _count_columnar_pickled_slice(
    generation: int,
    payload: bytes,
    seq: int,
    partition: ColumnarPartition,
    stage_nodes: Iterable[Any],
    capture_nodes: Iterable[Any],
    routes: Any = None,
) -> tuple[int, tuple[Any, ...], int, dict[Any, Any], dict[Any, Any],
           float, int]:
    """Process-pool task over a pickled slice (and its rows' slots).

    What a process worker gets for every encoding that has no
    persistent segment (a transient SERVER scan, a memory set, a
    streamed file block): the coordinator already sliced the encoding,
    so the task counts the whole piece.
    """
    ctx = _process_context(generation, payload)
    return count_partition_slice(
        ctx, seq, partition, 0, partition.n_rows, stage_nodes, capture_nodes,
        routes,
    )


def _mark_future_done(future: Future[Any]) -> None:
    """Done-callback telling the resource witness a future completed.

    Fires on normal completion, error and cancellation alike, so any
    future still *pending* at sanitizer report time is work a failed
    scan left behind in the executor instead of draining.
    """
    resource_closed("future", future)


class ScanWorkerPool:
    """A reusable worker pool for scans.

    Lifecycle: construct cheaply (no executor yet), :meth:`install` a
    scan's routing context (which lazily creates the executor — not
    for a one-partition scan, and never in a one-worker pool),
    :meth:`submit` slices, and :meth:`close` once at session end.
    ``install``/``submit`` may be repeated for any number of scans.
    """

    def __init__(self, kind: str, n_workers: int) -> None:
        if kind not in ("thread", "process"):
            raise MiddlewareError(f"unknown scan pool kind: {kind!r}")
        if n_workers < 1:
            raise MiddlewareError("scan pool needs at least one worker")
        self.kind = kind
        self.n_workers = n_workers
        #: The installed scan counts on the calling thread, inside
        #: ``submit``: always with one worker (no executor is ever
        #: created), else as :meth:`install` decides per scan.
        self.inline = n_workers == 1
        #: The installed scan's workers live in other processes, so
        #: routing contexts and partitions have to be shipped to them.
        self.remote = kind == "process" and not self.inline
        #: Serialises executor lifecycle transitions: the middleware's
        #: shared pool can see ``close()``/``retire_broken()`` racing a
        #: late ``_ensure_executor()`` from another thread.
        self._lock = new_lock("ScanWorkerPool._lock")
        #: guarded by self._lock
        self._executor: Executor | None = None
        #: guarded by self._lock
        self._closed = False
        # Monotone per-install counter; process workers cache by it.
        #: guarded by self._lock
        self._generation = 0
        #: guarded by self._lock
        self._signature: Any = None
        #: guarded by self._lock
        self._ctx: tuple[Any, Any, int, int] | None = None
        #: guarded by self._lock
        self._payload: bytes | None = None
        # -- observability ------------------------------------------------
        #: Executors created over the pool's lifetime (1 = fully warm
        #: reuse; grows only on first use or after a broken executor).
        self.pools_created = 0
        #: Contexts actually (re)installed — scans whose kernel differed
        #: from the previously installed one.
        self.kernels_installed = 0
        #: Scans that ran through this pool.
        self.scans_served = 0

    @property
    def active(self) -> bool:
        """True when a live executor is standing by (the pool is warm)."""
        return self._executor is not None

    def _ensure_executor(self) -> float:
        """Create the executor lazily; returns creation seconds."""
        with self._lock:
            if self._closed:
                raise MiddlewareError("scan-worker pool is already closed")
            if self.inline or self._executor is not None:
                return 0.0
            started = time.perf_counter()
            executor_cls: Any = ThreadPoolExecutor
            if self.kind == "process":
                executor_cls = ProcessPoolExecutor
                if os.name == "posix":
                    # A worker forked before the coordinator's resource
                    # tracker runs starts its own, which unlinks the
                    # segments the worker attached when it exits.
                    resource_tracker.ensure_running()
            self._executor = executor_cls(max_workers=self.n_workers)
            resource_created(
                "executor", self._executor,
                f"{self.kind} pool, {self.n_workers} workers",
            )
            self.pools_created += 1
            return time.perf_counter() - started

    def install(self, signature: Any, kernel: Any, slots: Any,
                class_index: int, n_classes: int,
                one_partition: bool = False) -> float:
        """Install one scan's routing context; returns setup seconds.

        ``signature`` is any equality-comparable description of the
        schedule's route and kernel; worker-side state is refreshed only when it
        differs from the currently installed one, so repeated or
        retried schedules pay no re-broadcast.  A ``one_partition``
        scan is not worth starting the executor for: it runs inline
        unless the workers are already up.
        """
        self.inline = self.n_workers == 1 or (
            one_partition and not self.active
        )
        self.remote = self.kind == "process" and not self.inline
        setup_seconds = self._ensure_executor()
        # Two sessions sharing the middleware's pool can install
        # concurrently; without the lock the generation bump, context
        # and signature tear, leaving a generation paired with another
        # install's kernel.  (``_ensure_executor`` takes the same
        # plain lock internally, so it must complete first.)
        with self._lock:
            started = time.perf_counter()
            changed = self._signature is None or signature != self._signature
            if changed:
                self._generation += 1
                self._ctx = (kernel, slots, class_index, n_classes)
                self._payload = None
                self._signature = signature
                self.kernels_installed += 1
            # Pickled once per context, and only for a scan that ships
            # it (an inline scan reads the context in place).
            ship = self.remote and self._payload is None
            if ship:
                self._payload = pickle.dumps(
                    self._ctx, pickle.HIGHEST_PROTOCOL
                )
            if changed or ship:
                setup_seconds += time.perf_counter() - started
            self.scans_served += 1
        return setup_seconds

    def _context_args(self) -> tuple[Any, ...]:
        """The installed context as a task's leading arguments: the
        context itself for in-process workers, ``(generation, payload)``
        for process workers to refresh their cached copy from."""
        if self._ctx is None:
            raise MiddlewareError("install a routing context first")
        if self.remote:
            return self._generation, self._payload
        return (self._ctx,)

    def _run(self, label: str, task: Any, *args: Any) -> Future[Any]:
        """Run one partition task and return its future.

        The inline executor calls ``task`` on the calling thread and
        hands back an already-completed future; a failure (or an
        interrupt) propagates straight out of ``submit`` instead.
        """
        if self.inline:
            done: Future[Any] = Future()
            done.set_result(task(*args))
            return done
        executor = self._executor
        if executor is None:
            raise MiddlewareError("install a routing context first")
        future = executor.submit(task, *args)
        resource_created("future", future, label)
        future.add_done_callback(_mark_future_done)
        return future

    def submit(self, seq: int, encoding: Any, start: int, stop: int,
               stage_nodes: Iterable[Any], capture_nodes: Iterable[Any],
               routes: Any = None) -> Future[Any]:
        """Submit rows ``[start, stop)`` of an encoding for counting.

        ``encoding`` is either the coordinator's
        :class:`ColumnarPartition` (thread pools and the inline
        executor count the slice in place; process pools get just the
        slice, pickled) or a resident encoding's :class:`ShmSegmentRef`,
        which process workers re-attach by generation; ``routes`` are
        the slice's tag-route slots.  What a filtered SERVER scan keeps
        is the installed route's business: no filter travels with a
        slice.
        """
        task: Any = count_partition_slice
        piece: tuple[Any, ...] = (encoding, start, stop)
        if isinstance(encoding, ShmSegmentRef):
            if not self.remote:
                raise MiddlewareError(
                    "in-process workers count encodings in place; pass "
                    "the partition, not a segment reference"
                )
            task = _count_columnar_shm_slice
        elif self.remote:
            task = _count_columnar_pickled_slice
            piece = (encoding.slice(start, stop),)
        return self._run(
            f"slice {seq}", task, *self._context_args(), seq, *piece,
            stage_nodes, capture_nodes, routes,
        )

    # Bound only for the e2e tracer's patch table (ROADMAP item 1(c)).
    submit_columnar = submit  # noqa
    submit_columnar_slice = submit  # noqa

    def drain(self, futures: Iterable[Future[Any]]) -> None:
        """Cancel/await outstanding futures of a failed scan.

        Queued partitions are cancelled; running ones are waited out
        (their results and errors discarded), so the executor holds no
        work from the failed scan when the next scan reuses it.  Never
        raises.
        """
        for future in futures:
            future.cancel()
        for future in futures:
            try:
                future.exception()
            except BaseException:
                pass  # cancelled, or the pool itself broke

    def retire_broken(self, exc: BaseException) -> None:
        """Recycle the executor when ``exc`` says it broke mid-scan.

        A dead process worker leaves a ``BrokenExecutor`` behind; the
        executor is shut down and dropped so the next scan's
        :meth:`install` transparently builds a fresh one (the installed
        context is kept — new workers re-fetch it by generation).
        """
        if not isinstance(exc, BrokenExecutor):
            return
        with self._lock:
            executor = self._executor
            self._executor = None
        if executor is not None:
            # shutdown() outside the lock: waiting for workers while
            # holding it would block a concurrent close().
            executor.shutdown(wait=True)
            resource_closed("executor", executor)

    def close(self) -> None:
        """Shut the executor down; the pool cannot be used afterwards.

        Also resets the module-level worker context cache so the next
        pool in this interpreter starts from a clean generation-0
        state (see :func:`reset_process_context`).
        """
        with self._lock:
            executor = self._executor
            self._executor = None
            self._closed = True
        if executor is not None:
            executor.shutdown(wait=True)
            resource_closed("executor", executor)
        reset_process_context()

    def __repr__(self) -> str:
        state = "closed" if self._closed else (
            "inline" if self.n_workers == 1
            else "warm" if self.active else "cold"
        )
        return (
            f"ScanWorkerPool(kind={self.kind!r}, workers={self.n_workers}, "
            f"{state}, created={self.pools_created}, "
            f"installs={self.kernels_installed}, "
            f"scans={self.scans_served})"
        )
