"""The middleware facade — the paper's primary contribution, assembled.

One :class:`Middleware` instance binds a SQL server table to the
scheduler, staging manager and execution module, and exposes the
Figure-3 interface to mining clients:

1. the client queues a batch of :class:`~repro.core.requests.CountsRequest`
   (one per active node),
2. :meth:`Middleware.process_next_batch` schedules and services *some*
   of them (the middleware, not the client, decides which nodes are
   processed next — Section 3.1),
3. the client consumes the returned CC tables, partitions nodes in any
   order it likes, and queues requests for the new active nodes.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from ..common.errors import MiddlewareError
from ..common.memory import MemoryBudget
from ..sqlengine.columnar import columnar_available
from .auxiliary import make_strategy
from .config import MiddlewareConfig
from .execution import ExecutionModule
from .requests import RequestQueue
from .scan_pool import ScanWorkerPool
from .scheduler import Scheduler
from .staging import StagingManager
from .trace import ExecutionTrace


class Middleware:
    """Scalable classification middleware over one server table."""

    def __init__(self, server: Any, table_name: str, spec: Any,
                 config: MiddlewareConfig | None = None) -> None:
        if not columnar_available():
            raise MiddlewareError(
                "the middleware counts over numpy arrays and numpy is "
                "not importable; install numpy (a declared dependency)"
            )
        self.server = server
        self.table_name = table_name
        self.spec = spec
        self.config = config or MiddlewareConfig()
        self.budget = MemoryBudget(self.config.memory_bytes)
        self.staging = StagingManager(
            spec,
            server.meter,
            server.model,
            self.budget,
            staging_dir=self.config.staging_dir,
            file_budget_bytes=self.config.file_budget_bytes,
        )
        self.scheduler = Scheduler(spec, self.staging, self.budget, self.config)
        self._strategy = make_strategy(
            self.config.aux_strategy,
            server,
            table_name,
            build_threshold=self.config.aux_build_threshold,
            free_build=self.config.aux_free_build,
            use_planner=self.config.scan_use_planner,
        )
        self._scan_pool: ScanWorkerPool | None = None
        self.execution = ExecutionModule(
            server,
            table_name,
            spec,
            self.staging,
            self.budget,
            self.config,
            self._strategy,
            pool_provider=self._shared_scan_pool,
        )
        self._queue = RequestQueue()
        self.trace = self.execution.trace
        self._closed = False

    def _shared_scan_pool(self) -> ScanWorkerPool:
        """The session's scan-worker pool, created lazily on first use.

        The pool outlives individual scans (and individual ``fit()``
        calls sharing this session): workers stay warm and the routing
        kernel is re-broadcast only when a schedule's kernel actually
        changes.  Its executor starts with the first scan longer than
        one partition.  :meth:`close` tears it down.
        """
        if self._scan_pool is None:
            self._scan_pool = ScanWorkerPool(
                self.config.scan_pool, self.config.scan_workers
            )
        return self._scan_pool

    @property
    def scan_pool(self) -> ScanWorkerPool | None:
        """The session's persistent scan-worker pool (None until the
        first scan; with ``scan_workers=1`` it is the inline executor
        and owns no executor or thread)."""
        return self._scan_pool

    # -- the Figure-3 interface --------------------------------------------

    def queue_request(self, request: Any) -> None:
        """Queue one counts request for an active node."""
        self._queue.put(request)

    def queue_requests(self, requests: Iterable[Any]) -> None:
        """Queue several requests at once."""
        for request in requests:
            self._queue.put(request)

    @property
    def pending(self) -> int:
        """Number of requests awaiting service."""
        return len(self._queue)

    def process_next_batch(self) -> list[Any]:
        """Schedule and service the next batch; returns its results.

        Requests deferred by a runtime memory overflow (Section 4.1.1)
        are transparently re-queued for a later scan.  Raises
        :class:`~repro.common.errors.SchedulingError` when the queue is
        empty — callers should check :attr:`pending` first.
        """
        schedule = self.scheduler.plan(self._queue.pending())
        self._queue.remove(schedule.batch)
        results, deferred = self.execution.run(schedule)
        for request in deferred:
            self._queue.put(request)
        return results

    def serve(self) -> Iterator[list[Any]]:
        """Yield result batches until the request queue drains.

        Convenience generator for clients that interleave consuming
        results with queueing children::

            for results in middleware.serve():
                for result in results:
                    ...partition, queue child requests...
        """
        while self._queue:
            yield self.process_next_batch()

    # -- inspection ---------------------------------------------------------

    @property
    def stats(self) -> ExecutionTrace:
        """Session totals: sums and counts over :attr:`trace`."""
        return self.trace

    def location_tag(self, request: Any) -> str:
        """The paper's S/I/L data-location prefix for a node (Fig. 1)."""
        location, _ = self.staging.resolve(request)
        return location.tag

    def report(self) -> str:
        """A human-readable session summary: scans, cost, staging, trace."""
        stats = self.stats
        meter = self.server.meter
        pool = self._scan_pool
        # What ran, not what was configured: a pool whose every scan
        # fitted one partition never started an executor.
        executor = (
            f"{pool.n_workers} {pool.kind} workers"
            if pool is not None and pool.pools_created else "inline"
        )
        scans = ", ".join(
            f"{location.name.lower()}={count}"
            for location, count in stats.scans_by_mode.items()
            if count
        ) or "none"
        lines = [
            f"middleware session on table {self.table_name!r}",
            f"  scans: {stats.batches} batches ({scans})",
            f"  rows: {stats.rows_seen:,} seen, "
            f"{stats.rows_routed:,} routed, {stats.rows_derived:,} derived",
            f"  executor: {executor}, {stats.parallel_scans} pooled scans, "
            f"{stats.merge_seconds:.4f}s merging, "
            f"{stats.rows_per_sec:,.0f} rows/s, "
            f"{stats.matcher_evals:,} matcher evals, "
            f"{stats.tag_routed_scans} tag-routed",
            f"  recoveries: {stats.deferrals} deferrals, "
            f"{stats.sql_fallbacks} SQL fallbacks",
        ]
        if stats.index_path_scans:
            lines.append(
                f"  access planner: {stats.index_path_scans} scans "
                "served by secondary-index probes"
            )
        if pool is not None:
            lines.append(f"  scan pool: {pool!r}")
        cache = self.execution.scan_cache
        if cache is not None and stats.cached_scans:
            lines.append(
                f"  columnar cache: {cache.hits} hits / "
                f"{cache.misses} misses, "
                f"{cache.resident_bytes:,} bytes resident "
                f"({cache.resident_entries} entries, "
                f"{cache.live_segments} segments), "
                "{:.4f}s encode + {:.4f}s ship saved".format(
                    stats.encode_seconds_saved, stats.ship_seconds_saved
                )
            )
        lines += [
            f"  staging: {stats.files_written} files written, "
            f"{stats.memory_sets_loaded} memory sets loaded",
            f"  memory: {self.budget.used:,} / {self.budget.budget:,} "
            "bytes reserved now",
            f"  simulated cost: {meter.total:,.1f} "
            f"({', '.join(f'{k}={v:,.1f}' for k, v in meter.breakdown())})",
        ]
        if len(self.trace):
            lines.append("  trace:")
            for record in self.trace:
                lines.append(f"    {record}")
        return "\n".join(lines)

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Release staged files, memory reservations, server structures
        and the session's scan-worker pool."""
        if not self._closed:
            if self._scan_pool is not None:
                self._scan_pool.close()
            # After the pool (workers must drop their attachments
            # first), before staging teardown (drop listeners fire
            # into a still-open cache harmlessly, but order is tidy).
            self.execution.close()
            self.staging.close()
            self._strategy.close()
            self._closed = True

    def __enter__(self) -> Middleware:
        return self

    def __exit__(self, exc_type: Any, exc_value: Any,
                 traceback: Any) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (
            f"Middleware(table={self.table_name!r}, pending={self.pending}, "
            f"budget={self.budget!r})"
        )
