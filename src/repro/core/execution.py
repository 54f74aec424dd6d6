"""The execution module (paper Section 4.1).

Given a :class:`~repro.core.scheduler.Schedule`, builds the CC tables
of every node in the batch in **one scan** of the appropriate data
source, without external sorting: each record is routed to the active
node whose path predicate it satisfies and the node's counters are
updated.  The same scan also performs the staging the scheduler
planned: rows routed to a stage-target node are appended to its new
middleware file and/or collected for middleware memory — as column
arrays: the kernel answers with each node's row *selection*, the
source gathers it out of the partition it counted
(``ColumnarPartition.take``) and the coordinator appends that piece to
the node's file or memory capture in place.  No row tuple exists
between the selection and the next scan.

There is one loop (:meth:`ExecutionModule._count_partitioned`):
*source -> partition -> submit -> collect/merge/stage -> admit*.
The source is cut into ordered partitions — every one a slice
``(encoding, start, stop)`` of a column encoding — each counted by
the one kernel (:func:`~repro.core.vector_kernel.count_partition_slice`)
into a *private* payload of count arrays that the coordinator folds
into the scan's :class:`~repro.core.cc_table.BatchCounts` — counts are
additive, so partial counts over disjoint partitions merge exactly —
and every node's CC table is cut from that, as views, after the last
partition.  Two things plug in:

* a **partition source** (:class:`_PartitionSource`), which only says
  where the encodings come from.  A SERVER scan has one form on every
  executor: it is run from the access path's plan
  (:meth:`~repro.core.auxiliary.ServerAccessStrategy.plan_columnar` —
  the server's own encoding of the path's superset, the pushed batch
  filter and the path's two charges); the rows that filter keeps are
  the rows the counting kernel's route takes (the filter is the OR of
  the batch's paths), and the charges are made from the plan.  All
  the schedule decides is whether the session keeps that encoding:
  *resident* in the table-version columnar cache when the
  cache admits it and some node of the batch is not staged by this
  scan (the table will be read again), else *transient* — the same
  slices, kept by nobody but the server (one encoding per table
  version, so no heap row is read twice).  A MEMORY scan slices the
  encoding the set is kept as; an inline FILE scan streams its file a
  partition's records at a time, each record matrix its own encoding
  (a pooled FILE scan may keep the file's encoding resident instead);
* the :class:`~repro.core.scan_pool.ScanWorkerPool` as **executor**,
  chosen from what the schedule already carries: every source of a
  one-worker session (``config.scan_workers == 1``, the default) —
  and, while a larger session has not started its workers, any source
  that fits in one partition, which has nothing to overlap — is
  counted *inline* on the calling thread, one partition in flight, no
  helper thread; anything longer starts the session's persistent
  thread or process pool (``config.scan_pool``), which then counts
  every later scan in partitions of ``ceil(rows / (2 x workers))``
  rows (at least ``config.scan_chunk_rows``).  Every slice reaches it
  through ``ScanWorkerPool.submit``, which alone decides how a slice
  travels to a process worker.  Either way the coordinator writes each
  collected partition's staged pieces in place, in partition order.

When every child of a split shares the batch, its largest is not
counted (``SlotLayout.derived_slots``) unless that is cheaper:
``BatchCounts.derive`` makes its table the parent's (on the request's
``Family``) minus its siblings'.  Scans, staging and charges stay.

Whatever the source and executor, staged files are bit-identical and
memory overflow (below) is detected on the *merged* sizes in batch
order, so recovery decisions — and with them the scans and cost units
of a fit — are the same for any worker count and partition size.

Every scan fills one :class:`~repro.core.trace.ScheduleRecord` — its
schedule, metered cost and profile — and :meth:`ExecutionModule.run`
appends it to the session trace when the scan's results are final.

Runtime memory errors are handled as in Section 4.1.1, in exactly one
place (:meth:`ExecutionModule._admit_merged`).  When a node's CC table
outgrows what can be reserved there are two recoveries:

* **deferral** — if the node shares the scan with other *surviving*
  nodes, it is simply counted on a *later* scan (the "multiple scans
  of the database ... to build CC tables for active nodes" of Section
  5.2.1B).  Its size estimate is raised to the pair count the scan
  observed, so the next admission reserves exactly.
* **SQL fallback** — if the node was scanned alone, or every co-batched
  peer has already been abandoned (so deferring would only buy it an
  identical solo scan), its CC genuinely cannot be accommodated: it
  switches to the SQL-based implementation and its counts are fetched
  from the server after the scan, modelling the paper's lazy
  retrieval: the middleware never holds that table against its budget.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Iterable, Iterator

from ..common.errors import MiddlewareError
from ..sqlengine.columnar import ColumnarPartition, filter_supported
from .cc_table import BatchCounts, CCTable
from .columnar_cache import (
    ColumnarScanCache,
    ColumnarScanPlan,
    staged_file_plan,
)
from .filters import RoutingKernel, batch_filter
from .requests import CountsResult
from .scan_pool import ScanWorkerPool
from .scheduler import _cc_tag
from .sql_counting import counts_via_sql
from .staging import DataLocation, RowTags, StagedFile
from .trace import ExecutionTrace, ScheduleRecord
from .vector_kernel import route_tables, slot_layout


# -- partition production ----------------------------------------------------


def _close_source(source: Any) -> None:
    """Close a partition source if it supports closing."""
    close = getattr(source, "close", None)
    if close is not None:
        try:
            close()
        except BaseException:
            pass


def _columnar_file_blocks(block_iter: Iterator[Any],
                          scan: ScheduleRecord) -> Iterator[ColumnarPartition]:
    """A staged file's partition-sized record matrices, each cast to
    column arrays: one encoding per block."""
    try:
        for matrix in block_iter:
            started = time.perf_counter()
            partition = ColumnarPartition.from_matrix(matrix)
            scan.encode_seconds += time.perf_counter() - started
            yield partition
    finally:
        _close_source(block_iter)


#: Scan chunks per partition of an inline scan: long enough to
#: amortise the kernel's per-partition set-up, short enough that the
#: one partition in flight stays small next to the process.  Swept on
#: ``benchmarks/e2e`` (seed 1, median of 3 ten-second runs; CHANGES.md,
#: PR 23) once staged rows stopped being tuples pinned per partition —
#: with them, 8 chunks bought 1-5 % wall for +3.4 % RSS and stayed 4:
#:
#:   chunks   staged_default            deep_tree
#:            fit_wall_s  peak_rss_mb   fit_wall_s  peak_rss_mb
#:   parent   0.365       59.15         0.60        66.5
#:   4        0.292       58.52 -1.1 %  0.555       65.4
#:   8        0.267       60.04 +1.5 %  0.564       63.9
#:   16       0.238       62.93 +6.4 %  0.522       63.5
#:   32       0.238       68.83 +16 %   0.518       63.2
#:
#: 8 is the largest size whose peak RSS stays within +2 % of the
#: parent's; ``deep_tree`` (10,000-row sources: one or two partitions
#: from 8 up) does not tell the sizes apart.
INLINE_PARTITION_CHUNKS = 8


#: A family's largest child is derived only when its keys (rows x listed
#: columns) outnumber its dense row's cells (width x classes) this many
#: times: ~40 ns a derived cell, ~10 ns a counted key (``deep_tree`` on
#: a 2-core machine, whose children are mostly ~80 rows to 990 cells).
DERIVE_KEYS_PER_CELL = 4


class _PartitionSource:
    """What one scan counts over: ``(encoding, start, stop)`` slices.

    :meth:`ExecutionModule._count_partitioned` is the same loop for
    every source: each slice goes to ``ScanWorkerPool.submit``, and a
    worker's slice-relative staged-row selection comes back as
    ``encoding.take(selection + start)`` (:meth:`take`).  Sources
    differ only in where the encodings come from:

    * **a plan** (every SERVER scan; a pooled FILE scan whose file the
      cache admits): the one encoding ``plan.encode()`` gives, counted
      and charged from the plan — ``charge_scan`` at open,
      ``charge_rows`` at :meth:`settle` for the rows the route kept,
      the pushed filter's (``docs/cost_model.md``).  It is
      *resident* (``cache`` given: looked up, else encoded and
      admitted) or *transient* (``cache`` None: kept by nobody but the
      server);
    * **a memory set**: the encoding the set is kept as (its read is
      charged by the caller);
    * **an inline FILE scan**: the file streamed a partition's records
      at a time, each record matrix its own encoding (charged by
      ``StagedFile.scan_blocks``).

    On a process pool a resident encoding is yielded as its persistent
    segment's reference, which ``submit`` hands the workers as it is,
    so no frame of a failed scan pins a view over the segment past the
    cache entry that owns it (releasing a segment under a live view
    trips ``BufferError``).
    """

    def __init__(self, partition_rows: int,
                 encodings: Iterable[ColumnarPartition] = (),
                 plan: ColumnarScanPlan | None = None,
                 cache: ColumnarScanCache | None = None,
                 routes: Any = None) -> None:
        self._partition_rows = partition_rows
        self._routes = routes  # the tag route's slot per row, or None
        self._encodings: Any = encodings
        self._plan = plan
        self._cache = cache
        #: The scan counts over an encoding the columnar cache keeps.
        self.cached = cache is not None
        #: What process workers are handed for a resident encoding: its
        #: persistent segment's reference.
        self._ref: Any = None
        self._supply: Any = None
        self._pool: Any = None
        self._charged = False
        #: ``(stage_nodes, capture_nodes)`` every submit passes along.
        self._targets: tuple[Any, Any] = ((), ())

    def open(self, pool: ScanWorkerPool, scan: ScheduleRecord,
             targets: tuple[Any, Any]) -> Iterator[Any]:
        """The slices in scan order.

        Called inside the loop's cleanup scope, so this is where a
        plan encodes, admits, ships its segment and charges.
        """
        self._pool = pool
        self._targets = targets
        if self._plan is not None:
            self._encodings = (self._encode(scan),)
            if self._charged:
                self._plan.charge_scan()
        self._supply = self._slices()
        return self._supply

    def _encode(self, scan: ScheduleRecord) -> ColumnarPartition:
        """The plan's encoding: looked up, else encoded (and admitted)."""
        plan, cache = self._plan, self._cache
        assert plan is not None
        entry = None if cache is None else cache.lookup(plan.key)
        if entry is None:
            started = time.perf_counter()
            encoding = plan.encode()
            scan.encode_seconds = time.perf_counter() - started
            self._charged = plan.charge_on_miss
            if cache is None:
                return encoding
            entry = cache.admit(plan.key, encoding, ship=self._pool.remote)
            entry.encode_seconds = scan.encode_seconds
            scan.ship_seconds = entry.ship_seconds
        else:
            self._charged = True
            scan.cache_hit = True
            scan.encode_seconds_saved = entry.encode_seconds
            scan.ship_seconds_saved = entry.ship_seconds
        if self._pool.remote:
            self._ref = entry.ref
        partition = entry.partition
        assert partition is not None
        return partition

    def _slices(self) -> Iterator[tuple[Any, int, int]]:
        step = self._partition_rows
        for encoding in self._encodings:
            shipped = encoding if self._ref is None else self._ref
            for start in range(0, encoding.n_rows, step):
                yield shipped, start, min(start + step, encoding.n_rows)

    def submit(self, seq: int, piece: tuple[Any, int, int],
               ) -> tuple[Any, tuple[Any, int]]:
        """Hand one slice to the pool: ``(future, (encoding, start))``,
        the ticket being what the staged-row gather needs back."""
        encoding, start, stop = piece
        future = self._pool.submit(
            seq, encoding, start, stop, *self._targets,
            None if self._routes is None else self._routes[start:stop],
        )
        return future, (encoding, start)

    def take(self, encoding: Any, rows: Any) -> ColumnarPartition:
        """``rows`` of the encoding a slice was cut from, as a staged
        piece of their own."""
        if encoding is self._ref:
            encoding = self._encodings[0]
        piece: ColumnarPartition = encoding.take(rows)
        return piece

    def stop(self) -> None:
        """The scan is failing: stop producing, close the supply."""
        _close_source(self._supply)
        _close_source(self._encodings)

    def close(self) -> None:
        """The loop is over, either way: let go of everything held.

        A failed scan's traceback pins this object, and the views it
        holds must not outlive the cache entry that owns the segment.
        """
        self._encodings = self._supply = self._ref = None

    def settle(self, rows_seen: int) -> None:
        """The scan succeeded: charge the rows its route kept."""
        if self._charged:
            assert self._plan is not None
            self._plan.charge_rows(rows_seen)


class _NodeCount:
    """Per-node counting state within one scan."""

    __slots__ = ("request", "cc", "reserved", "fallback", "deferred")

    def __init__(self, request: Any, reserved: int) -> None:
        self.request = request
        #: The node's CC table: cut from the scan's batch counts after
        #: the last partition, None again once the node is abandoned.
        self.cc: Any = None
        self.reserved = reserved
        self.fallback = False
        self.deferred = False

    @property
    def abandoned(self) -> bool:
        return self.fallback or self.deferred


class ExecutionModule:
    """Runs schedules: scan-based counting plus staging writes."""

    def __init__(self, server: Any, table_name: str, spec: Any,
                 staging: Any, budget: Any, config: Any, strategy: Any,
                 pool_provider: Callable[[], ScanWorkerPool]) -> None:
        self._server = server
        self._table_name = table_name
        self._spec = spec
        self._staging = staging
        self._budget = budget
        self._config = config
        self._strategy = strategy
        #: Zero-arg callable returning the session's shared
        #: :class:`ScanWorkerPool` (the middleware binds its own pool
        #: here, created on first use and reused by every scan).
        self._pool_provider = pool_provider
        self._attr_index = {
            name: i for i, name in enumerate(spec.attribute_names)
        }
        self._class_index = spec.n_attributes
        #: Table-version columnar cache ("encode once, scan every
        #: level"); None when its byte budget is zero.
        self._scan_cache: ColumnarScanCache | None = None
        if config.scan_cache_bytes:
            self._scan_cache = ColumnarScanCache(config.scan_cache_bytes)
            # Staged files are immutable once sealed, so the only
            # invalidation they need is drop-time eviction.
            staging.add_drop_listener(self._scan_cache.on_file_dropped)
        #: One record per finished scan; session totals derive from it.
        self.trace = ExecutionTrace()

    @property
    def scan_cache(self) -> ColumnarScanCache | None:
        """The session's columnar scan cache (observability / tests)."""
        return self._scan_cache

    def close(self) -> None:
        """Release the scan cache and its persistent shm segments.

        Called by the middleware after the worker pool is closed (so no
        worker still holds an attachment) and before staging teardown.
        Idempotent.
        """
        if self._scan_cache is not None:
            self._scan_cache.close()

    def run(self, schedule: Any) -> tuple[list[CountsResult], list[Any]]:
        """Execute one schedule.

        Returns ``(results, deferred)``: the fulfilled
        :class:`CountsResult` list plus any requests pushed to a later
        scan by a runtime memory overflow.
        """
        scan = ScheduleRecord(
            sequence=len(self.trace),
            mode=schedule.mode.name,
            source_node=schedule.source_node,
            batch=tuple(schedule.node_ids),
            stage_file_targets=tuple(schedule.stage_file_targets),
            stage_memory_targets=tuple(schedule.stage_memory_targets),
            split_file=schedule.split_file,
        )
        meter = self._server.meter
        cost_before = meter.snapshot()
        states = self._make_states(schedule)
        file_writers: dict[Any, StagedFile] = {}
        #: Per memory target, the pieces the scan captured, in order.
        memory_capture: dict[Any, list[ColumnarPartition]] = {
            node_id: [] for node_id in schedule.stage_memory_targets
        }
        committed: list[Any] = []
        paths = {r.node_id: r.conditions for r in schedule.batch}

        try:
            for node_id in self._file_targets(schedule):
                file_writers[node_id] = self._staging.open_file(node_id)
            started = time.perf_counter()
            routes = self._count_partitioned(
                schedule, states, file_writers, memory_capture, scan
            )
            scan.wall_seconds = time.perf_counter() - started

            for writer in file_writers.values():
                writer.seal()
                scan.files_written += 1
            for node_id, pieces in memory_capture.items():
                self._staging.commit_memory(node_id, pieces, paths[node_id])
                committed.append(node_id)
                scan.memory_sets_loaded += 1
        except BaseException:
            # BaseException, not Exception: a KeyboardInterrupt (or
            # SystemExit) mid-scan must not leak open staging writers
            # or CC/memory reservations either.  Set-up and commit sit
            # under the same cleanup as the scan: a file that will not
            # open or seal (disk full) takes every file and memory set
            # of this scan with it, committed or not, because none of
            # the scan's results reach the client.
            for node_id in file_writers:
                self._staging.abandon_file(node_id)
            for node_id in memory_capture:
                if node_id in committed:
                    self._staging.drop_memory(node_id)
                else:
                    self._staging.cancel_memory_reservation(node_id)
            self._release_cc_reservations(states)
            raise

        if schedule.mode is DataLocation.SERVER:
            choice = self._strategy.last_choice
            scan.access_path = choice.path
            scan.access_cost_est = choice.est_cost

        try:
            results, deferred = self._finish(states, schedule)
        finally:
            self._release_cc_reservations(states)
        if routes is not None:  # a deferred node's rows keep their tag
            self._staging.memory_tags[schedule.source_node].retag(routes,
                                                                  states)
        scan.nodes_served = len(results)
        scan.cost = meter.total_since(cost_before)
        self.trace.add(scan)
        return results, deferred

    # -- setup ------------------------------------------------------------

    def _make_states(self, schedule: Any) -> list[_NodeCount]:
        reservations = schedule.cc_reservations
        return [
            _NodeCount(request, reservations.get(request.node_id, 0))
            for request in schedule.batch
        ]

    def _file_targets(self, schedule: Any) -> list[Any]:
        """Nodes this scan writes a staged file for: planned + splits.

        Planned ``stage_file_targets`` were budget-checked by the
        scheduler; §4.3.2 split files are decided here, so the same
        file-space budget is enforced per split target — targets whose
        data would overflow ``file_budget_bytes`` are skipped (their
        nodes are still counted; they just keep reading the source).
        """
        staging = self._staging
        targets = list(schedule.stage_file_targets)
        if schedule.split_file:
            rows_by_node = {r.node_id: r.n_rows for r in schedule.batch}
            planned = sum(rows_by_node.get(node_id, 0) for node_id in targets)
            for node_id in schedule.node_ids:
                if node_id == schedule.source_node or node_id in targets:
                    continue
                n_rows = rows_by_node.get(node_id, 0)
                if not staging.file_space_for(planned + n_rows):
                    continue
                targets.append(node_id)
                planned += n_rows
        return targets

    def _source_rows(self, schedule: Any) -> int:
        """Rows the scan is expected to read, known before it runs.

        Exact for staged sources; for server scans it is the batch's
        relevant-row total (an underestimate of the rows the plan's
        superset holds, which at worst counts a longer source through
        the inline executor).
        """
        staging = self._staging
        if schedule.mode is DataLocation.MEMORY:
            return staging.columnar_memory(schedule.source_node).n_rows
        if schedule.mode is DataLocation.FILE:
            return staging.file_for(schedule.source_node).row_count
        return sum(request.n_rows for request in schedule.batch)

    def _source_domains(self, schedule: Any) -> tuple[Any, ...]:
        """The column domains the scan's source declared once: a memory
        set's at commit, a staged file's at seal, else the RAW ones of
        the server's encoding of the table — which every access path
        reads or copies, but a temp table's re-encodes each dictionary."""
        if schedule.mode is DataLocation.MEMORY:
            return self._staging.memory_domains[schedule.source_node]
        if schedule.mode is DataLocation.FILE:
            return self._staging.file_for(schedule.source_node).domains
        return tuple(
            domain if domain.values is None else None
            for domain in self._server.table(self._table_name).columnar_domains()
        )

    def _partition_rows(self, source_rows: int) -> int:
        """Partition size for one scan of ``source_rows`` rows.

        A pool gets two partitions per worker, never below a scan chunk
        (tiny partitions would be all task overhead, and with a process
        pool all shipping).  A one-worker session has no workers to
        balance, so its partitions only need to be long enough to
        amortise the kernel's per-partition set-up and short enough
        that the one partition in flight stays small next to the
        process: :data:`INLINE_PARTITION_CHUNKS` scan chunks.
        """
        config = self._config
        if config.scan_workers == 1:
            return INLINE_PARTITION_CHUNKS * config.scan_chunk_rows
        return max(config.scan_chunk_rows,
                   -(-source_rows // (2 * config.scan_workers)))

    def _pushed_filter(self, schedule: Any) -> Any:
        """A SERVER scan's pushed batch filter ``S_1 OR ... OR S_k``, or
        None (every row of the access path's superset is seen)."""
        if (schedule.mode is not DataLocation.SERVER
                or not self._config.push_filters):
            return None
        predicate = batch_filter(
            [request.predicate for request in schedule.batch]
        )
        if not filter_supported(predicate):
            # Batch filters are ORs of root paths whose conditions are
            # validated to = / <>: the route's kept rows are its rows.
            raise MiddlewareError(
                "the batch filter is not the OR of the batch's paths: "
                f"{predicate.to_sql()}"
            )
        return predicate

    def _admits(self, plan: ColumnarScanPlan) -> bool:
        """Would the columnar cache plausibly hold ``plan``'s encoding?"""
        cache = self._scan_cache
        return cache is not None and cache.admissible(
            plan, self._spec.n_attributes + 1
        )

    def _charge_memory_read(self, schedule: Any) -> None:
        """Charge reading the schedule's staged in-memory rows."""
        n_rows = self._staging.columnar_memory(schedule.source_node).n_rows
        model = self._server.model
        self._server.meter.charge(
            "memory_read", model.memory_row * n_rows, events=n_rows
        )

    # -- the scan loop ------------------------------------------------------

    @staticmethod
    def _scan_signature(states: list[_NodeCount]) -> tuple[Any, ...]:
        """Equality key for a schedule's routing kernel (pool install)."""
        return tuple(
            (state.request.node_id,
             tuple(state.request.conditions),
             tuple(state.request.attributes))
            for state in states
        )

    def _tag_route(self, schedule: Any, states: list[_NodeCount]) -> Any:
        """Each row's slot by its memory-set tag, or None (the path
        route) unless every node is untagged and its path a tagged
        parent's plus one condition (so the batch is an antichain)."""
        source, staging = schedule.source_node, self._staging
        tags = staging.memory_tags.get(source)
        if schedule.mode is not DataLocation.MEMORY or tags is None:
            return None  # not a memory set, or an untagged one
        own = [s.request.conditions for s in states if s.request.node_id == source]
        if own:  # a later fit's root, a retry: every row is its again
            staging.memory_tags[source] = RowTags(source, own[0], tags.rows.size)
            return None
        groups: dict[int, list[tuple[int, Any]]] = {}
        for slot, state in enumerate(states):
            lineage, conditions = state.request.lineage, state.request.conditions
            tag = tags.nodes.get(lineage[-2]) if len(lineage) > 1 else None
            if (tag is None or lineage[-1] in tags.nodes
                    or conditions[:-1] != tags.paths[tag]):
                return None
            groups.setdefault(tag, []).append((slot, conditions[-1]))
        return tags.route(groups, staging.columnar_memory(source),
                          staging.memory_domains[source], self._attr_index,
                          len(states))

    def _partition_source(self, schedule: Any, scan: ScheduleRecord,
                          pool: ScanWorkerPool, partition_rows: int,
                          routes: Any = None,
                          predicate: Any = None) -> _PartitionSource:
        """The source one scan counts over.

        A SERVER scan runs from its access path's plan for ``predicate``
        on every executor, over slices of the plan's encoding; the
        schedule and the cache's admission gate say whether the session
        keeps that encoding resident — some node of the batch is not
        staged by this scan, so the table will be read again — or only
        counts over it (transient).  A memory set is sliced where it
        lies; a FILE scan streams its file (a pooled one counts over the
        file's cached encoding when it fits).
        """
        staging = self._staging
        if schedule.mode is DataLocation.SERVER:
            plan = self._strategy.plan_columnar(
                predicate, sum(r.n_rows for r in schedule.batch)
            )
            staged = {*schedule.stage_file_targets,
                      *schedule.stage_memory_targets}
            resident = self._admits(plan) and any(
                node_id not in staged for node_id in schedule.node_ids
            )
            return _PartitionSource(
                partition_rows, plan=plan,
                cache=self._scan_cache if resident else None,
            )
        if schedule.mode is DataLocation.MEMORY:
            # The read is charged as for the set's rows.
            self._charge_memory_read(schedule)
            return _PartitionSource(
                partition_rows,
                (staging.columnar_memory(schedule.source_node),),
                routes=routes,
            )
        staged_file = staging.file_for(schedule.source_node)
        # Two FILE forms, because each wins on one benchmark workload
        # (benchmarks/e2e, seed 1, 2-core machine, same trees and
        # staged bytes either way): counting inline scans over the
        # cached plan raised staged_default's peak RSS from 63.4 to
        # 71.1 MiB (+12 %), and streaming pooled scans slowed
        # staged_parallel's fit from ~0.205 to ~0.266 s.
        if not pool.inline:
            plan = staged_file_plan(staged_file)
            if self._admits(plan):
                return _PartitionSource(
                    partition_rows, plan=plan, cache=self._scan_cache
                )
        return _PartitionSource(partition_rows, _columnar_file_blocks(
            staged_file.scan_blocks(partition_rows), scan
        ))

    def _count_partitioned(self, schedule: Any, states: list[_NodeCount],
                           file_writers: dict[Any, StagedFile],
                           memory_capture: dict[Any, list[ColumnarPartition]],
                           scan: ScheduleRecord) -> Any:
        """The scan loop: every source, every executor; returns tag-route slots.

        The source's ordered slices are submitted to the session's
        :class:`ScanWorkerPool` — one in flight when it counts inline,
        at most ``2 x workers`` behind a pool — and collected in
        submission order: partials merge into the real CC tables, and
        each partition's staged pieces are appended in place, strictly
        in partition order (bit-identical staged files; behind a pool
        the workers count the next partitions meanwhile).

        On failure the scan stops its source (closing its supply) and
        drains its outstanding futures *before* re-raising, and the
        source lets go of every encoding it pinned either way — so no
        half-written staged file survives (the caller deletes the
        abandoned files) and the persistent pool carries no stale work
        into the next scan.

        §4.1.1 overflow is checked once, after the merge: workers count
        unconditionally and the merged sizes are admitted against the
        budget in batch order, so deferral / SQL-fallback decisions
        never depend on source, worker count or partition boundaries.
        (Deferred nodes get their estimate raised to the exact pair
        count, so the next admission reserves precisely.)
        """
        source_rows = self._source_rows(schedule)
        partition_rows = self._partition_rows(source_rows)
        scan.partition_rows = partition_rows
        routes = self._tag_route(schedule, states)
        scan.routing = "path" if routes is None else "tag"
        predicate = self._pushed_filter(schedule)
        kernel = None if routes is not None else RoutingKernel(
            [state.request.conditions for state in states], self._attr_index,
            filtered=predicate is not None,
        )
        attr_index = self._attr_index
        n_classes = self._spec.n_classes
        positions = [[attr_index[name] for name in state.request.attributes]
                     for state in states]
        domains = self._source_domains(schedule)
        slots = slot_layout(
            [state.request.node_id for state in states], positions,
            len(attr_index), domains, n_classes, source_rows,
        )
        families = self._families(states, slots, positions, n_classes)
        slots = slots._replace(
            derived_slots=tuple(sorted(family[0] for family in families)),
            route=route_tables(kernel, domains, source_rows),
        )
        #: Every partition's counts fold in here; the CC tables are
        #: cut from it once, after the last one.
        counts = BatchCounts(len(states), slots.stride, n_classes, slots)
        n_probes = 1 if kernel is None else kernel.n_probes

        pool = self._pool_provider()
        scan.pool_reused = pool.active
        scan.pool_setup_seconds = pool.install(
            (scan.routing, predicate is not None,
             self._scan_signature(states), slots.dense, slots.derived_slots,
             tuple(None if t is None else t[0] for t in slots.route)),
            kernel, slots,
            self._class_index, n_classes,
            # Read off the schedule, not an option: a source that fits
            # in one partition has nothing to overlap, so no pool is
            # started for it.
            one_partition=source_rows <= partition_rows,
        )
        if not pool.inline:
            scan.workers = pool.n_workers
        source = self._partition_source(schedule, scan, pool, partition_rows,
                                        routes, predicate)
        scan.cached = source.cached

        def collect(future: Any, ticket: tuple[Any, int]) -> None:
            result = future.result()
            seen = result[6]
            scan.rows_seen += seen
            scan.matcher_evals += n_probes * seen
            scan.rows_routed += result[2]
            scan.worker_seconds.append(result[5])
            merge_started = time.perf_counter()
            CCTable.merge_block(counts, *result[1])
            scan.merge_seconds += time.perf_counter() - merge_started

            # The partition's staged pieces, written in place: the
            # collect order is the partition order on every executor.
            encoding, start = ticket
            for node_id, selection in result[3].items():
                if len(selection):
                    file_writers[node_id].append_rows(
                        source.take(encoding, selection + start))
            for node_id, selection in result[4].items():
                if len(selection):
                    memory_capture[node_id].append(
                        source.take(encoding, selection + start))

        #: (future, ticket) per submitted partition, in scan order;
        #: tickets pin what a failed scan must be able to release.
        inflight: deque[tuple[Any, Any]] = deque()
        max_inflight = 1 if pool.inline else 2 * pool.n_workers
        try:
            for seq, piece in enumerate(source.open(
                    pool, scan, (tuple(file_writers), tuple(memory_capture))
            )):
                inflight.append(source.submit(seq, piece))
                if len(inflight) >= max_inflight:
                    collect(*inflight.popleft())
            while inflight:
                collect(*inflight.popleft())
        except BaseException as exc:
            source.stop()
            pool.drain([future for future, _ in inflight])
            pool.retire_broken(exc)
            raise
        finally:
            inflight.clear()
            source.close()

        source.settle(scan.rows_seen)
        derived = [states[slot].request for slot in slots.derived_slots]
        scan.derived = tuple(request.node_id for request in derived)
        scan.rows_derived = sum(request.n_rows for request in derived)
        # Routed only for a write; the batch is an antichain, so exact.
        targets = {*file_writers, *memory_capture}
        scan.rows_routed += sum(request.n_rows for request in derived
                                if request.node_id not in targets)
        counts.derive(families, attr_index)
        tables = counts.tables(
            [state.request.attributes for state in states],
            self._spec.attribute_names,
        )
        for state, table in zip(states, tables):
            state.cc = table
        self._admit_merged(states, scan)
        return routes

    @staticmethod
    def _families(states: list[_NodeCount], slots: Any,
                  positions: list[list[int]], n_classes: int,
                  ) -> list[tuple[int, Any, list[int], int]]:
        """``BatchCounts.derive``'s families: every child in the batch,
        the one with the most rows (on a tie, the earliest slot) listing
        only columns its parent lists and this scan counts densely, and
        worth deriving (:data:`DERIVE_KEYS_PER_CELL`)."""
        cells = DERIVE_KEYS_PER_CELL * slots.width * n_classes
        slot_of = {state.request.node_id: i for i, state in enumerate(states)}
        dense = {position for position, _, _ in slots.dense}
        families = []
        for family in {state.request.family.parent_id: state.request.family
                       for state in states if state.request.family}.values():
            parent, family.parent_cc = family.parent_cc, None  # consumed
            members = [slot_of.get(child, -1) for child in family.child_ids]
            if (parent is None or -1 in members
                    or len(set(members)) < max(2, len(members))):
                continue
            slot = max(members, key=lambda m: (states[m].request.n_rows, -m))
            request = states[slot].request
            if (request.n_rows * len(positions[slot]) >= cells
                    and dense.issuperset(positions[slot])
                    and set(request.attributes).issubset(parent.attributes)):
                members.remove(slot)
                families.append((slot, parent, members, request.n_rows))
        return families

    def _admit_merged(self, states: list[_NodeCount],
                      scan: ScheduleRecord) -> None:
        """§4.1.1 admission on the merged sizes — its one form."""
        budget = self._budget
        for state in states:
            needed = state.cc.size_bytes
            if needed > state.reserved:
                deficit = needed - state.reserved
                if budget.try_reserve(_cc_tag(state.request.node_id),
                                      deficit):
                    state.reserved = needed
                else:
                    self._abandon(state, states, scan)

    def _abandon(self, target: _NodeCount, states: list[_NodeCount],
                 scan: ScheduleRecord) -> None:
        """Handle a CC-memory overflow for one node (Section 4.1.1).

        A node sharing the scan with other *surviving* nodes is
        deferred to a later scan with a corrected size estimate; a node
        counted alone — scanned solo, or the last survivor of a batch
        whose peers all overflowed — genuinely cannot fit and switches
        to SQL-based lazy counting (deferring it would only replay the
        same solo overflow on the next scan).
        """
        budget = self._budget
        request = target.request
        observed_pairs = target.cc.n_pairs
        target.cc = None
        budget.release(_cc_tag(request.node_id))
        target.reserved = 0
        surviving_peers = sum(
            1 for state in states
            if state is not target and not state.abandoned
        )
        if surviving_peers:
            target.deferred = True
            # The estimate was too low: raise it to what the scan
            # counted (the node's exact size) so the next admission
            # reserves precisely.
            request.est_cc_pairs = max(request.est_cc_pairs + 1,
                                       observed_pairs)
            scan.deferrals += 1
        else:
            target.fallback = True
            scan.sql_fallbacks += 1

    # -- wrap-up ---------------------------------------------------------------

    def _finish(
        self, states: list[_NodeCount], schedule: Any
    ) -> tuple[list[CountsResult], list[Any]]:
        results = []
        deferred = []
        for state in states:
            request = state.request
            if state.deferred:
                deferred.append(request)
                continue
            if state.fallback:
                cc = counts_via_sql(
                    self._server,
                    self._table_name,
                    self._spec,
                    request.attributes,
                    request.predicate
                    if request.conditions else None,
                )
            else:
                cc = state.cc
            if cc.records != request.n_rows:
                raise MiddlewareError(
                    f"node {request.node_id!r}: counted {cc.records} rows "
                    f"but the parent CC table promised {request.n_rows}"
                )
            results.append(
                CountsResult(
                    request.node_id,
                    cc,
                    schedule.mode,
                    used_sql_fallback=state.fallback,
                )
            )
        return results, deferred

    def _release_cc_reservations(self, states: list[_NodeCount]) -> None:
        for state in states:
            self._budget.release(_cc_tag(state.request.node_id))
