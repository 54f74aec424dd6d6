"""Span tracer for the end-to-end benchmark.

Spans are recorded from *this* file: :class:`Tracer` replaces the
public entry points of each layer (module attributes and class
attributes listed in :data:`PATCH_POINTS`) with thin wrappers for the
duration of one traced fit and puts the originals back afterwards.
Nothing under ``src/`` knows it is being traced.

Two wrapper kinds exist:

* **call** wrappers open a span around one call (per statement, batch,
  partition or node — never per row);
* **iterator** wrappers time a generator's *production*: rows are
  pulled from the wrapped generator in blocks of :data:`BLOCK_ROWS`
  inside one span per block and handed on from the block, so a
  100k-row cursor scan costs ~200 spans instead of 100k clock reads.
  The generators wrapped this way charge their meter at start/end of
  iteration only and are always drained by their consumers, so the
  read-ahead changes neither rows nor cost units (every traced fit is
  still checked against the oracle tree and the untraced cost).

A span's *self* time is its duration minus the durations of the spans
opened directly beneath it on the same thread.  Worker threads keep
their own stacks, so their spans are reported as busy time and never
subtracted from the coordinator.  Process-pool workers are out of
reach of the wrappers; ``layers.py`` falls back to the worker seconds
the program itself publishes for those.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple, Optional

#: Rows pulled per span by iterator wrappers around row generators.
BLOCK_ROWS = 512


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    self_s: float
    parent_id: int      # 0 = no parent on this thread
    thread: int
    fit_id: int
    #: Items the span produced (rows of a block pull, result rows of a
    #: statement, bytes of an encoding) — 0 where nothing is measured.
    size: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class PatchPoint(NamedTuple):
    owner: str                  # "package.module" or "package.module:Class"
    attribute: str
    span: str
    kind: str = "call"          # "call" | "rows" | "blocks"
    #: Maps a call's return value to the span's ``size``.
    size: Optional[Callable[[Any], int]] = None


def _nbytes(partition: Any) -> int:
    return int(partition.nbytes)


#: Every attribute the tracer replaces.  A name imported with
#: ``from x import y`` is patched where it is *used* (the importing
#: module's namespace), since that is the binding callers resolve.
PATCH_POINTS = (
    # -- sqlengine -----------------------------------------------------
    PatchPoint("repro.sqlengine.database", "parse", "sqlengine.parser.parse"),
    PatchPoint("repro.sqlengine.database", "execute_statement",
               "sqlengine.executor.execute", size=len),
    PatchPoint("repro.sqlengine.executor", "plan_access_path",
               "sqlengine.planner.plan"),
    PatchPoint("repro.sqlengine.database:SQLServer", "open_cursor",
               "sqlengine.cursors.open"),
    PatchPoint("repro.sqlengine.cursors:ForwardCursor", "rows",
               "sqlengine.cursors.scan", "rows"),
    PatchPoint("repro.sqlengine.cursors:ForwardCursor", "partitions",
               "sqlengine.cursors.scan", "blocks"),
    PatchPoint("repro.sqlengine.heap:HeapTable", "scan_rows",
               "sqlengine.heap.scan", "rows"),
    PatchPoint("repro.sqlengine.heap:HeapTable", "scan",
               "sqlengine.heap.scan_tids", "rows"),
    PatchPoint("repro.sqlengine.columnar:ColumnarPartition", "from_rows",
               "sqlengine.columnar.encode", size=_nbytes),
    PatchPoint("repro.sqlengine.columnar:ColumnarPartition", "from_matrix",
               "sqlengine.columnar.encode", size=_nbytes),
    PatchPoint("repro.sqlengine.columnar:ColumnarPartition", "rows_at",
               "sqlengine.columnar.decode", size=len),
    # -- core ----------------------------------------------------------
    PatchPoint("repro.core.middleware:Middleware", "__init__",
               "core.middleware.open"),
    PatchPoint("repro.core.middleware:Middleware", "process_next_batch",
               "core.middleware.batch"),
    PatchPoint("repro.core.middleware:Middleware", "close",
               "core.middleware.close"),
    PatchPoint("repro.core.scheduler:Scheduler", "plan",
               "core.scheduler.plan"),
    PatchPoint("repro.core.execution:ExecutionModule", "run",
               "core.execution.run"),
    PatchPoint("repro.core.scan_pool", "count_partition_columnar",
               "core.vector_kernel.count"),
    PatchPoint("repro.core.scan_pool", "count_partition_slice",
               "core.vector_kernel.count"),
    PatchPoint("repro.core.scan_pool:ScanWorkerPool", "install",
               "core.scan_pool.setup"),
    PatchPoint("repro.core.scan_pool:ScanWorkerPool", "submit",
               "core.scan_pool.submit"),
    PatchPoint("repro.core.scan_pool:ScanWorkerPool", "submit_columnar",
               "core.scan_pool.submit"),
    PatchPoint("repro.core.scan_pool:ScanWorkerPool",
               "submit_columnar_slice", "core.scan_pool.submit"),
    PatchPoint("repro.core.cc_table:CCTable", "merge", "core.cc_table.merge"),
    PatchPoint("repro.core.cc_table:CCTable", "merge_block",
               "core.cc_table.merge"),
    PatchPoint("repro.core.shm:ShmShipper", "ship", "core.shm.ship"),
    PatchPoint("repro.core.staging:StagedFile", "append_rows",
               "core.staging.write"),
    PatchPoint("repro.core.staging:StagedFile", "seal", "core.staging.write"),
    PatchPoint("repro.core.staging:StagedFile", "scan",
               "core.staging.read", "rows"),
    PatchPoint("repro.core.staging:StagedFile", "scan_blocks",
               "core.staging.read", "blocks"),
    # -- client --------------------------------------------------------
    PatchPoint("repro.client.decision_tree:DecisionTreeClassifier", "fit",
               "client.decision_tree.fit"),
    PatchPoint("workloads", "sql_counting_loop", "client.decision_tree.fit"),
    PatchPoint("repro.client.decision_tree", "partition_node",
               "client.growth.partition"),
    PatchPoint("repro.client.growth", "partition_node",
               "client.growth.partition"),
    PatchPoint("repro.client.growth", "best_split",
               "client.splits.best_split"),
)

#: Name of the span :meth:`Tracer.fit` opens around one whole fit.
ROOT_SPAN = "fit"


def _resolve(owner: str) -> Any:
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class Tracer:
    """Records spans in memory; owns the patches it installs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.thread_names: dict[int, str] = {}
        self._fit_id = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- span recording ----------------------------------------------------

    def _stack(self) -> list[list[Any]]:
        try:
            return self._local.stack
        except AttributeError:
            thread = threading.current_thread()
            self.thread_names[thread.ident or 0] = thread.name
            stack: list[list[Any]] = []
            self._local.stack = stack
            return stack

    def _begin(self, name: str) -> None:
        # frame: name, span id, start, seconds covered by child spans
        self._stack().append(
            [name, next(self._ids), time.perf_counter(), 0.0]
        )

    def _end(self, size: int = 0) -> None:
        end = time.perf_counter()
        stack = self._stack()
        name, span_id, start, child_seconds = stack.pop()
        duration = end - start
        parent_id = 0
        if stack:
            stack[-1][3] += duration
            parent_id = stack[-1][1]
        self.spans.append(Span(
            span_id, name, start, end, duration - child_seconds,
            parent_id, threading.get_ident(), self._fit_id, size,
        ))

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self._begin(name)
        try:
            yield
        finally:
            self._end()

    @contextmanager
    def fit(self, fit_id: int) -> Iterator[None]:
        """Trace one fit: install the patches, open the root span."""
        self._fit_id = fit_id
        self.install()
        try:
            with self.span(ROOT_SPAN):
                yield
        finally:
            self.restore()

    def spans_of(self, fit_id: int) -> list[Span]:
        return [span for span in self.spans if span.fit_id == fit_id]

    # -- wrappers ------------------------------------------------------------

    def _call_wrapper(self, func: Callable[..., Any], name: str,
                      size: Optional[Callable[[Any], int]],
                      ) -> Callable[..., Any]:
        begin, end = self._begin, self._end

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            begin(name)
            measured = 0
            try:
                result = func(*args, **kwargs)
                if size is not None:
                    measured = size(result)
                return result
            finally:
                end(measured)

        return traced

    def _pull_blocks(self, produced: Any, name: str,
                     block_items: int) -> Iterator[Any]:
        source = iter(produced)
        try:
            while True:
                self._begin(name)
                block: list[Any] = []
                try:
                    block = list(itertools.islice(source, block_items))
                finally:
                    self._end(len(block))
                if not block:
                    return
                yield from block
        finally:
            close = getattr(source, "close", None)
            if close is not None:
                close()

    def _iter_wrapper(self, func: Callable[..., Any], name: str,
                      block_items: int) -> Callable[..., Any]:
        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            return self._pull_blocks(func(*args, **kwargs), name,
                                     block_items)

        return traced

    def _wrap(self, original: Any, point: PatchPoint) -> Any:
        if isinstance(original, (classmethod, staticmethod)):
            return type(original)(self._wrap(original.__func__, point))
        if point.kind == "call":
            return self._call_wrapper(original, point.span, point.size)
        # "blocks" generators already yield whole blocks: time each one.
        block_items = BLOCK_ROWS if point.kind == "rows" else 1
        return self._iter_wrapper(original, point.span, block_items)

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer patches are already installed")
        for point in PATCH_POINTS:
            owner = _resolve(point.owner)
            # vars(), not getattr(): keeps classmethod descriptors intact.
            original = vars(owner)[point.attribute]
            self._restore.append((owner, point.attribute, original))
            setattr(owner, point.attribute, self._wrap(original, point))

    def restore(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- export --------------------------------------------------------------

    def chrome_trace(self) -> dict[str, Any]:
        """The recorded spans as Chrome trace-event JSON (Perfetto)."""
        origin = min((span.start for span in self.spans), default=0.0)
        tids = {
            ident: index
            for index, ident in enumerate(
                sorted({span.thread for span in self.spans}), start=1
            )
        }
        events: list[dict[str, Any]] = [
            {
                "ph": "M", "name": "thread_name", "pid": 1,
                "tid": tids[ident],
                "args": {"name": self.thread_names.get(ident, str(ident))},
            }
            for ident in tids
        ]
        for span in sorted(self.spans, key=lambda s: s.start):
            events.append({
                "ph": "X",
                "name": span.name,
                "cat": span.name.rsplit(".", 1)[0],
                "pid": 1,
                "tid": tids[span.thread],
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "args": {
                    "span": span.span_id,
                    "parent": span.parent_id,
                    "fit": span.fit_id,
                    "self_us": span.self_s * 1e6,
                    "size": span.size,
                },
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle)
