"""Persistent shared-memory segments for resident encodings.

A process worker gets one of two things with each slice it counts
(``ScanWorkerPool.submit``): the slice itself, pickled, or — when the
encoding is resident in the session's columnar cache — a
generation-counted :class:`ShmSegmentRef` to the one segment that
encoding was copied into when the cache admitted it.  This module is
the second form: the cache's :class:`ShmShipper` copies an encoding's
column arrays once into a ``multiprocessing.shared_memory`` segment
and hands out a tiny :class:`ShmPartitionHandle` (segment name +
per-column offsets); a worker attaches read-only once per table
version and counts every later slice over zero-copy views.

Lifecycle is explicit and witnessed: every segment is announced to the
resource monitor as a ``"shm-segment"`` resource when created and
retired when its cache entry is released, so a segment that outlives
its entry is a sanitizer *finding*, not a silent ``/dev/shm`` leak.
The coordinator owns every segment — workers only ever attach and
close — and :meth:`ShmShipper.close` releases anything still live.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Optional

from ..common.locks import resource_closed, resource_created
from ..sqlengine.columnar import ColumnarPartition

@dataclass(frozen=True)
class ShmColumnSpec:
    """Where one column lives inside a segment.

    ``null_offset`` is -1 when the column has no null mask; ``values``
    is the dictionary (tuple of original objects) for DICT columns and
    ``None`` for RAW ones.
    """

    kind: str
    dtype: str
    data_offset: int
    null_offset: int
    values: Optional[tuple[Any, ...]]


@dataclass(frozen=True)
class ShmPartitionHandle:
    """The only thing pickled per partition: name + layout."""

    segment: str
    n_rows: int
    columns: tuple[ShmColumnSpec, ...]


@dataclass(frozen=True)
class ShmSegmentRef:
    """A *persistent* segment a worker may already have attached.

    The columnar cache ships each table version once and then hands
    workers this generation-counted reference scan after scan (the
    same trick :class:`~repro.core.scan_pool.ScanWorkerPool` plays
    with kernel installs): a worker re-attaches only when
    ``generation`` differs from the one it has cached, so an unchanged
    table costs zero copies and zero attaches after the first scan.
    """

    generation: int
    handle: ShmPartitionHandle


class ShmShipper:
    """Creates, tracks and releases the coordinator's shm segments.

    Single-threaded by design: ship/release/close all run on the
    coordinating scan thread, so no lock is needed — only the failure
    path must remember that :meth:`close` is idempotent.
    """

    def __init__(self) -> None:
        self._live: dict[str, Any] = {}
        self.shipped = 0

    def ship(self, partition: ColumnarPartition) -> ShmPartitionHandle:
        """Copy ``partition`` into a fresh segment; returns its handle.

        Every segment is a columnar-cache entry's and outlives the scan
        that shipped it (it dies with the entry); the witness detail
        says ``persistent`` so leak reports show that.
        """
        total, specs = partition.layout()
        segment = shared_memory.SharedMemory(create=True, size=total)
        try:
            partition.write_into(segment.buf)
        except BaseException:
            segment.close()
            segment.unlink()
            raise
        self._live[segment.name] = segment
        self.shipped += 1
        resource_created(
            "shm-segment", segment,
            f"{segment.name} rows={partition.n_rows} bytes={total} "
            "persistent",
        )
        return ShmPartitionHandle(
            segment=segment.name,
            n_rows=partition.n_rows,
            columns=tuple(
                ShmColumnSpec(kind, dtype, data_offset, null_offset, values)
                for kind, dtype, data_offset, null_offset, values in specs
            ),
        )

    def release(self, name: str) -> None:
        """Close and unlink one segment (no-op if already released).

        A ``BufferError`` on close means a numpy view over the buffer
        is still alive (dropped references the GC has not collected
        yet); the segment is unlinked regardless — on POSIX the memory
        is reclaimed once the last mapping dies with the view.
        """
        segment = self._live.pop(name, None)
        if segment is None:
            return
        resource_closed("shm-segment", segment)
        try:
            segment.close()
        except BufferError:
            pass
        segment.unlink()

    def segment(self, name: str) -> Any:
        """The live segment object for ``name``.

        The columnar cache rebuilds its resident partition as a
        zero-copy view over the shipped segment (one physical copy for
        coordinator *and* workers), so it needs the buffer back after
        :meth:`ship`.  Raises :class:`KeyError` for released segments.
        """
        return self._live[name]

    @property
    def live_segments(self) -> int:
        return len(self._live)

    def close(self) -> None:
        """Release every live segment.  Idempotent; never raises."""
        for name in list(self._live):
            try:
                self.release(name)
            except OSError:  # pragma: no cover - already-gone segment
                pass


def attach_readonly(name: str) -> Any:
    """Attach to an existing segment without adopting ownership.

    Python < 3.13 has no ``track=False``; whether the default tracking
    is harmful depends on the start method.  Forked workers share the
    coordinator's resource tracker, so the attach's duplicate
    registration is a no-op and the coordinator's ``unlink`` retires
    the name (``ScanWorkerPool`` starts the tracker before it forks)
    — unregistering here would turn that unlink into a noisy
    double-remove.  Spawn children run a *private* tracker that would
    unlink the segment when the worker exits — stealing it from the
    coordinator — so there the attachment must be unregistered.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    segment = shared_memory.SharedMemory(name=name)
    try:
        import multiprocessing

        if multiprocessing.get_start_method(allow_none=True) == "spawn":
            from multiprocessing import resource_tracker

            resource_tracker.unregister(
                getattr(segment, "_name", "/" + name), "shared_memory"
            )
    except Exception:  # noqa: BLE001 - tracker quirks must not kill scans
        pass
    return segment


def partition_from_handle(segment: Any,
                          handle: ShmPartitionHandle) -> ColumnarPartition:
    """Rebuild the zero-copy partition view over an attached segment."""
    specs = [
        (spec.kind, spec.dtype, spec.data_offset, spec.null_offset,
         spec.values)
        for spec in handle.columns
    ]
    return ColumnarPartition.from_buffer(segment.buf, handle.n_rows, specs)
