"""Table-version columnar scan cache ("encode once, scan every level").

A SERVER fit touches the same table once per tree level: every batch
the scheduler emits re-reads the (unchanged) data table.  Encoding it
into typed column arrays — and, for process pools, copying it into a
shared-memory segment — once per *data version* instead of once per
scan is what makes a multi-level fit cheap.

* :class:`ColumnarScanPlan` — what one plan-run scan needs: a cache
  key (``("table", name, version)`` for plain scans, structure-specific
  keys for the §4.3.3 auxiliary strategies, ``("file", uid)`` for
  staged files), an encoder of the superset it counts over, and two
  charge callables.  This module knows no price: the callables are the
  functions the path's metered stream charges through, handed in by
  the layer that owns the access path (``sqlengine`` for server scans,
  :class:`~repro.core.staging.StagedFile` for staged files), which is
  what keeps a plan-run scan cost-identical to its stream.
* :class:`ColumnarScanCache` — an LRU of full-source
  :class:`~repro.sqlengine.columnar.ColumnarPartition` encodings under
  a byte budget (``config.scan_cache_bytes``), accounted from the flat
  shared-memory layout size.  The server keeps one encoding per table
  version (:meth:`~repro.sqlengine.heap.HeapTable.columnar`) whether
  or not a session admits it — a plain table's entry *is* that object
  — so the budget bounds what the *session* holds on top: the entries
  it admits, gathered TID / index supersets, pooled FILE encodings
  and, when it admits an entry while process workers run, one
  *persistent* shm segment per entry (shipped once, witnessed with a
  ``persistent`` marker).  That segment is the one shared-memory form
  a process worker ever sees: scans of a resident encoding hand
  workers its generation-counted
  :class:`~repro.core.shm.ShmSegmentRef`, so they re-attach once per
  table version instead of receiving a copy per scan; every other
  slice — a transient scan's, a memory set's, a streamed file block's
  — travels pickled.  A scan whose encoding the cache does not admit
  counts over the same encoding transiently and keeps nothing.

Invalidation is by construction, not by callbacks: table mutations bump
:attr:`~repro.sqlengine.heap.HeapTable.version`, so a stale entry can
never be *hit* — admitting the new version drops the old one.  Staged
files are immutable once sealed but their uids can be dropped and the
path reused, so :class:`~repro.core.staging.StagingManager` fires drop
listeners that evict ``("file", uid)`` entries eagerly.

Everything here runs on the coordinating scan thread (one scan at a
time per middleware session), so no lock is needed — mirroring
:class:`~repro.core.shm.ShmShipper`.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..sqlengine.columnar import ColumnarPartition
from .shm import ShmSegmentRef, ShmShipper, partition_from_handle

#: Pre-encode admission estimate: one int64 cell per attribute + class
#: (a RAW column is stored as narrow as its range, so most encodings
#: come out smaller).
_BYTES_PER_CELL = 8


@dataclass
class ColumnarScanPlan:
    """One plan-run scan: key, encoder, and meter charges.

    ``encode`` gives the *superset* the scan counts over (the full
    table, the auxiliary structure's rows, or the staged file) as one
    columnar partition, which the scan slices whether or not the cache
    keeps it.  When ``charge_on_miss`` is True it is unmetered (it
    bypasses the cursor layer) and the caller must apply
    ``charge_scan``/``charge_rows`` however the scan is supplied; when
    False the encoder itself meters (staged-file block scans), so the
    explicit charges apply on hits only.

    A SERVER scan's pushed batch filter is the OR of its batch's paths,
    so the counting kernel's route keeps its rows; per-scan filters
    deliberately stay *out* of the cache key so every level of a fit
    shares one encoding.
    """

    #: Cache identity; first two elements are the source prefix
    #: (``("table", name)`` / ``("file", uid)`` / ...), used to drop
    #: stale versions of the same source on admit.
    key: tuple[Any, ...]
    #: Pre-encode row estimate for the admission gate.
    n_rows: int
    #: Materialise the full superset encoding (miss path).
    encode: Callable[[], ColumnarPartition]
    #: Fixed per-scan charges (cursor open, page I/O, keyset/join fees).
    charge_scan: Callable[[], None]
    #: Per-qualifying-row charges (transfer), applied at scan end.
    charge_rows: Callable[[int], None]
    #: False when ``encode`` meters its own reads (staged files).
    charge_on_miss: bool = True


class _CacheEntry:
    """One resident encoding (plus its persistent segment, if shipped)."""

    __slots__ = ("key", "partition", "ref", "nbytes", "encode_seconds",
                 "ship_seconds")

    def __init__(self, key: tuple[Any, ...],
                 partition: Optional[ColumnarPartition],
                 nbytes: int) -> None:
        self.key = key
        self.partition = partition
        #: Generation-counted persistent-segment reference, or None
        #: when the entry was never shipped (admitted with no process
        #: worker running, or transient).
        self.ref: Optional[ShmSegmentRef] = None
        self.nbytes = nbytes
        #: Wall-clock cost of building this entry, reported as
        #: ``encode_seconds_saved`` / ``ship_seconds_saved`` on hits.
        self.encode_seconds = 0.0
        self.ship_seconds = 0.0


class ColumnarScanCache:
    """LRU of full-table columnar encodings under a byte budget."""

    def __init__(self, budget_bytes: int) -> None:
        self._budget = max(0, budget_bytes)
        self._entries: "OrderedDict[tuple[Any, ...], _CacheEntry]" = (
            OrderedDict()
        )
        self._resident = 0
        self._shipper: Optional[ShmShipper] = None
        #: Monotone per-cache ship counter; workers cache one attached
        #: segment and re-attach only when the generation moves.
        self._generation = 0
        self._closed = False
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # -- observability -----------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        """Bytes of encodings currently held (= segment bytes when shipped)."""
        return self._resident

    @property
    def resident_entries(self) -> int:
        return len(self._entries)

    @property
    def live_segments(self) -> int:
        """Persistent shm segments currently alive."""
        return 0 if self._shipper is None else self._shipper.live_segments

    # -- admission ---------------------------------------------------------

    def admissible(self, plan: ColumnarScanPlan, n_columns: int) -> bool:
        """Pre-encode gate: would this plan's encoding plausibly fit?

        The estimate (rows × columns × 8) deliberately ignores null
        masks and dictionary tuples; a plan that passes the gate but
        encodes larger than the budget is still used — once,
        transiently — by :meth:`admit`.
        """
        if self._closed or self._budget <= 0:
            return False
        return plan.n_rows * n_columns * _BYTES_PER_CELL <= self._budget

    def lookup(self, key: tuple[Any, ...]) -> Optional[_CacheEntry]:
        """The resident entry for ``key`` (bumps LRU), or None."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def admit(self, key: tuple[Any, ...], partition: ColumnarPartition,
              ship: bool) -> _CacheEntry:
        """Install a freshly encoded partition; returns its entry.

        Admitting a new version of a source first drops any entry with
        the same two-element key prefix (the stale version could never
        be hit again, but would squat on the budget), then evicts LRU
        entries until the newcomer fits.  An encoding larger than the
        whole budget is returned as a *transient* entry — the caller
        uses it for this scan and it is never stored or shipped.

        With ``ship`` True the partition is copied once into a
        persistent shared-memory segment and the entry's resident
        partition is rebuilt as a zero-copy view over that segment, so
        the coordinator and the segment share one physical copy.
        """
        nbytes = partition.nbytes
        entry = _CacheEntry(key, partition, nbytes)
        if self._closed or nbytes > self._budget:
            return entry
        self.invalidate(key[:2])
        while self._entries and self._resident + nbytes > self._budget:
            self._evict_lru()
        if ship:
            started = time.perf_counter()
            shipper = self._shipper
            if shipper is None:
                shipper = self._shipper = ShmShipper()
            handle = shipper.ship(partition)
            self._generation += 1
            entry.ref = ShmSegmentRef(self._generation, handle)
            entry.partition = partition_from_handle(
                shipper.segment(handle.segment), handle
            )
            entry.ship_seconds = time.perf_counter() - started
        self._entries[key] = entry
        self._resident += nbytes
        return entry

    # -- invalidation ------------------------------------------------------

    def invalidate(self, prefix: tuple[Any, ...]) -> int:
        """Drop every entry whose key starts with ``prefix``."""
        width = len(prefix)
        stale = [k for k in self._entries if k[:width] == prefix]
        for k in stale:
            self._release(self._entries.pop(k))
            self.invalidations += 1
        return len(stale)

    def on_file_dropped(self, staged: Any) -> None:
        """Staging drop listener: evict a deleted file's encoding."""
        self.invalidate(("file", staged.uid))

    def _evict_lru(self) -> None:
        _key, entry = self._entries.popitem(last=False)
        self._release(entry)
        self.evictions += 1

    def _release(self, entry: _CacheEntry) -> None:
        self._resident -= entry.nbytes
        ref = entry.ref
        # Drop the buffer views before releasing the backing segment —
        # release() tolerates (and unlinks through) lingering views,
        # but dropping ours first is the clean order.
        entry.partition = None
        entry.ref = None
        if ref is not None and self._shipper is not None:
            self._shipper.release(ref.handle.segment)

    def close(self) -> None:
        """Release every entry and persistent segment.  Idempotent."""
        self._closed = True
        while self._entries:
            _key, entry = self._entries.popitem(last=False)
            self._release(entry)
        if self._shipper is not None:
            self._shipper.close()
            self._shipper = None


# -- the staged-file plan (server plans are built by core.auxiliary) -----


def staged_file_plan(staged: Any) -> ColumnarScanPlan:
    """Cacheable twin of a staged-file block scan.

    Unlike the server plans the miss path is *metered*: encoding reads
    through :meth:`~repro.core.staging.StagedFile.scan_blocks`, which
    charges per-row file I/O exactly as the streaming scan does — so
    the explicit charges apply on hits only (``charge_on_miss=False``).
    """

    def encode() -> ColumnarPartition:
        # The whole file is one block (none when it is empty): one
        # read, one matrix.
        blocks = list(staged.scan_blocks())
        if not blocks:
            return ColumnarPartition(0, ())
        return ColumnarPartition.from_matrix(blocks[0])

    return ColumnarScanPlan(
        key=("file", staged.uid),
        n_rows=staged.row_count,
        encode=encode,
        charge_scan=staged.charge_cached_read,
        charge_rows=lambda n: None,
        charge_on_miss=False,
    )


__all__ = [
    "ColumnarScanCache",
    "ColumnarScanPlan",
    "staged_file_plan",
]
