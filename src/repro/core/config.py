"""Middleware configuration.

One :class:`MiddlewareConfig` captures every knob the paper varies in
its experiments: the memory budget, whether staging to files and/or
memory is enabled (the application "can customize staging... completely
disabled or restricted to only caching in middleware files... or to
only memory caching"), the file-split threshold of Section 4.3.2, the
filter push-down of Section 4.3.1, and the server-access strategy of
Section 4.3.3.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

from ..common.errors import MiddlewareError

#: Server-access strategy names (Section 4.3.3); "scan" is the default
#: plain filtered cursor the paper's system uses; "auto" consults the
#: engine's cost-based access-path planner per scan.
AUX_STRATEGIES = ("scan", "temp_table", "tid_join", "keyset", "auto")

#: Worker-pool kinds for the parallel scan executor (``scan_workers``
#: > 1; one worker counts inline and has no pool of either kind).
#: Threads are the default (cheap, shares the routing kernel in
#: place); the process pool sidesteps the GIL at the price of shipping
#: partitions and count arrays across the boundary.
SCAN_POOLS = ("thread", "process")


def _default_scan_workers() -> int:
    """Default scan worker count: ``$REPRO_SCAN_WORKERS``, else 1.

    The environment override lets a whole test or CI run opt into the
    parallel scan executor without touching any call site (the CI
    matrix runs the tier-1 suite once with one worker and once with 4).
    """
    raw = os.environ.get("REPRO_SCAN_WORKERS", "").strip()
    if not raw:
        return 1
    try:
        return int(raw)
    except ValueError:
        raise MiddlewareError(
            f"REPRO_SCAN_WORKERS must be an integer, got {raw!r}"
        ) from None


@dataclass(frozen=True)
class MiddlewareConfig:
    """Knobs of the scalable classification middleware."""

    #: Middleware memory budget in simulated bytes (CC tables + staged
    #: in-memory data share this pool).
    memory_bytes: int = 64 * 1024
    #: Allow staging data to middleware files.
    file_staging: bool = True
    #: Allow staging data into middleware memory.
    memory_staging: bool = True
    #: File-split trigger (Section 4.3.2): a file scan whose active
    #: nodes cover a fraction <= this threshold writes fresh per-node
    #: files.  1.0 = a new file per node; 0.0 = one singleton file.
    file_split_threshold: float = 0.5
    #: Cap on total staged-file bytes (None = unlimited local disk).
    file_budget_bytes: int | None = None
    #: Push the batch filter expression into server scans (§4.3.1).
    push_filters: bool = True
    #: Server-access strategy (§4.3.3): one of :data:`AUX_STRATEGIES`.
    aux_strategy: str = "scan"
    #: Relevant-fraction threshold below which the temp-table /
    #: TID-join / keyset strategies build their structure (§4.3.3
    #: observes gains only appear "around 10%").
    aux_build_threshold: float = 0.1
    #: When True, building the auxiliary structure is not charged —
    #: the paper's "idealized situation on the server by neglecting
    #: the cost of creating index structures" (§5.2.5).
    aux_free_build: bool = False
    #: Directory for staging files (None = private temp directory).
    staging_dir: str | None = None
    #: Rows per scan chunk, the unit partitions are sized in: an inline
    #: scan counts ``execution.INLINE_PARTITION_CHUNKS`` chunks per
    #: partition, a pooled one never fewer than one.
    scan_chunk_rows: int = 1024
    #: Workers for scans longer than one partition.  1 (the default,
    #: overridable through ``$REPRO_SCAN_WORKERS``) is the calling
    #: thread alone — no pool, no helper thread: every partition is
    #: counted inline.  >1 counts a source's partitions into private
    #: count arrays in a worker pool and merges them afterwards —
    #: CC tables are additive, so partial counts over disjoint
    #: partitions merge exactly; a source that fits in one
    #: partition has nothing to overlap and is still counted inline.
    scan_workers: int = field(default_factory=_default_scan_workers)
    #: Worker-pool kind for the parallel executor: one of
    #: :data:`SCAN_POOLS`.  "thread" is the low-overhead default;
    #: "process" pays serialization to escape the GIL on CPU-bound
    #: routing workloads.
    scan_pool: str = "thread"
    #: Byte budget of the table-version columnar cache ("encode once,
    #: scan every level"): what a session keeps on top of the server's
    #: one encoding per table version, which every SERVER scan slices
    #: regardless.  It bounds the entries the session admits — for a
    #: SERVER scan whose table will be read again (some node of its
    #: batch is not staged by it), a plain table's entry being the
    #: server's object itself — gathered TID-list / keyset / index
    #: supersets, pooled staged-file encodings and a process pool's
    #: persistent shared-memory segments.  Real process bytes, accounted
    #: from the flat segment layout; LRU-evicted.  A source that cannot
    #: fit — and every source when this is 0 — is counted transiently.
    scan_cache_bytes: int = 128 * 1024 * 1024
    #: Let ``aux_strategy="auto"`` consult the engine's cost-based
    #: access-path planner, adding secondary-index probes to its
    #: candidate set.  False removes the index candidate — the blind
    #: baseline the planner A/B benchmark compares against.  Ignored
    #: by the other (fixed) strategies.
    scan_use_planner: bool = True

    def __post_init__(self) -> None:
        if self.memory_bytes < 0:
            raise MiddlewareError("memory_bytes must be non-negative")
        if not 0.0 <= self.file_split_threshold <= 1.0:
            raise MiddlewareError(
                "file_split_threshold must be within [0, 1]"
            )
        if self.aux_strategy not in AUX_STRATEGIES:
            raise MiddlewareError(
                f"aux_strategy must be one of {AUX_STRATEGIES}"
            )
        if not 0.0 < self.aux_build_threshold <= 1.0:
            raise MiddlewareError(
                "aux_build_threshold must be within (0, 1]"
            )
        if (self.file_budget_bytes is not None
                and self.file_budget_bytes < 0):
            raise MiddlewareError("file_budget_bytes must be non-negative")
        if self.scan_chunk_rows < 1:
            raise MiddlewareError("scan_chunk_rows must be positive")
        if self.scan_workers < 1:
            raise MiddlewareError("scan_workers must be at least 1")
        if self.scan_pool not in SCAN_POOLS:
            raise MiddlewareError(
                f"scan_pool must be one of {SCAN_POOLS}"
            )
        if self.scan_cache_bytes < 0:
            raise MiddlewareError("scan_cache_bytes must be non-negative")

    @classmethod
    def no_staging(cls, memory_bytes: int,
                   **overrides: Any) -> MiddlewareConfig:
        """Staging completely disabled (every scan hits the server)."""
        return cls(
            memory_bytes=memory_bytes,
            file_staging=False,
            memory_staging=False,
            **overrides,
        )

    @classmethod
    def memory_only(cls, memory_bytes: int,
                    **overrides: Any) -> MiddlewareConfig:
        """Only memory caching (no local disk available)."""
        return cls(
            memory_bytes=memory_bytes,
            file_staging=False,
            memory_staging=True,
            **overrides,
        )

    @classmethod
    def file_only(cls, memory_bytes: int, split_threshold: float = 0.5,
                  **overrides: Any) -> MiddlewareConfig:
        """Only file caching (counts memory, no data in memory)."""
        return cls(
            memory_bytes=memory_bytes,
            file_staging=True,
            memory_staging=False,
            file_split_threshold=split_threshold,
            **overrides,
        )
