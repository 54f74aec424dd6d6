"""Execution tracing: one structured record per scheduled scan.

The paper explains its system's behaviour through what each scan did
(source tier, batch composition, staging actions).  The middleware
records exactly that, so tests can assert scheduling behaviour and
users can audit why a run cost what it did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True)
class ScheduleRecord:
    """What one scan was asked to do and what happened."""

    sequence: int
    mode: str                 # SERVER / FILE / MEMORY
    source_node: object       # staged ancestor id, None for server scans
    batch: tuple[str, ...]    # node ids serviced, in Rule-3 order
    stage_file_targets: tuple[str, ...]
    stage_memory_targets: tuple[str, ...]
    split_file: bool
    rows_seen: int
    rows_routed: int
    deferrals: int
    sql_fallbacks: int
    cost: float               # simulated cost charged during the scan
    # -- per-scan profiling (scan-kernel observability layer) --
    #: Wall-clock seconds spent producing and routing the scan's rows.
    wall_seconds: float = 0.0
    #: rows_seen / wall_seconds, 0.0 when the scan was too fast to time.
    rows_per_sec: float = 0.0
    #: Matcher closure calls (per-row loop) or dispatch probes (kernel).
    matcher_evals: int = 0
    #: True when the compiled routing kernel ran this scan.
    kernel: bool = False
    #: Workers that counted the scan (1 = the calling thread alone: a
    #: row loop, or the inline columnar executor when ``columnar``).
    workers: int = 1
    #: Seconds spent merging per-worker CC partials (parallel scans).
    merge_seconds: float = 0.0
    #: Seconds of pool/kernel setup this scan paid (0.0 on a warm pool
    #: with an unchanged kernel — the reuse win the trace makes visible).
    pool_setup_seconds: float = 0.0
    #: SERVER-cursor prefetch depth in effect (0 = no prefetch thread).
    prefetch_depth: int = 0
    #: Per-file staging writer threads used (0 = single pipelined funnel).
    split_writers: int = 0
    #: True when the scan counted over columnar partitions (inline on
    #: the calling thread when ``workers == 1``, else through the pool).
    columnar: bool = False
    #: Seconds encoding rows into columnar partitions (~0 on a warm
    #: cache hit; 0.0 for row-loop or row-tuple scans).
    encode_seconds: float = 0.0
    #: Seconds copying partitions into shared-memory segments (the
    #: memcpy only; 0.0 unless a process pool counted the scan, and
    #: for warm scans served by a persistent segment).
    ship_seconds: float = 0.0
    #: Highest prefetch depth the adaptive producer reached (0 = none).
    prefetch_peak: int = 0
    #: True when the scan counted over the table-version columnar
    #: cache; ``cache_hit`` says whether the encoding was reused.
    cached: bool = False
    cache_hit: bool = False
    #: Access path the server-side strategy took ("seq" / "index" /
    #: "temp_table" / "tid_join" / "keyset"; "" for non-SERVER scans).
    access_path: str = ""
    #: The strategy's access-cost estimate for that path (0.0 when
    #: no path was recorded).
    access_cost_est: float = 0.0

    def __str__(self) -> str:
        actions = []
        if self.stage_file_targets:
            actions.append(f"stage->file{list(self.stage_file_targets)}")
        if self.stage_memory_targets:
            actions.append(f"stage->mem{list(self.stage_memory_targets)}")
        if self.split_file:
            actions.append("split")
        if self.deferrals:
            actions.append(f"deferred={self.deferrals}")
        if self.sql_fallbacks:
            actions.append(f"sql_fallback={self.sql_fallbacks}")
        suffix = f" [{', '.join(actions)}]" if actions else ""
        profile = ""
        if self.wall_seconds > 0.0:
            # columnar = the vector kernel, inline unless " xNw" follows;
            # kernel / per-row = the two row loops.
            loop = (
                "columnar" if self.columnar
                else "kernel" if self.kernel else "per-row"
            )
            if self.workers > 1:
                loop += f" x{self.workers}w"
            if self.cached:
                loop += " warm" if self.cache_hit else " cold"
            profile = f" {self.rows_per_sec:,.0f} rows/s ({loop})"
        path = f" via={self.access_path}" if self.access_path else ""
        return (
            f"#{self.sequence} {self.mode}"
            f"{f'({self.source_node})' if self.source_node is not None else ''}"
            f"{path}"
            f" batch={len(self.batch)} rows={self.rows_seen}"
            f" cost={self.cost:.1f}{profile}{suffix}"
        )


@dataclass
class ExecutionTrace:
    """The ordered sequence of :class:`ScheduleRecord` for one session."""

    records: list[ScheduleRecord] = field(default_factory=list)

    def add(self, record: ScheduleRecord) -> None:
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[ScheduleRecord]:
        return iter(self.records)

    def __getitem__(self, index: int) -> ScheduleRecord:
        return self.records[index]

    def by_mode(self, mode_name: str) -> list[ScheduleRecord]:
        """Records whose scan ran in the given tier."""
        return [r for r in self.records if r.mode == mode_name]

    @property
    def total_cost(self) -> float:
        return sum(r.cost for r in self.records)

    def render(self) -> str:
        """Multi-line human-readable trace."""
        return "\n".join(str(record) for record in self.records)
