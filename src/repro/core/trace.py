"""Execution tracing: one structured record per scheduled scan.

The paper explains its system's behaviour through what each scan did
(source tier, batch composition, staging actions).  The middleware
records exactly that, so tests can assert scheduling behaviour and
users can audit why a run cost what it did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .staging import DataLocation


@dataclass
class ScheduleRecord:
    """One scan: what it was asked to do, what it cost, how it ran.

    ``ExecutionModule.run`` builds the record from its schedule, fills
    it while the scan runs and appends it to the session trace once the
    results are final — a failed scan leaves no record, and a §4.1.1
    retry is a *new* scan with its own record.
    """

    sequence: int
    mode: str                 # SERVER / FILE / MEMORY
    source_node: object       # staged ancestor id, None for server scans
    batch: tuple[str, ...]    # node ids serviced, in Rule-3 order
    stage_file_targets: tuple[str, ...]
    stage_memory_targets: tuple[str, ...]
    split_file: bool
    cost: float = 0.0         # simulated cost charged during the scan
    rows_seen: int = 0
    rows_routed: int = 0
    nodes_served: int = 0
    sql_fallbacks: int = 0
    deferrals: int = 0
    files_written: int = 0
    memory_sets_loaded: int = 0
    #: Wall-clock seconds spent producing and routing the scan's rows.
    wall_seconds: float = 0.0
    #: "path" (the routing kernel) or "tag" (memory-set row tags).
    routing: str = "path"
    #: Lookups: dispatch tables x rows (path route), rows (tag route).
    matcher_evals: int = 0
    #: Workers that counted the scan (1 = the calling thread alone, the
    #: inline executor).
    workers: int = 1
    #: Seconds spent folding the partitions' count arrays together.
    merge_seconds: float = 0.0
    #: Per-partition counting seconds as reported by the workers: CPU
    #: time of the counting thread, so waiting for the GIL is not in it.
    worker_seconds: list[float] = field(default_factory=list)
    #: Seconds of pool/kernel setup this scan paid (0.0 on a warm pool
    #: with an unchanged kernel — the reuse win the trace makes visible).
    pool_setup_seconds: float = 0.0
    #: True when the scan reused an already-running worker pool.
    pool_reused: bool = False
    #: Seconds encoding rows into columnar partitions (~0 on a warm
    #: cache hit).
    encode_seconds: float = 0.0
    #: Seconds copying partitions into shared-memory segments (the
    #: memcpy only; 0.0 unless a process pool counted the scan, and
    #: for warm scans served by a persistent segment).
    ship_seconds: float = 0.0
    #: True when the scan counted over an encoding the table-version
    #: columnar cache keeps resident (False = a staged source, or a
    #: SERVER scan whose partitions were encoded and dropped);
    #: ``cache_hit`` says whether the encoding was reused.
    cached: bool = False
    cache_hit: bool = False
    #: What building the hit entry originally cost — the work this
    #: scan skipped (0.0 on misses and uncached scans).
    encode_seconds_saved: float = 0.0
    ship_seconds_saved: float = 0.0
    #: Rows per partition.
    partition_rows: int = 0
    #: Access path the server-side strategy took ("seq" / "index" /
    #: "temp_table" / "tid_join" / "keyset"; "" for non-SERVER scans).
    access_path: str = ""
    #: The strategy's access-cost estimate for that path (0.0 when
    #: no path was recorded).
    access_cost_est: float = 0.0
    #: Nodes whose CC table was derived (their parent's minus their
    #: counted siblings'), in batch order, and the rows they hold.
    derived: tuple[object, ...] = ()
    rows_derived: int = 0

    @property
    def rows_per_sec(self) -> float:
        """Scan throughput (0.0 when the scan was too fast to time)."""
        wall = self.wall_seconds
        return self.rows_seen / wall if wall > 0.0 else 0.0

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
            executor = (
                f"x{self.workers}w" if self.workers > 1 else "inline"
            )
            if self.cached:
                executor += " warm" if self.cache_hit else " cold"
            profile = f" {self.rows_per_sec:,.0f} rows/s ({executor})"
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
    """The ordered :class:`ScheduleRecord` list of one session.

    Its properties are the session totals (``Middleware.stats``): sums
    and counts over the records, computed when read.
    """

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

    def render(self) -> str:
        """Multi-line human-readable trace."""
        return "\n".join(str(record) for record in self.records)

    # -- session totals -------------------------------------------------------

    @property
    def batches(self) -> int:
        return len(self.records)

    @property
    def scans_by_mode(self) -> dict[DataLocation, int]:
        return {loc: len(self.by_mode(loc.name)) for loc in DataLocation}

    @property
    def total_cost(self) -> float:
        return sum(r.cost for r in self.records)

    @property
    def rows_seen(self) -> int:
        return sum(r.rows_seen for r in self.records)

    @property
    def rows_routed(self) -> int:
        return sum(r.rows_routed for r in self.records)

    @property
    def rows_derived(self) -> int:
        return sum(r.rows_derived for r in self.records)

    @property
    def sql_fallbacks(self) -> int:
        return sum(r.sql_fallbacks for r in self.records)

    @property
    def deferrals(self) -> int:
        return sum(r.deferrals for r in self.records)

    @property
    def files_written(self) -> int:
        return sum(r.files_written for r in self.records)

    @property
    def memory_sets_loaded(self) -> int:
        return sum(r.memory_sets_loaded for r in self.records)

    @property
    def wall_seconds(self) -> float:
        return sum(r.wall_seconds for r in self.records)

    @property
    def rows_per_sec(self) -> float:
        """Session-wide scan throughput."""
        wall = self.wall_seconds
        return self.rows_seen / wall if wall > 0.0 else 0.0

    @property
    def matcher_evals(self) -> int:
        return sum(r.matcher_evals for r in self.records)

    @property
    def tag_routed_scans(self) -> int:
        return sum(r.routing == "tag" for r in self.records)

    @property
    def parallel_scans(self) -> int:
        return sum(r.workers > 1 for r in self.records)

    @property
    def merge_seconds(self) -> float:
        return sum(r.merge_seconds for r in self.records)

    @property
    def worker_seconds_total(self) -> float:
        return sum(sum(r.worker_seconds) for r in self.records)

    @property
    def pool_setup_seconds(self) -> float:
        return sum(r.pool_setup_seconds for r in self.records)

    @property
    def cached_scans(self) -> int:
        return sum(r.cached for r in self.records)

    @property
    def encode_seconds_saved(self) -> float:
        return sum(r.encode_seconds_saved for r in self.records)

    @property
    def ship_seconds_saved(self) -> float:
        return sum(r.ship_seconds_saved for r in self.records)

    @property
    def index_path_scans(self) -> int:
        """SERVER scans whose access path was a secondary-index probe."""
        return sum(r.access_path == "index" for r in self.records)
