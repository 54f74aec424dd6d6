"""The scheduling module (paper Section 4.2).

Given the pending request queue, the scheduler decides which active
nodes are serviced by the next scan and what staging the scan should
perform, applying the paper's rules in order:

* **Rule 1** — prefer nodes servable from middleware memory, then from
  a middleware file, then the server.
* **Rule 2** — every node in a batch must share the same staged data
  set (the same in-memory ancestor or the same file); all server-scan
  nodes can share one sequential scan.
* **Rule 3** — among eligible nodes, smallest estimated CC table first,
  admitting nodes while their estimated CC tables fit in memory.
* **Rule 4** — only scheduled nodes' data qualifies for staging.
* **Rule 5** — stage the largest data set that fits.
* **Rule 6** — server→file staging precedes file→memory staging.

Cost-model note for the parallel scan executor: every quantity the
scheduler reasons about — simulated per-row tier costs, CC-size
estimates, memory and file budgets — is independent of how many
workers the execution module spreads a scan across.  Parallelism
changes wall-clock time only; the meter still charges per row on the
coordinator thread, so tier orderings, admission decisions and staging
plans are identical at any ``config.scan_workers`` setting.  The same
independence extends to what the executor arranges for itself — a warm
pool, a resident or transient encoding, partition sizes — which shift
where wall-clock time is spent without moving a single metered charge.
That is deliberate: it keeps plans (and therefore traces and costs)
reproducible across machines with different core counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from ..common.errors import SchedulingError
from .cc_table import bytes_for_pairs
from .staging import DataLocation


@dataclass
class Schedule:
    """One planned scan: its source, batch, and staging actions."""

    mode: DataLocation
    source_node: Any  # staged ancestor id (None for server scans)
    batch: list[Any]  # CountsRequests, in servicing (Rule 3) order
    #: node_id -> bytes reserved up-front for its CC table.
    cc_reservations: dict[Any, int] = field(default_factory=dict)
    #: nodes whose rows this scan writes to new staging files.
    stage_file_targets: list[Any] = field(default_factory=list)
    #: nodes whose rows this scan loads into middleware memory.
    stage_memory_targets: list[Any] = field(default_factory=list)
    #: True when this file scan splits into per-node files (§4.3.2).
    split_file: bool = False

    @property
    def node_ids(self) -> list[Any]:
        return [request.node_id for request in self.batch]

    def __repr__(self) -> str:
        return (
            f"Schedule(mode={self.mode.name}, source={self.source_node!r}, "
            f"batch={len(self.batch)}, stage_file={self.stage_file_targets}, "
            f"stage_mem={self.stage_memory_targets}, split={self.split_file})"
        )


class Scheduler:
    """Plans scans over the request queue (Rules 1–6)."""

    def __init__(self, spec: Any, staging: Any, budget: Any,
                 config: Any) -> None:
        self._spec = spec
        self._staging = staging
        self._budget = budget
        self._config = config

    def plan(self, pending: Sequence[Any]) -> Schedule:
        """Produce the next :class:`Schedule` for ``pending`` requests.

        The staging manager is garbage-collected first, so location
        resolution reflects only data that still serves someone.
        """
        if not pending:
            raise SchedulingError("nothing to schedule")
        self._staging.garbage_collect(pending)

        resolutions = {
            request.node_id: self._staging.resolve(request)
            for request in pending
        }

        mode, source = self._pick_mode_and_source(pending, resolutions)
        eligible = [
            request
            for request in pending
            if resolutions[request.node_id] == (mode, source)
        ]
        batch, reservations = self._admit_by_cc_size(eligible, source)
        schedule = Schedule(mode, source, batch, reservations)
        self._plan_staging(schedule)
        return schedule

    # -- Rules 1 and 2 -----------------------------------------------------

    def _pick_mode_and_source(
        self,
        pending: Sequence[Any],
        resolutions: dict[Any, tuple[DataLocation, Any]],
    ) -> tuple[DataLocation, Any]:
        """Best (mode, source) group present in the queue.

        Rule 1 picks the tier; Rule 2 picks one shared source within
        it.  Among several staged sources of the same tier, the one
        serving the most pending nodes wins (finishing a subtree frees
        its resource fastest); ties break on the source id for
        determinism.
        """
        best_tier = max(location for location, _ in resolutions.values())
        group_sizes: dict[tuple[DataLocation, Any], int] = {}
        for location, source in resolutions.values():
            if location is best_tier:
                key = (location, source)
                group_sizes[key] = group_sizes.get(key, 0) + 1
        (_, source), _ = max(
            group_sizes.items(), key=lambda item: (item[1], str(item[0][1]))
        )
        return best_tier, source

    # -- Rule 3 --------------------------------------------------------------

    def _admit_by_cc_size(
        self, eligible: Sequence[Any], source: Any
    ) -> tuple[list[Any], dict[Any, int]]:
        """Admit nodes smallest-estimated-CC-first while memory lasts.

        The head node is always admitted: if even its estimate cannot
        be reserved, it runs with whatever reservation was possible and
        the execution module's runtime check (Section 4.1.1) handles
        overflow — falling back to SQL-based lazy counting.  Before
        resorting to that for the head node, in-memory data sets other
        than the scan source are evicted (they can be re-staged later;
        unusable CC memory cannot).
        """
        n_classes = self._spec.n_classes
        ordered = sorted(
            eligible,
            key=lambda r: (r.est_cc_pairs, str(r.node_id)),
        )
        batch: list[Any] = []
        reservations: dict[Any, int] = {}
        for request in ordered:
            tag = _cc_tag(request.node_id)
            wanted = bytes_for_pairs(request.est_cc_pairs, n_classes)
            if self._budget.try_reserve(tag, wanted):
                batch.append(request)
                reservations[request.node_id] = wanted
                continue
            if batch:
                break  # Rule 3: later (bigger) nodes wait for the next scan.
            # Head node does not fit: evict foreign memory sets and retry.
            self._staging.evict_memory_except(source)
            if self._budget.try_reserve(tag, wanted):
                batch.append(request)
                reservations[request.node_id] = wanted
                break
            # Still no room: admit with whatever is available.
            partial = self._budget.available
            self._budget.try_reserve(tag, partial)
            batch.append(request)
            reservations[request.node_id] = partial
            break
        return batch, reservations

    # -- Rules 4, 5, 6 ----------------------------------------------------------

    def _plan_staging(self, schedule: Schedule) -> None:
        """Decide staging actions for the scheduled batch.

        Rule 4 restricts candidates to the batch itself; Rule 5 orders
        them by decreasing data size; Rule 6 stages server data to
        files before anything moves to memory (memory staging happens
        on *file* scans, or directly from the server only when file
        staging is disabled).  A file scan additionally decides whether
        to split (Section 4.3.2).
        """
        config = self._config
        staging = self._staging
        candidates = sorted(
            schedule.batch, key=lambda r: (-r.n_rows, str(r.node_id))
        )

        if schedule.mode is DataLocation.SERVER:
            if config.file_staging:
                for request in candidates:
                    if staging.file_space_for(request.n_rows):
                        schedule.stage_file_targets.append(request.node_id)
            elif config.memory_staging:
                self._plan_memory_staging(schedule, candidates)
            return

        if schedule.mode is DataLocation.FILE:
            source_file = staging.file_for(schedule.source_node)
            if source_file.row_count:
                covered = sum(r.n_rows for r in schedule.batch)
                fraction = covered / source_file.row_count
                split = (
                    config.file_staging
                    and fraction <= config.file_split_threshold
                    and schedule.node_ids != [schedule.source_node]
                )
                schedule.split_file = split
            if config.memory_staging:
                self._plan_memory_staging(schedule, candidates)
            return

        # MEMORY scans are already on the best tier; nothing to stage.

    def _plan_memory_staging(self, schedule: Schedule,
                             candidates: Sequence[Any]) -> None:
        """Rule 5 for memory: largest data sets that fit, post-CC."""
        staging = self._staging
        for request in candidates:
            if request.node_id == schedule.source_node:
                continue
            if staging.reserve_memory(request.node_id, request.n_rows):
                schedule.stage_memory_targets.append(request.node_id)


def _cc_tag(node_id: Any) -> str:
    """Budget reservation tag for a node's CC table."""
    return f"cc:{node_id}"
