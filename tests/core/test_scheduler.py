"""Unit tests for the scheduling rules (§4.2.2–4.2.3)."""

import pytest

from repro.common.cost import CostMeter, CostModel
from repro.common.errors import SchedulingError
from repro.common.memory import MemoryBudget
from repro.core.cc_table import bytes_for_pairs
from repro.core.config import MiddlewareConfig
from repro.core.filters import PathCondition
from repro.core.requests import CountsRequest
from repro.core.scheduler import Scheduler
from repro.core.staging import DataLocation, StagingManager
from repro.datagen.dataset import DatasetSpec

from ..conftest import pieces

SPEC = DatasetSpec([3, 3, 3], 4)  # 4 classes -> 24 bytes per CC pair


def make_request(node_id, lineage, n_rows=10, est_cc_pairs=4):
    conditions = tuple(
        PathCondition("A1", "=", 0) for _ in range(len(lineage) - 1)
    )
    return CountsRequest(
        node_id=node_id,
        lineage=lineage,
        conditions=conditions[:1],
        attributes=("A1", "A2", "A3"),
        n_rows=n_rows,
        est_cc_pairs=est_cc_pairs,
    )


def make_scheduler(tmp_path, memory_bytes=100_000, **config_overrides):
    budget = MemoryBudget(memory_bytes)
    config = MiddlewareConfig(
        memory_bytes=memory_bytes, staging_dir=str(tmp_path),
        **config_overrides,
    )
    staging = StagingManager(
        SPEC,
        CostMeter(),
        CostModel(),
        budget,
        staging_dir=str(tmp_path),
        file_budget_bytes=config.file_budget_bytes,
    )
    return Scheduler(SPEC, staging, budget, config), staging, budget


class TestRule1ModePreference:
    def test_server_when_nothing_staged(self, tmp_path):
        scheduler, _, _ = make_scheduler(tmp_path)
        schedule = scheduler.plan([make_request(0, (0,))])
        assert schedule.mode is DataLocation.SERVER
        assert schedule.source_node is None

    def test_file_preferred_over_server(self, tmp_path):
        scheduler, staging, _ = make_scheduler(tmp_path)
        staging.open_file(1).seal()
        pending = [
            make_request(3, (0, 1, 3)),   # resolvable from file
            make_request(4, (0, 2, 4)),   # server only
        ]
        schedule = scheduler.plan(pending)
        assert schedule.mode is DataLocation.FILE
        assert schedule.source_node == 1
        assert schedule.node_ids == [3]

    def test_memory_preferred_over_file(self, tmp_path):
        scheduler, staging, _ = make_scheduler(tmp_path)
        staging.open_file(1).seal()
        staging.reserve_memory(2, 1)
        staging.commit_memory(2, pieces([(0, 0, 0)]))
        pending = [
            make_request(3, (0, 1, 3)),
            make_request(5, (0, 2, 5)),
        ]
        schedule = scheduler.plan(pending)
        assert schedule.mode is DataLocation.MEMORY
        assert schedule.source_node == 2
        assert schedule.node_ids == [5]


class TestRule2SharedSource:
    def test_batch_shares_one_file(self, tmp_path):
        scheduler, staging, _ = make_scheduler(tmp_path)
        staging.open_file(1).seal()
        staging.open_file(2).seal()
        pending = [
            make_request(3, (0, 1, 3)),
            make_request(4, (0, 1, 4)),
            make_request(5, (0, 2, 5)),
        ]
        schedule = scheduler.plan(pending)
        # The file serving more nodes wins; all batch members share it.
        assert schedule.source_node == 1
        assert sorted(schedule.node_ids) == [3, 4]

    def test_all_server_nodes_share_one_scan(self, tmp_path):
        scheduler, _, _ = make_scheduler(tmp_path)
        pending = [make_request(i, (0, i)) for i in range(1, 6)]
        schedule = scheduler.plan(pending)
        assert len(schedule.batch) == 5


class TestRule3CCOrdering:
    def test_smallest_estimated_cc_first(self, tmp_path):
        scheduler, _, _ = make_scheduler(tmp_path)
        pending = [
            make_request(1, (0, 1), est_cc_pairs=50),
            make_request(2, (0, 2), est_cc_pairs=5),
            make_request(3, (0, 3), est_cc_pairs=20),
        ]
        schedule = scheduler.plan(pending)
        assert schedule.node_ids == [2, 3, 1]

    def test_admission_stops_at_memory_limit(self, tmp_path):
        pair_bytes = bytes_for_pairs(1, SPEC.n_classes)
        scheduler, _, budget = make_scheduler(
            tmp_path, memory_bytes=pair_bytes * 25
        )
        pending = [
            make_request(1, (0, 1), est_cc_pairs=10),
            make_request(2, (0, 2), est_cc_pairs=10),
            make_request(3, (0, 3), est_cc_pairs=10),
        ]
        schedule = scheduler.plan(pending)
        assert len(schedule.batch) == 2
        assert budget.used == 20 * pair_bytes

    def test_head_node_admitted_even_if_too_big(self, tmp_path):
        pair_bytes = bytes_for_pairs(1, SPEC.n_classes)
        scheduler, _, budget = make_scheduler(
            tmp_path, memory_bytes=pair_bytes * 3
        )
        pending = [make_request(1, (0, 1), est_cc_pairs=100)]
        schedule = scheduler.plan(pending)
        assert schedule.node_ids == [1]
        # Partial reservation: whatever was available.
        assert schedule.cc_reservations[1] == budget.budget

    def test_head_node_evicts_foreign_memory_sets(self, tmp_path):
        pair_bytes = bytes_for_pairs(1, SPEC.n_classes)
        scheduler, staging, budget = make_scheduler(
            tmp_path, memory_bytes=pair_bytes * 10 + SPEC.row_bytes * 4
        )
        # A finished subtree's data lingers in memory (no pending
        # descendants would normally GC it, but simulate the race by
        # staging under a node that IS an ancestor of a pending one).
        staging.reserve_memory(9, 4)
        staging.commit_memory(9, pieces([(0, 0, 0)] * 4))
        pending = [
            make_request(3, (0, 9, 3), est_cc_pairs=11),
        ]
        schedule = scheduler.plan(pending)
        # Node 3 resolves to memory source 9; eviction must not evict
        # the scan source itself, so the reservation stays partial...
        assert schedule.mode is DataLocation.MEMORY
        assert schedule.node_ids == [3]

    def test_empty_queue_rejected(self, tmp_path):
        scheduler, _, _ = make_scheduler(tmp_path)
        with pytest.raises(SchedulingError):
            scheduler.plan([])


class TestStagingPlans:
    def test_server_scan_stages_to_files(self, tmp_path):
        scheduler, _, _ = make_scheduler(tmp_path)
        pending = [make_request(0, (0,), n_rows=100)]
        schedule = scheduler.plan(pending)
        assert schedule.stage_file_targets == [0]
        assert schedule.stage_memory_targets == []

    def test_server_scan_stages_to_memory_when_files_disabled(self, tmp_path):
        scheduler, _, budget = make_scheduler(
            tmp_path, file_staging=False, memory_staging=True
        )
        pending = [make_request(0, (0,), n_rows=10)]
        schedule = scheduler.plan(pending)
        assert schedule.stage_file_targets == []
        assert schedule.stage_memory_targets == [0]
        assert budget.holds("data:0")

    def test_no_staging_config_stages_nothing(self, tmp_path):
        scheduler, _, _ = make_scheduler(
            tmp_path, file_staging=False, memory_staging=False
        )
        schedule = scheduler.plan([make_request(0, (0,), n_rows=10)])
        assert schedule.stage_file_targets == []
        assert schedule.stage_memory_targets == []

    def test_memory_staging_respects_budget(self, tmp_path):
        scheduler, _, _ = make_scheduler(
            tmp_path,
            memory_bytes=bytes_for_pairs(8, 4) + SPEC.row_bytes * 12,
            file_staging=False,
            memory_staging=True,
        )
        pending = [
            make_request(1, (0, 1), n_rows=10, est_cc_pairs=4),
            make_request(2, (0, 2), n_rows=8, est_cc_pairs=4),
        ]
        schedule = scheduler.plan(pending)
        # Rule 5: the largest data set that fits is staged; the second
        # no longer fits.
        assert schedule.stage_memory_targets == [1]

    def test_file_budget_limits_file_staging(self, tmp_path):
        scheduler, _, _ = make_scheduler(
            tmp_path, file_budget_bytes=SPEC.row_bytes * 5
        )
        pending = [make_request(0, (0,), n_rows=100)]
        schedule = scheduler.plan(pending)
        assert schedule.stage_file_targets == []


class TestFileSplitDecision:
    def load_file(self, staging, node_id, n_rows):
        staged = staging.open_file(node_id)
        for _ in range(n_rows):
            staged.append((0, 0, 0, 0))
        staged.seal()

    def test_split_when_fraction_below_threshold(self, tmp_path):
        scheduler, staging, _ = make_scheduler(
            tmp_path, file_split_threshold=0.5
        )
        self.load_file(staging, 1, 100)
        pending = [make_request(3, (0, 1, 3), n_rows=30)]
        schedule = scheduler.plan(pending)
        assert schedule.split_file

    def test_no_split_above_threshold(self, tmp_path):
        scheduler, staging, _ = make_scheduler(
            tmp_path, file_split_threshold=0.5
        )
        self.load_file(staging, 1, 100)
        pending = [
            make_request(3, (0, 1, 3), n_rows=40),
            make_request(4, (0, 1, 4), n_rows=40),
        ]
        schedule = scheduler.plan(pending)
        assert not schedule.split_file

    def test_threshold_zero_never_splits(self, tmp_path):
        scheduler, staging, _ = make_scheduler(
            tmp_path, file_split_threshold=0.0
        )
        self.load_file(staging, 1, 100)
        pending = [make_request(3, (0, 1, 3), n_rows=1)]
        schedule = scheduler.plan(pending)
        assert not schedule.split_file

    def test_threshold_one_always_splits(self, tmp_path):
        scheduler, staging, _ = make_scheduler(
            tmp_path, file_split_threshold=1.0
        )
        self.load_file(staging, 1, 100)
        pending = [
            make_request(3, (0, 1, 3), n_rows=60),
            make_request(4, (0, 1, 4), n_rows=40),
        ]
        schedule = scheduler.plan(pending)
        assert schedule.split_file

    def test_memory_staging_planned_on_file_scans(self, tmp_path):
        scheduler, staging, _ = make_scheduler(
            tmp_path, memory_staging=True
        )
        self.load_file(staging, 1, 100)
        pending = [make_request(3, (0, 1, 3), n_rows=30)]
        schedule = scheduler.plan(pending)
        assert schedule.stage_memory_targets == [3]


class TestGarbageCollectionIntegration:
    def test_plan_drops_stale_staging(self, tmp_path):
        scheduler, staging, _ = make_scheduler(tmp_path)
        staging.open_file(8).seal()
        pending = [make_request(3, (0, 1, 3))]
        schedule = scheduler.plan(pending)
        assert staging.file_nodes() == []
        assert schedule.mode is DataLocation.SERVER
