"""Property-based tests of the scheduler's rule invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.cost import CostMeter, CostModel
from repro.common.memory import MemoryBudget
from repro.core.cc_table import bytes_for_pairs
from repro.core.config import MiddlewareConfig
from repro.core.filters import PathCondition
from repro.core.requests import CountsRequest
from repro.core.scheduler import Scheduler
from repro.core.staging import DataLocation, StagingManager
from repro.datagen.dataset import DatasetSpec

from ..conftest import pieces

SPEC = DatasetSpec([3, 3], 3)


def make_request(node_id, lineage, n_rows, est_cc_pairs):
    return CountsRequest(
        node_id=node_id,
        lineage=lineage,
        conditions=(PathCondition("A1", "=", 0),) if len(lineage) > 1 else (),
        attributes=("A1", "A2"),
        n_rows=n_rows,
        est_cc_pairs=est_cc_pairs,
    )


# A request pool: node ids 1..N, each a child of the root (0) or of a
# staged subtree root (100 / 200).
request_specs = st.lists(
    st.tuples(
        st.sampled_from([(0,), (0, 100), (0, 200)]),  # parent lineage
        st.integers(min_value=1, max_value=500),       # n_rows
        st.integers(min_value=1, max_value=40),        # est pairs
    ),
    min_size=1,
    max_size=12,
)

memory_sizes = st.integers(min_value=0, max_value=5_000)
staged_subsets = st.sets(st.sampled_from([100, 200]))


def build_world(tmp_request_specs, memory_bytes, staged_files,
                staged_memory, staging_dir):
    budget = MemoryBudget(memory_bytes)
    staging = StagingManager(
        SPEC, CostMeter(), CostModel(), budget, staging_dir=staging_dir
    )
    for node in staged_files:
        staging.open_file(node).seal()
    for node in staged_memory:
        if staging.reserve_memory(node, 1):
            staging.commit_memory(node, pieces([(0, 0, 0)]))
    config = MiddlewareConfig(memory_bytes=memory_bytes)
    scheduler = Scheduler(SPEC, staging, budget, config)

    pending = []
    for i, (parent_lineage, n_rows, est_pairs) in enumerate(
        tmp_request_specs, start=1
    ):
        lineage = parent_lineage + (i,)
        pending.append(make_request(i, lineage, n_rows, est_pairs))
    return scheduler, staging, budget, pending


class TestSchedulerInvariants:
    @given(
        specs=request_specs,
        memory_bytes=memory_sizes,
        staged_files=staged_subsets,
        staged_memory=staged_subsets,
    )
    @settings(max_examples=120, deadline=None)
    def test_rules_hold_for_any_queue(self, specs, memory_bytes,
                                      staged_files, staged_memory):
        import tempfile

        with tempfile.TemporaryDirectory() as staging_dir:
            scheduler, staging, budget, pending = build_world(
                specs, memory_bytes, staged_files, staged_memory,
                staging_dir
            )
            schedule = scheduler.plan(pending)

            # A schedule always services at least one request.
            assert schedule.batch

            # Rule 1: no pending request resolves to a strictly better
            # tier than the one chosen.
            best = max(
                staging.resolve(r)[0] for r in pending
            )
            assert schedule.mode == best

            # Rule 2: every batch member resolves to the schedule's
            # (mode, source).
            for request in schedule.batch:
                assert staging.resolve(request) == (
                    schedule.mode, schedule.source_node
                )

            # Rule 3: the batch is ordered by non-decreasing estimate.
            estimates = [r.est_cc_pairs for r in schedule.batch]
            assert estimates == sorted(estimates)

            # Reservations never exceed the budget, and each admitted
            # node's reservation is at most its estimate's cost.
            assert budget.used <= budget.budget
            for request in schedule.batch:
                reserved = schedule.cc_reservations.get(request.node_id, 0)
                assert reserved <= bytes_for_pairs(
                    request.est_cc_pairs, SPEC.n_classes
                )

            # Rule 4: staging targets come from the batch only.
            batch_ids = set(schedule.node_ids)
            assert set(schedule.stage_file_targets) <= batch_ids
            assert set(schedule.stage_memory_targets) <= batch_ids

            # Rule 6: a server scan never stages directly to memory
            # while file staging is enabled.
            if (schedule.mode is DataLocation.SERVER
                    and scheduler._config.file_staging):
                assert schedule.stage_memory_targets == []

            staging.close()

    @given(specs=request_specs, memory_bytes=memory_sizes)
    @settings(max_examples=60, deadline=None)
    def test_repeated_planning_drains_the_queue(self, specs, memory_bytes):
        import tempfile

        with tempfile.TemporaryDirectory() as staging_dir:
            scheduler, staging, budget, pending = build_world(
                specs, memory_bytes, set(), set(), staging_dir
            )
            remaining = list(pending)
            rounds = 0
            while remaining:
                rounds += 1
                assert rounds <= len(pending) + 1  # progress guarantee
                schedule = scheduler.plan(remaining)
                served = set(schedule.node_ids)
                assert served
                remaining = [
                    r for r in remaining if r.node_id not in served
                ]
                # Release what execution would release.
                for node_id in served:
                    budget.release(f"cc:{node_id}")
                for node_id in schedule.stage_memory_targets:
                    staging.cancel_memory_reservation(node_id)
                for node_id in schedule.stage_file_targets:
                    staging.abandon_file(node_id)
            staging.close()
