"""Unit tests for the pooled scan executors.

A worker pool must be a pure wall-clock optimisation of the one scan
loop (`ExecutionModule._count_partitioned`): for any worker count and
pool kind it has to produce the same CC tables, the same staged files
(bit-identical), the same memory captures, the same overflow
recoveries, the same meter charges and the same fitted trees as the
inline executor — and the CC tables of the per-row oracle.  These
tests use tiny data sets with 4-row scan chunks, so every source is
several partitions long and several workers genuinely share each scan.
"""

import dataclasses
import threading

import pytest

from repro.client.baselines import build_cc_from_rows
from repro.client.decision_tree import DecisionTreeClassifier
from repro.common.errors import MiddlewareError
from repro.core.config import MiddlewareConfig
from repro.core.filters import PathCondition
from repro.core.middleware import Middleware
from repro.core.requests import CountsRequest
from repro.core.staging import DataLocation
from repro.core.trace import ExecutionTrace
from repro.datagen.dataset import DatasetSpec
from repro.datagen.loader import load_dataset
from repro.datagen.random_tree import RandomTreeConfig, build_random_tree
from repro.sqlengine.database import SQLServer

from ..conftest import tree_signature

SPEC = DatasetSpec([3, 3], 3)

#: Scan chunks of 2 rows cut the 27-row data set into several
#: partitions at every worker count under test: 16-row ones inline
#: (8 chunks), at most 7-row ones behind a pool.
PARALLEL = {"scan_chunk_rows": 2}


def dataset_rows():
    rows = []
    label = 0
    for a1 in range(3):
        for a2 in range(3):
            for _ in range(a1 + a2 + 1):
                rows.append((a1, a2, label % 3))
                label += 1
    return rows


def make_server(rows):
    server = SQLServer()
    load_dataset(server, "data", SPEC, rows)
    return server


def root_request(rows):
    return CountsRequest(
        node_id="root",
        lineage=("root",),
        conditions=(),
        attributes=("A1", "A2"),
        n_rows=len(rows),
        est_cc_pairs=6,
    )


def child_request(node_id, value, rows, est_cc_pairs=3):
    subset = [r for r in rows if r[0] == value]
    return CountsRequest(
        node_id=node_id,
        lineage=("root", node_id),
        conditions=(PathCondition("A1", "=", value),),
        attributes=("A2",),
        n_rows=len(subset),
        est_cc_pairs=est_cc_pairs,
    )


def frontier_results(**config_overrides):
    rows = dataset_rows()
    server = make_server(rows)
    config_overrides.setdefault("memory_bytes", 100_000)
    with Middleware(
        server, "data", SPEC, MiddlewareConfig(**config_overrides)
    ) as mw:
        for value in range(3):
            mw.queue_request(child_request(f"n{value}", value, rows))
        results = {}
        while mw.pending:
            for result in mw.process_next_batch():
                results[result.node_id] = result
        return results, mw.trace, server.meter.total


class TestParallelEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_frontier_counts_identical_to_serial(self, workers):
        parallel, _, _ = frontier_results(scan_workers=workers, **PARALLEL)
        rows = dataset_rows()
        for value in range(3):
            subset = [r for r in rows if r[0] == value]
            reference = build_cc_from_rows(subset, SPEC, ("A2",))
            assert parallel[f"n{value}"].cc == reference
            assert not parallel[f"n{value}"].used_sql_fallback

    def test_process_pool_counts_identical(self):
        results, _, _ = frontier_results(
            scan_workers=2, scan_pool="process", **PARALLEL
        )
        rows = dataset_rows()
        for value in range(3):
            subset = [r for r in rows if r[0] == value]
            assert results[f"n{value}"].cc == build_cc_from_rows(
                subset, SPEC, ("A2",)
            )

    def test_meter_charges_identical_to_inline(self):
        # Simulated costs accrue on the coordinator thread, so the
        # scheduler sees identical economics at any worker count and
        # partition size.
        _, _, whole_cost = frontier_results(scan_workers=1)
        _, _, inline_cost = frontier_results(scan_workers=1, **PARALLEL)
        _, _, parallel_cost = frontier_results(scan_workers=4, **PARALLEL)
        assert inline_cost == pytest.approx(whole_cost)
        assert parallel_cost == pytest.approx(whole_cost)

    def _staged_root_bytes(self, workers, **overrides):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000,
            memory_staging=False,
            **{**PARALLEL, "scan_workers": workers, **overrides},
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            staged = mw.staging.file_for("root")
            assert list(staged.scan()) == rows
            with open(staged.path, "rb") as handle:
                return handle.read()

    def test_staged_file_bit_identical_to_one_partition(self):
        whole = self._staged_root_bytes(1, scan_chunk_rows=1024)
        for workers in (1, 2, 4):
            assert self._staged_root_bytes(workers) == whole

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_memory_capture_identical_to_serial(self, workers):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000,
            file_staging=False,
            scan_workers=workers,
            **PARALLEL,
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            assert mw.staging.memory_rows("root") == rows

    def test_full_fit_grows_identical_tree(self):
        generating = build_random_tree(
            RandomTreeConfig(
                n_attributes=6,
                values_per_attribute=3,
                n_classes=3,
                n_leaves=8,
                cases_per_leaf=12,
                seed=17,
            )
        )
        trees = {}
        for workers in (1, 4):
            server = SQLServer()
            load_dataset(
                server, "data", generating.spec, generating.materialize()
            )
            config = MiddlewareConfig(
                memory_bytes=50_000, scan_workers=workers, **PARALLEL
            )
            with Middleware(server, "data", generating.spec, config) as mw:
                classifier = DecisionTreeClassifier()
                classifier.fit(mw)
                trees[workers] = classifier.tree
        assert tree_signature(trees[1].root) == tree_signature(
            trees[4].root
        )


class TestStaticPartitionRule:
    """A pooled scan's partitions are cut by one rule of the input —
    ``max(scan_chunk_rows, ceil(source_rows / (2 x workers)))`` — so a
    fit's schedule repeats on every run, whatever the workers' timings
    were."""

    #: 680-row sources: two workers cut them at 170 rows, four at the
    #: one-chunk floor, so both terms of the rule are exercised.
    CHUNK_ROWS = 100
    #: source -> the staging plan whose scans (after the root's SERVER
    #: scan) read it.
    PLANS = {
        "SERVER": {"file_staging": False, "memory_staging": False},
        "FILE": {"memory_staging": False},
        "MEMORY": {"file_staging": False},
    }

    def fit_scans(self, kind, workers, source):
        """``(record, source_rows)`` of every scan of one whole fit."""
        generating = build_random_tree(
            RandomTreeConfig(
                n_attributes=6,
                values_per_attribute=3,
                n_classes=3,
                n_leaves=16,
                cases_per_leaf=40,
                seed=5,
            )
        )
        server = SQLServer()
        load_dataset(server, "data", generating.spec, generating.materialize())
        config = MiddlewareConfig(
            memory_bytes=500_000, scan_workers=workers, scan_pool=kind,
            scan_chunk_rows=self.CHUNK_ROWS, **self.PLANS[source],
        )
        with Middleware(server, "data", generating.spec, config) as mw:
            execution = mw.execution
            measure, source_rows = execution._source_rows, []

            def recorded(schedule):
                source_rows.append(measure(schedule))
                return source_rows[-1]

            execution._source_rows = recorded
            DecisionTreeClassifier().fit(mw)
            assert len(source_rows) == len(mw.trace)
            return list(zip(mw.trace, source_rows))

    @pytest.mark.parametrize("source", list(PLANS))
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_partition_rows_follow_the_source(self, kind, workers, source):
        scans = self.fit_scans(kind, workers, source)
        pooled = [(record, rows) for record, rows in scans
                  if record.workers > 1]
        assert any(record.mode == source for record, _ in pooled)
        for record, rows in pooled:
            assert record.workers == workers
            assert record.partition_rows == max(
                self.CHUNK_ROWS, -(-rows // (2 * workers))
            )
            if rows > record.partition_rows:
                assert len(record.worker_seconds) >= 2
        again = self.fit_scans(kind, workers, source)
        assert [record.partition_rows for record, _ in again] == [
            record.partition_rows for record, _ in scans
        ]


class TestParallelOverflow:
    """§4.1.1 recovery must not depend on the worker count."""

    def overflow_results(self, workers, **overrides):
        rows = dataset_rows()
        server = make_server(rows)
        # Underestimates (1 pair each) admit all three nodes at once,
        # but the budget cannot hold their real CC tables.
        config = MiddlewareConfig(
            memory_bytes=100,
            file_staging=False,
            memory_staging=False,
            **{**PARALLEL, "scan_workers": workers, **overrides},
        )
        requests = [
            child_request(f"n{value}", value, rows, est_cc_pairs=1)
            for value in range(3)
        ]
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_requests(requests)
            outcomes = []
            results = {}
            while mw.pending:
                for result in mw.process_next_batch():
                    results[result.node_id] = result
                scan = mw.trace[-1]
                outcomes.append(
                    (scan.deferrals, scan.sql_fallbacks, scan.nodes_served)
                )
            stats = (mw.stats.deferrals, mw.stats.sql_fallbacks,
                     mw.stats.batches)
        self.corrected_estimates = {
            request.node_id: request.est_cc_pairs for request in requests
        }
        return results, outcomes, stats

    def test_recovery_deterministic_across_worker_counts(self):
        # Per-scan recovery decisions depend only on the merged sizes,
        # so every worker count — the inline executor's one included,
        # at any partition size — takes the identical path.
        whole_results, whole_outcomes, whole_stats = self.overflow_results(
            1, scan_chunk_rows=1024
        )
        assert whole_stats[0] >= 1  # the scenario really overflows
        reference_results, reference_outcomes, reference_stats = \
            self.overflow_results(2)
        assert reference_outcomes == whole_outcomes
        assert reference_stats == whole_stats
        reference_estimates = self.corrected_estimates
        assert max(reference_estimates.values()) > 1  # someone deferred
        inline_results, inline_outcomes, inline_stats = \
            self.overflow_results(1)
        assert inline_outcomes == reference_outcomes
        assert inline_stats == reference_stats
        assert self.corrected_estimates == reference_estimates
        rows = dataset_rows()
        references = {
            f"n{value}": build_cc_from_rows(
                [r for r in rows if r[0] == value], SPEC, ("A2",)
            )
            for value in range(3)
        }
        for workers in (4, 8):
            results, outcomes, stats = self.overflow_results(workers)
            assert outcomes == reference_outcomes
            assert stats == reference_stats
            for node_id, reference in references.items():
                assert results[node_id].cc == reference
        for node_id, reference in references.items():
            assert whole_results[node_id].cc == reference
            assert reference_results[node_id].cc == reference
            assert inline_results[node_id].cc == reference

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_solo_overflow_falls_back_to_sql(self, workers):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=8,
            file_staging=False,
            memory_staging=False,
            scan_workers=workers,
            **PARALLEL,
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            (result,) = mw.process_next_batch()
            assert mw.stats.deferrals == 0
        assert result.used_sql_fallback
        assert result.cc == build_cc_from_rows(rows, SPEC, ("A1", "A2"))


class TestParallelProfiling:
    def test_trace_records_worker_profile(self):
        _, trace, _ = frontier_results(scan_workers=2, **PARALLEL)
        record = trace[0]
        assert record.workers == 2
        assert record.merge_seconds >= 0.0
        assert "x2w" in str(record)

    def test_trace_names_the_executor_that_ran(self):
        executors = {
            "(x2w": {"scan_workers": 2},
            "(inline)": {"scan_workers": 1},
        }
        for rendered, overrides in executors.items():
            _, trace, _ = frontier_results(**{**PARALLEL, **overrides})
            assert rendered in str(trace[0]), (rendered, str(trace[0]))

    def test_stats_count_parallel_scans(self):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000, scan_workers=2, **PARALLEL
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            scan = mw.trace[-1]
            assert scan.workers == 2
            assert len(scan.worker_seconds) >= 2  # several partitions ran
            assert mw.stats.parallel_scans == 1
            report = mw.report()
        assert "executor: 2 thread workers, 1 pooled scans, " in report

    def test_report_names_the_inline_executor(self):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000, scan_workers=1, **PARALLEL
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            report = mw.report()
        # One worker has no pool to describe: the executor line must
        # agree with the "scan pool:" line two below it.
        assert "executor: inline, 0 pooled scans, " in report
        assert "workers=1, inline" in report


class TestExecutorRule:
    """The executor follows the sources, not an option: one partition
    has nothing to overlap, so no pool is started for it."""

    def test_one_partition_sources_never_start_the_pool(self):
        # 27 rows fit one default-size partition at any worker count.
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(memory_bytes=100_000, scan_workers=2)
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()  # SERVER, stages the root
            for value in range(3):
                mw.queue_request(child_request(f"n{value}", value, rows))
            while mw.pending:
                for result in mw.process_next_batch():  # staged tiers
                    subset = [r for r in rows if r[0] == int(result.node_id[1])]
                    assert result.cc == build_cc_from_rows(
                        subset, SPEC, ("A2",)
                    )
            assert len({record.mode for record in mw.trace}) >= 2
            for record in mw.trace:
                assert record.workers == 1
                assert len(record.worker_seconds) == 1  # one partition
                assert not record.cached
                assert "(inline)" in str(record)
            assert mw.stats.parallel_scans == 0
            pool = mw.scan_pool
            assert pool is not None and pool.n_workers == 2
            assert not pool.active and pool.pools_created == 0

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_one_longer_source_creates_exactly_one_executor(self, kind):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig.no_staging(
            100_000, scan_workers=2, scan_pool=kind, scan_chunk_rows=8,
        )
        with Middleware(server, "data", SPEC, config) as mw:
            def count_n0():
                mw.queue_request(child_request("n0", 0, rows))
                (result,) = mw.process_next_batch()
                subset = [r for r in rows if r[0] == 0]
                assert result.cc == build_cc_from_rows(
                    subset, SPEC, ("A2",)
                )
                return mw.trace[-1]

            # n0 has 6 rows: one 8-row partition, counted inline.
            assert count_n0().workers == 1
            pool = mw.scan_pool
            assert not pool.active and pool.pools_created == 0
            # The root's 27 rows are four partitions: the pool starts.
            mw.queue_request(root_request(rows))
            (result,) = mw.process_next_batch()
            assert result.cc == build_cc_from_rows(rows, SPEC, ("A1", "A2"))
            assert mw.trace[-1].workers == 2
            assert len(mw.trace[-1].worker_seconds) >= 2
            assert pool.active and pool.pools_created == 1
            # Once up, the workers take every scan of the session —
            # the coordinator no longer counts — and no second
            # executor is ever built.
            assert count_n0().workers == 2
            assert mw.scan_pool is pool
            assert pool.active and pool.pools_created == 1
            assert mw.stats.parallel_scans == 2


class TestParallelConfig:
    def test_scan_knob_budget(self):
        # Each independent scan_* field doubles what the equivalence
        # suites have to cover; the count may only ratchet down.
        knobs = [
            field.name for field in dataclasses.fields(MiddlewareConfig)
            if field.name.startswith("scan_")
        ]
        assert len(knobs) <= 5, knobs

    def test_zero_workers_rejected(self):
        with pytest.raises(MiddlewareError):
            MiddlewareConfig(scan_workers=0)

    def test_unknown_pool_rejected(self):
        with pytest.raises(MiddlewareError):
            MiddlewareConfig(scan_pool="fiber")

    def test_env_var_sets_default_workers(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCAN_WORKERS", "3")
        assert MiddlewareConfig().scan_workers == 3
        # An explicit value still wins over the environment.
        assert MiddlewareConfig(scan_workers=2).scan_workers == 2

    def test_env_var_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCAN_WORKERS", "many")
        with pytest.raises(MiddlewareError):
            MiddlewareConfig()


class TestTransientServerScan:
    """A SERVER scan the cache may not keep (here: a zero budget) is
    counted over slices of the server's encoding it does not keep — on
    a pool and inline alike, and only where the time is spent may
    differ."""

    def test_counts_and_costs_identical_on_pool_and_inline(self):
        results, trace, cost = frontier_results(
            scan_workers=2, scan_cache_bytes=0, **PARALLEL
        )
        reference, reference_trace, reference_cost = frontier_results(
            scan_workers=1, scan_cache_bytes=0, **PARALLEL
        )
        rows = dataset_rows()
        for value in range(3):
            subset = [r for r in rows if r[0] == value]
            assert results[f"n{value}"].cc == build_cc_from_rows(
                subset, SPEC, ("A2",)
            )
        # The meter is charged from the plan by the coordinator —
        # pages at open, transfer for the rows the keep-masks kept —
        # so it cannot tell a pool from the inline executor.
        assert cost == pytest.approx(reference_cost)
        assert trace[0].workers == 2 and reference_trace[0].workers == 1
        assert not trace[0].cached and not reference_trace[0].cached
        assert trace[0].rows_seen == reference_trace[0].rows_seen

    def test_a_transient_scan_keeps_nothing_and_starts_no_helper(self):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000,
            file_staging=False,
            scan_workers=2,
            scan_cache_bytes=0,
            **PARALLEL,
        )
        before = {thread.ident for thread in threading.enumerate()}
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()  # SERVER scan, stages root to memory
            record = mw.trace[-1]
            assert record.mode == "SERVER" and record.workers == 2
            assert not record.cached and not record.cache_hit
            assert len(record.worker_seconds) > 1
            # The session keeps nothing (it has no cache); the scan
            # counted the server's one encoding of the table version,
            # and the only threads it left running are the pool's
            # workers.
            assert mw.execution.scan_cache is None
            table = server.table("data")
            assert table._encoding[0] == table.version
            started = [thread for thread in threading.enumerate()
                       if thread.ident not in before]
            assert len(started) <= config.scan_workers
            for value in range(3):
                mw.queue_request(child_request(f"n{value}", value, rows))
            while mw.pending:
                mw.process_next_batch()
                assert mw.trace[-1].mode == "MEMORY"


class TestSplitWriters:
    """§4.3.2 split scans write the same files on every executor."""

    def _split_children(self, workers):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000,
            memory_staging=False,
            file_split_threshold=1.0,
            scan_workers=workers,
            **PARALLEL,
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()  # SERVER scan stages the root file
            for value in range(3):
                mw.queue_request(child_request(f"n{value}", value, rows))
            while mw.pending:
                mw.process_next_batch()
            assert any(record.split_file for record in mw.trace)
            payload = {}
            for value in range(3):
                staged = mw.staging.file_for(f"n{value}")
                with open(staged.path, "rb") as handle:
                    payload[f"n{value}"] = handle.read()
        return payload

    def test_split_files_bit_identical_across_workers(self):
        serial = self._split_children(1)
        for workers in (2, 4):
            assert self._split_children(workers) == serial


class TestTotalsFromTrace:
    """Session totals are sums and counts over the trace's records."""

    #: Every total ``Middleware.stats`` publishes, as its formula over
    #: the records; a new total has to be written down here too.
    TOTALS = {
        "batches": lambda rs: len(rs),
        "scans_by_mode": lambda rs: {
            location: sum(r.mode == location.name for r in rs)
            for location in DataLocation
        },
        "total_cost": lambda rs: sum(r.cost for r in rs),
        "rows_seen": lambda rs: sum(r.rows_seen for r in rs),
        "rows_routed": lambda rs: sum(r.rows_routed for r in rs),
        "rows_derived": lambda rs: sum(r.rows_derived for r in rs),
        "sql_fallbacks": lambda rs: sum(r.sql_fallbacks for r in rs),
        "deferrals": lambda rs: sum(r.deferrals for r in rs),
        "files_written": lambda rs: sum(r.files_written for r in rs),
        "memory_sets_loaded":
            lambda rs: sum(r.memory_sets_loaded for r in rs),
        "wall_seconds": lambda rs: sum(r.wall_seconds for r in rs),
        "rows_per_sec": lambda rs: (
            sum(r.rows_seen for r in rs) / sum(r.wall_seconds for r in rs)
        ),
        "matcher_evals": lambda rs: sum(r.matcher_evals for r in rs),
        "tag_routed_scans": lambda rs: sum(r.routing == "tag" for r in rs),
        "parallel_scans": lambda rs: sum(r.workers > 1 for r in rs),
        "merge_seconds": lambda rs: sum(r.merge_seconds for r in rs),
        "worker_seconds_total":
            lambda rs: sum(sum(r.worker_seconds) for r in rs),
        "pool_setup_seconds":
            lambda rs: sum(r.pool_setup_seconds for r in rs),
        "cached_scans": lambda rs: sum(r.cached for r in rs),
        "encode_seconds_saved":
            lambda rs: sum(r.encode_seconds_saved for r in rs),
        "ship_seconds_saved":
            lambda rs: sum(r.ship_seconds_saved for r in rs),
        "index_path_scans":
            lambda rs: sum(r.access_path == "index" for r in rs),
    }

    def test_each_retry_is_its_own_record_and_totals_are_sums(self):
        rows = dataset_rows()
        server = make_server(rows)
        # The TestParallelOverflow session: underestimates admit all
        # three nodes at once, the budget cannot hold them.
        config = MiddlewareConfig(
            memory_bytes=100,
            file_staging=False,
            memory_staging=False,
            scan_workers=2,
            **PARALLEL,
        )
        with Middleware(server, "data", SPEC, config) as mw:
            for value in range(3):
                mw.queue_request(
                    child_request(f"n{value}", value, rows, est_cc_pairs=1)
                )
            while mw.pending:
                before = len(mw.trace)
                mw.process_next_batch()
                assert len(mw.trace) == before + 1  # one record per scan
            records = list(mw.trace)
            stats = mw.stats
        assert stats.deferrals >= 1 and len(records) >= 2  # a retry ran
        assert [r.sequence for r in records] == list(range(len(records)))
        # Each attempt owns its per-partition timings: a retry's record
        # starts from an empty list, never the earlier attempt's.
        profiles = [r.worker_seconds for r in records]
        assert all(len(profile) >= 2 for profile in profiles)
        assert len({id(profile) for profile in profiles}) == len(profiles)
        assert stats.worker_seconds_total == pytest.approx(
            sum(sum(profile) for profile in profiles)
        )
        published = {
            name for name, member in vars(ExecutionTrace).items()
            if isinstance(member, property)
        }
        assert published == set(self.TOTALS)
        for name, formula in self.TOTALS.items():
            assert getattr(stats, name) == pytest.approx(formula(records)), \
                name
