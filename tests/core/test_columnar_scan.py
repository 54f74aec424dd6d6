"""Tests for the columnar scan path.

Every scan counts slices of columnar encodings with the one vector
kernel: for NULL-heavy, unicode and mixed-type columns it must produce
CC tables equal to the per-row oracle's on every shipping path
(in-process, thread pool, process pool via pickled slices, process
pool via a resident encoding's persistent segment), decode staged rows
identically, size partitions sanely without a row estimate, and —
proven by fault injection against the resource witness — leak no
shared-memory segment past a failed scan.

With ``scan_workers=1``, and for any source one partition long, the
same path runs through the *inline* executor: no pool, no writer
thread.  Inline, two threads and two processes must agree on
everything a session produces.
"""

import threading

import pytest

np = pytest.importorskip("numpy")

from repro.client.baselines import (  # noqa: E402
    build_cc_from_rows,
    grow_in_memory,
)
from repro.client.decision_tree import DecisionTreeClassifier  # noqa: E402
from repro.client.growth import GrowthPolicy  # noqa: E402
from repro.common.errors import MiddlewareError  # noqa: E402
from repro.common.locks import install_monitor  # noqa: E402
from repro.core.config import MiddlewareConfig  # noqa: E402
from repro.core.execution import INLINE_PARTITION_CHUNKS  # noqa: E402
from repro.core.filters import PathCondition, RoutingKernel  # noqa: E402
from repro.core.middleware import Middleware  # noqa: E402
from repro.core import scan_pool  # noqa: E402
from repro.core.scan_pool import ScanWorkerPool  # noqa: E402
from repro.core.shm import ShmSegmentRef, ShmShipper  # noqa: E402
from repro.core.staging import StagedFile  # noqa: E402
from repro.datagen.loader import load_dataset  # noqa: E402
from repro.datagen.random_tree import (  # noqa: E402
    RandomTreeConfig,
    build_random_tree,
)
from repro.sqlengine.database import SQLServer  # noqa: E402
from repro.core.vector_kernel import (  # noqa: E402
    count_partition_columnar,
    slot_layout,
)
from repro.sqlengine.columnar import ColumnarPartition  # noqa: E402

from ..conftest import WitnessMonitor, tree_signature  # noqa: E402
from .oracle import oracle_counts  # noqa: E402
from .test_vector_kernel import fold  # noqa: E402
from .test_parallel_scan import (  # noqa: E402
    PARALLEL,
    SPEC,
    child_request,
    dataset_rows,
    frontier_results,
    make_server,
    root_request,
)

# ---------------------------------------------------------------------------
# kernel-level equivalence: columnar counting == the per-row oracle
# ---------------------------------------------------------------------------

ATTRS = ("A1", "A2")
ATTR_INDEX = {"A1": 0, "A2": 1}
ATTR_POSITIONS = (0, 1)
CLASS_INDEX = 2
N_CLASSES = 3


def _rows_null_heavy():
    a1_cycle = [None, None, 4, None, 9]
    a2_cycle = [None, "x", None]
    return [
        (a1_cycle[i % 5], a2_cycle[i % 3], i % N_CLASSES)
        for i in range(61)
    ]


def _rows_unicode():
    a1_cycle = ["ä", "日本", "z", "ä"]
    a2_cycle = ["α", None, "β"]
    return [
        (a1_cycle[i % 4], a2_cycle[i % 3], i % N_CLASSES)
        for i in range(61)
    ]


def _rows_mixed():
    a1_cycle = ["1", 1, None, 1 << 70]
    a2_cycle = [0, 5, None]
    return [
        (a1_cycle[i % 4], a2_cycle[i % 3], i % N_CLASSES)
        for i in range(61)
    ]


DATASETS = {
    "null_heavy": (
        _rows_null_heavy,
        [
            (),
            (PathCondition("A1", "=", 4),),
            (PathCondition("A1", "<>", 4),),
            (PathCondition("A2", "=", None),),
        ],
    ),
    "unicode": (
        _rows_unicode,
        [
            (),
            (PathCondition("A1", "=", "ä"),),
            (PathCondition("A2", "<>", "β"),),
        ],
    ),
    "mixed": (
        _rows_mixed,
        [
            (),
            (PathCondition("A1", "=", "1"),),  # the string, not the int
            (PathCondition("A1", "=", 1),),    # the int, not the string
            (PathCondition("A1", "<>", None),),
        ],
    ),
}


def _slots(n_slots):
    """Every slot counts every attribute."""
    return slot_layout(
        [f"n{slot}" for slot in range(n_slots)],
        [ATTR_POSITIONS] * n_slots, len(ATTRS),
    )


def _make_ctx(condition_sets):
    kernel = RoutingKernel(condition_sets, ATTR_INDEX)
    return (kernel, _slots(len(condition_sets)), CLASS_INDEX, N_CLASSES)


def _reference(rows, condition_sets, stage_nodes=()):
    """The per-row oracle's answer: CC tables, rows routed to any slot,
    and the rows behind each staged slot's selection."""
    counted = oracle_counts(
        rows, condition_sets, [ATTRS] * len(condition_sets), ATTRS,
        N_CLASSES,
    )
    routed = len(set().union(*(selected for _, selected in counted)))
    writes = {
        f"n{slot}": [rows[index] for index in selected]
        for slot, (_, selected) in enumerate(counted)
        if f"n{slot}" in stage_nodes
    }
    return [cc for cc, _ in counted], routed, writes


def _partitions(rows, partition_rows=7):
    return [
        ColumnarPartition.from_rows(rows[start:start + partition_rows])
        for start in range(0, len(rows), partition_rows)
    ]


def _fold(results, partitions, n_slots, stage_nodes=()):
    """Merge per-partition columnar results like the coordinator does."""
    results = sorted(results, key=lambda r: r[0])
    routed = 0
    writes = {node_id: [] for node_id in stage_nodes}
    for seq, _, partition_routed, writes_idx, _, _ in results:
        routed += partition_routed
        for node_id, idx in writes_idx.items():
            if len(idx):
                writes[node_id].extend(partitions[seq].rows_at(idx))
    ccs = fold(
        [result[1] for result in results], [ATTRS] * n_slots, N_CLASSES,
        ATTRS,
    )
    return ccs, routed, writes


@pytest.mark.parametrize("dataset", sorted(DATASETS))
class TestColumnarKernelEquivalence:
    def test_direct_count_matches_oracle(self, dataset):
        make_rows, condition_sets = DATASETS[dataset]
        rows = make_rows()
        stage_nodes = ("n1",)
        reference, ref_routed, ref_writes = _reference(
            rows, condition_sets, stage_nodes
        )
        ctx = _make_ctx(condition_sets)
        partitions = _partitions(rows)
        results = [
            count_partition_columnar(ctx, seq, partition, stage_nodes, ())
            for seq, partition in enumerate(partitions)
        ]
        ccs, routed, writes = _fold(
            results, partitions, len(condition_sets), stage_nodes
        )
        assert ccs == reference
        assert routed == ref_routed
        assert writes["n1"] == ref_writes["n1"]

    def test_thread_pool_matches_oracle(self, dataset):
        make_rows, condition_sets = DATASETS[dataset]
        rows = make_rows()
        reference, _, _ = _reference(rows, condition_sets)
        ccs = self._pool_count("thread", rows, condition_sets)
        assert ccs == reference

    def test_process_pool_pickled_matches_oracle(self, dataset):
        make_rows, condition_sets = DATASETS[dataset]
        rows = make_rows()
        reference, _, _ = _reference(rows, condition_sets)
        ccs = self._pool_count("process", rows, condition_sets)
        assert ccs == reference

    def test_process_pool_shm_matches_oracle(self, dataset):
        make_rows, condition_sets = DATASETS[dataset]
        rows = make_rows()
        reference, _, _ = _reference(rows, condition_sets)
        ccs = self._pool_count("process", rows, condition_sets, shm=True)
        assert ccs == reference

    def _pool_count(self, kind, rows, condition_sets, shm=False):
        """Count 7-row slices of one encoding on a two-worker pool:
        pickled slices, or (``shm``) slices of the encoding's one
        persistent segment, as a resident encoding is shipped."""
        kernel = RoutingKernel(condition_sets, ATTR_INDEX)
        slots = _slots(len(condition_sets))
        partitions = _partitions(rows)
        whole = ColumnarPartition.from_rows(rows)
        pool = ScanWorkerPool(kind, 2)
        shipper = ShmShipper() if shm else None
        try:
            pool.install(
                ("sig", kind, shm), kernel, slots, CLASS_INDEX, N_CLASSES
            )
            shipped = whole
            if shipper is not None:
                shipped = ShmSegmentRef(1, shipper.ship(whole))
            futures = [
                pool.submit(seq, shipped, start, start + 7, (), ())
                for seq, start in enumerate(range(0, len(rows), 7))
            ]
            results = [future.result()[:6] for future in futures]
        finally:
            pool.close()
            if shipper is not None:
                shipper.close()
        if shipper is not None:
            assert shipper.live_segments == 0
        ccs, _, _ = _fold(results, partitions, len(condition_sets))
        return ccs


# ---------------------------------------------------------------------------
# static partition sizing
# ---------------------------------------------------------------------------


class TestPartitionRule:
    """Partition size is a function of the config and the source's row
    count alone: ``max(scan_chunk_rows, ceil(rows / (2 x workers)))``
    behind a pool, :data:`INLINE_PARTITION_CHUNKS` chunks inline."""

    @staticmethod
    def partition_rows(source_rows, **config):
        server = make_server(dataset_rows())
        with Middleware(server, "data", SPEC,
                        MiddlewareConfig(**config)) as mw:
            return mw.execution._partition_rows(source_rows)

    def test_estimate_splits_two_partitions_per_worker(self):
        assert self.partition_rows(
            64, scan_workers=4, scan_chunk_rows=4) == 8
        assert self.partition_rows(
            65, scan_workers=4, scan_chunk_rows=4) == 9  # rounded up

    def test_partitions_never_smaller_than_a_chunk(self):
        assert self.partition_rows(
            10, scan_workers=8, scan_chunk_rows=1024) == 1024

    def test_empty_source_gets_one_chunk_not_zero(self):
        assert self.partition_rows(
            0, scan_workers=4, scan_chunk_rows=16) == 16

    def test_inline_partition_is_a_fixed_number_of_chunks(self):
        for source_rows in (0, 10, 1 << 20):
            assert self.partition_rows(
                source_rows, scan_workers=1, scan_chunk_rows=16
            ) == INLINE_PARTITION_CHUNKS * 16

    def test_rule_ignores_earlier_scans(self):
        # Fast 27-row scans used to steer a timing-driven sizer; the
        # static rule answers the same before and after them.
        rows = dataset_rows()
        config = MiddlewareConfig(
            memory_bytes=100_000, scan_workers=2, **PARALLEL
        )
        with Middleware(make_server(rows), "data", SPEC, config) as mw:
            before = [mw.execution._partition_rows(n) for n in (0, 27, 999)]
            for value in range(3):
                mw.queue_request(child_request(f"n{value}", value, rows))
            while mw.pending:
                mw.process_next_batch()
            assert len(mw.trace) >= 1
            after = [mw.execution._partition_rows(n) for n in (0, 27, 999)]
        assert before == after == [2, 7, 250]


# ---------------------------------------------------------------------------
# middleware integration: equivalence, trace fields, fault injection
# ---------------------------------------------------------------------------


class TestColumnarIntegration:
    def test_without_numpy_the_middleware_refuses_to_start(
            self, monkeypatch):
        # numpy is a declared dependency: there is no second loop to
        # fall back to, so its absence is one clear error up front.
        from repro.core import middleware
        monkeypatch.setattr(middleware, "columnar_available", lambda: False)
        server = make_server(dataset_rows())
        with pytest.raises(MiddlewareError, match="numpy"):
            Middleware(server, "data", SPEC, MiddlewareConfig())

    def test_trace_reports_ship_profile(self):
        _, trace, _ = frontier_results(scan_workers=2, **PARALLEL)
        record = trace[0]
        assert record.ship_seconds >= 0.0
        assert record.partition_rows > 0

    def _staged_root_bytes(self, **overrides):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000, memory_staging=False,
            **{**PARALLEL, **overrides},
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            staged = mw.staging.file_for("root")
            assert list(staged.scan()) == rows
            with open(staged.path, "rb") as handle:
                return handle.read()

    def test_staged_file_bit_identical_across_shipping_paths(self):
        # One inline partition holding the whole source is the reference.
        serial = self._staged_root_bytes(
            scan_workers=1, scan_chunk_rows=1024
        )
        assert self._staged_root_bytes(scan_workers=1) == serial
        assert self._staged_root_bytes(scan_workers=2) == serial
        assert self._staged_root_bytes(
            scan_workers=2, scan_pool="process"
        ) == serial

    def test_file_and_memory_rescans_stay_pooled(self):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000, scan_workers=2, **PARALLEL
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()  # SERVER scan, stages the root
            for value in range(3):
                mw.queue_request(child_request(f"n{value}", value, rows))
            while mw.pending:
                mw.process_next_batch()
            staged_modes = {r.mode for r in mw.trace}
            assert len(staged_modes) >= 2  # a staged tier was rescanned
            assert all(r.workers == 2 for r in mw.trace)


#: The three executors a session can run a several-partition scan on.
EXECUTORS = {
    "inline": {"scan_workers": 1},
    "threads": {"scan_workers": 2},
    "processes": {"scan_workers": 2, "scan_pool": "process"},
}


def _rows_of(a1_values, a2_values, n=64):
    return [
        (a1_values[i % len(a1_values)], a2_values[(i // 2) % len(a2_values)],
         i % 3)
        for i in range(n)
    ]


#: name -> (rows, the A1 values the child nodes split on)
EQUIVALENCE_DATA = {
    "int": (dataset_rows(), (0, 1, 2)),
    "string": (_rows_of(["x", "ä", "日本"], ["α", "β"]), ("x", "ä", "日本")),
    "nulls": (_rows_of([0, 1, 2], [None, 5, None, 7]), (0, 1, 2)),
}

#: name -> config of a two-level session that exercises one staged tier
EQUIVALENCE_PLANS = {
    # SERVER scan writes the root's file; the FILE scan over it splits
    # (threshold 1.0) into one fresh file per child.
    "file-split": {"memory_staging": False, "file_split_threshold": 1.0},
    # SERVER scan captures the root into memory; the children are
    # counted by a MEMORY scan over it.
    "memory": {"file_staging": False},
}


def _session_fingerprint(rows, values, tmp_path, **config):
    """Everything observable a two-level session leaves behind."""
    server = make_server(rows)
    config = MiddlewareConfig(
        memory_bytes=100_000, staging_dir=str(tmp_path),
        **{**PARALLEL, **config},
    )
    ccs = {}
    with Middleware(server, "data", SPEC, config) as mw:
        levels = [
            [root_request(rows)],
            [child_request(f"n{index}", value, rows)
             for index, value in enumerate(values, start=1)],
        ]
        for requests in levels:
            mw.queue_requests(requests)
            while mw.pending:
                for result in mw.process_next_batch():
                    ccs[result.node_id] = result.cc
        files = {}
        for node_id in mw.staging.file_nodes():
            with open(mw.staging.file_for(node_id).path, "rb") as handle:
                files[node_id] = handle.read()
        captured = {
            node_id: list(mw.staging.memory_rows(node_id))
            for node_id in mw.staging.memory_nodes()
        }
        scans = [
            (r.mode, r.batch, r.rows_seen, r.rows_routed, r.split_file,
             r.stage_file_targets, r.stage_memory_targets, r.deferrals)
            for r in mw.trace
        ]
        workers = [r.workers for r in mw.trace]
        meter = server.meter
        return {
            "ccs": ccs, "files": files, "captured": captured,
            "scans": scans, "events": dict(meter.counts),
        }, dict(meter.charges), workers


class TestThreeWayEquivalence:
    """Inline == two threads == two processes, in everything but time,
    and all three equal the per-row oracle."""

    # Staged files hold packed int32 records, so only the integer
    # data set can take the file plan.
    @pytest.mark.parametrize("data, plan", [
        ("int", "file-split"), ("int", "memory"),
        ("string", "memory"), ("nulls", "memory"),
    ])
    def test_sessions_agree(self, data, plan, tmp_path):
        rows, values = EQUIVALENCE_DATA[data]
        outcome = {}
        for executor, overrides in EXECUTORS.items():
            directory = tmp_path / executor
            outcome[executor] = _session_fingerprint(
                rows, values, directory, **EQUIVALENCE_PLANS[plan],
                **overrides,
            )
        reference, reference_charges, workers = outcome["inline"]
        assert all(seen == 1 for seen in workers)
        tiers = {scan[0] for scan in reference["scans"]}
        assert tiers == {
            "SERVER", "FILE" if plan == "file-split" else "MEMORY"
        }
        if plan == "file-split":
            assert any(scan[4] for scan in reference["scans"])  # a split
            assert len(reference["files"]) > 1
        else:
            assert "root" in reference["captured"]
        for value in values:
            subset = [r for r in rows if r[0] == value]
            node_id = f"n{values.index(value) + 1}"
            assert reference["ccs"][node_id] == build_cc_from_rows(
                subset, SPEC, ("A2",)
            )
        for executor in ("threads", "processes"):
            observed, charges, workers = outcome[executor]
            assert all(seen == 2 for seen in workers)
            assert observed == reference
            # Per category, not just in total.
            assert charges == pytest.approx(reference_charges)

    def test_fit_under_memory_pressure_agrees(self, tmp_path):
        # A whole fit whose CC estimates overflow the budget: deferrals
        # and an SQL fallback both fire, and every one of those
        # decisions is taken on merged sizes — so the three executors
        # must leave the same scan-by-scan record, the same staged
        # bytes and the same meter, and grow the oracle's tree.
        generating = build_random_tree(RandomTreeConfig(
            n_attributes=8, values_per_attribute=5, n_classes=3,
            n_leaves=20, cases_per_leaf=20, seed=5,
        ))
        rows = generating.materialize()
        outcome = {}
        for executor, overrides in EXECUTORS.items():
            server = SQLServer()
            load_dataset(server, "data", generating.spec, rows)
            directory = tmp_path / executor
            config = MiddlewareConfig(
                memory_bytes=800, staging_dir=str(directory),
                scan_chunk_rows=16,
                **overrides,
            )
            #: node -> the bytes of every file sealed for it, in order
            #: (files are dropped again as the fit moves down the tree).
            written = {}
            seal = StagedFile.seal

            def recording_seal(staged, _written=written):
                seal(staged)
                with open(staged.path, "rb") as handle:
                    _written.setdefault(staged.owner_node, []).append(
                        handle.read()
                    )

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(StagedFile, "seal", recording_seal)
                with Middleware(
                        server, "data", generating.spec, config) as mw:
                    classifier = DecisionTreeClassifier()
                    classifier.fit(mw)
                    records = [
                        (r.batch, r.mode, r.deferrals, r.sql_fallbacks,
                         r.nodes_served, r.rows_seen, r.rows_routed,
                         r.cost)
                        for r in mw.trace
                    ]
                    stats = mw.stats
                    assert stats.deferrals >= 1
                    assert stats.sql_fallbacks >= 1
                    assert stats.files_written >= 1
                    if executor != "inline":
                        assert stats.parallel_scans >= 1
            outcome[executor] = (
                records, written, dict(server.meter.charges),
                dict(server.meter.counts),
                tree_signature(classifier.tree.root),
            )
        oracle_tree = grow_in_memory(
            rows, generating.spec, GrowthPolicy()
        )
        reference = outcome["inline"]
        assert reference[4] == tree_signature(oracle_tree.root)
        for executor in ("threads", "processes"):
            records, written, charges, events, tree = outcome[executor]
            assert records == reference[0]
            assert written == reference[1]
            assert charges == reference[2]
            assert events == reference[3]
            assert tree == reference[4]


class TestInlineExecutor:
    """``scan_workers=1``: the scan loop with nothing beside it."""

    def test_session_starts_no_thread_and_no_executor(
            self, tmp_path, monkeypatch):
        monitor = WitnessMonitor()
        previous = install_monitor(monitor)
        threads_before = set(threading.enumerate())
        started = []
        original_start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            original_start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        try:
            rows, values = EQUIVALENCE_DATA["int"]
            for plan in EQUIVALENCE_PLANS.values():
                server = make_server(rows)
                config = MiddlewareConfig(
                    memory_bytes=100_000, scan_workers=1,
                    staging_dir=str(tmp_path), **PARALLEL, **plan,
                )
                with Middleware(server, "data", SPEC, config) as mw:
                    mw.queue_request(root_request(rows))
                    mw.process_next_batch()
                    for value in values:
                        mw.queue_request(
                            child_request(f"n{value}", value, rows)
                        )
                    while mw.pending:
                        mw.process_next_batch()
                    assert len(mw.trace) >= 2
                    for record in mw.trace:
                        assert record.workers == 1
                        assert not record.cached
                        assert "(inline)" in str(record)
                    scan = mw.trace[-1]
                    assert scan.partition_rows == (
                        INLINE_PARTITION_CHUNKS * config.scan_chunk_rows
                    )
                    assert len(scan.worker_seconds) >= 2  # partitioned
                    assert mw.stats.parallel_scans == 0
                    assert mw.stats.cached_scans == 0
                    pool = mw.scan_pool
                    assert pool is not None and pool.inline
                    assert not pool.active and pool.pools_created == 0
                    assert "inline" in repr(pool)
                    assert "executor: inline, 0 pooled scans" in mw.report()
                    cache = mw.execution.scan_cache
                    assert cache is None or cache.resident_entries == 0
        finally:
            install_monitor(previous)
        assert started == []
        assert set(threading.enumerate()) == threads_before
        for kind in ("executor", "future"):
            assert monitor.created.get(kind, 0) == 0
        assert monitor.live_kinds() == []

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_one_worker_pool_counts_on_the_calling_thread(
            self, kind, monkeypatch):
        # The kernel entry is looked up on the scan_pool module at call
        # time — where benchmarks/e2e/trace.py patches it.
        ran_on = []
        original = scan_pool.count_partition_slice

        def recording(*args, **kwargs):
            ran_on.append(threading.get_ident())
            return original(*args, **kwargs)

        monkeypatch.setattr(scan_pool, "count_partition_slice", recording)
        rows = _rows_null_heavy()
        condition_sets = DATASETS["null_heavy"][1]
        reference, _, _ = _reference(rows, condition_sets)
        kernel = RoutingKernel(condition_sets, ATTR_INDEX)
        slots = _slots(len(condition_sets))
        partitions = _partitions(rows)
        whole = ColumnarPartition.from_rows(rows)
        pool = ScanWorkerPool(kind, 1)
        try:
            assert pool.inline and not pool.remote
            pool.install(("sig",), kernel, slots, CLASS_INDEX, N_CLASSES)
            # Each partition its own encoding, as a streamed file block
            # is, and 7-row slices of one encoding, as everything else.
            futures = [
                pool.submit(seq, partition, 0, partition.n_rows, (), ())
                for seq, partition in enumerate(partitions)
            ] + [
                pool.submit(seq, whole, start, start + 7, (), ())
                for seq, start in enumerate(range(0, len(rows), 7))
            ]
            assert all(future.done() for future in futures)
            results = [future.result()[:6] for future in futures]
            for half in (results[:len(partitions)],
                         results[len(partitions):]):
                ccs, _, _ = _fold(half, partitions, len(condition_sets))
                assert ccs == reference
        finally:
            pool.close()
        assert not pool.active and pool.pools_created == 0
        assert len(ran_on) == 2 * len(partitions)
        assert set(ran_on) == {threading.get_ident()}
        # The frozen tracer's other names for the one entry point.
        assert ScanWorkerPool.submit_columnar is ScanWorkerPool.submit
        assert ScanWorkerPool.submit_columnar_slice is ScanWorkerPool.submit

    def test_inline_failure_propagates_from_submit(self):
        kernel = RoutingKernel([()], ATTR_INDEX)
        slots = _slots(1)
        pool = ScanWorkerPool("thread", 1)
        try:
            pool.install(("sig",), kernel, slots, CLASS_INDEX, N_CLASSES)
            poisoned = ColumnarPartition.from_rows([(1, 1, 99)])
            with pytest.raises(IndexError):
                pool.submit(0, poisoned, 0, 1, (), ())
        finally:
            pool.close()

    def test_small_sources_count_through_the_same_kernel(self):
        # 27 rows with every default: no gate, no second loop — one
        # inline partition through the vector kernel.
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(memory_bytes=100_000, scan_workers=1)
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            (result,) = mw.process_next_batch()
            assert result.cc == build_cc_from_rows(rows, SPEC, ("A1", "A2"))
            record = mw.trace[0]
            assert record.workers == 1 and "(inline)" in str(record)
            assert record.partition_rows == (
                INLINE_PARTITION_CHUNKS * config.scan_chunk_rows
            )
            assert len(record.worker_seconds) == 1
            assert mw.scan_pool.inline


class TestWideBatches:
    """A batch may hold any number of nodes: candidate masks come in
    62-bit limbs, and a level past 62 nodes is just another scan."""

    N_NODES = 65

    def test_65_node_level_counts_columnar_on_a_process_pool(
            self, monkeypatch):
        n_nodes = self.N_NODES
        spec = type(SPEC)([n_nodes, 2], 2)
        rows = [(a1, a1 % 2, (a1 // 2) % 2) for a1 in range(n_nodes)] * 2
        server = SQLServer()
        load_dataset(server, "data", spec, rows)
        shipped = []
        run = ScanWorkerPool._run

        def recording_run(pool, label, task, *args):
            shipped.append((task.__name__, args))
            return run(pool, label, task, *args)

        monkeypatch.setattr(ScanWorkerPool, "_run", recording_run)
        config = MiddlewareConfig.no_staging(
            1_000_000, scan_workers=2, scan_pool="process", **PARALLEL
        )
        with Middleware(server, "data", spec, config) as mw:
            for value in range(n_nodes):
                mw.queue_request(child_request(f"n{value}", value, rows))
            results = {r.node_id: r.cc for r in mw.process_next_batch()}
            record = mw.trace[0]
            assert len(record.batch) == n_nodes and record.workers == 2
            assert mw.scan_pool.pools_created == 1
        assert len(results) == n_nodes
        for value in range(n_nodes):
            subset = [r for r in rows if r[0] == value]
            assert results[f"n{value}"] == build_cc_from_rows(
                subset, spec, ("A2",)
            )
        # Every task took a pickled slice or a resident encoding's
        # segment reference: no row tuple was ever shipped.
        assert len(shipped) >= 2
        for name, args in shipped:
            assert name in ("_count_columnar_pickled_slice",
                            "_count_columnar_shm_slice"), name
            assert not any(isinstance(arg, list) for arg in args)
            assert any(
                isinstance(arg, (ColumnarPartition, ShmSegmentRef))
                for arg in args
            )


class TestShmFaultInjection:
    def test_failed_scan_leaks_no_segment_and_keeps_pool_warm(self):
        monitor = WitnessMonitor()
        previous = install_monitor(monitor)
        try:
            rows = dataset_rows()
            server = make_server(rows)
            config = MiddlewareConfig(
                memory_bytes=100_000,
                file_staging=False,
                scan_workers=2,
                scan_pool="process",
                **PARALLEL,
            )
            with Middleware(server, "data", SPEC, config) as mw:
                mw.queue_request(root_request(rows))
                mw.process_next_batch()  # SERVER: captures the root
                assert monitor.created.get("shm-segment", 0) == 0
                # An out-of-range class label in the captured set
                # poisons the vectorized count in the worker: the
                # MEMORY scan's slices travel pickled.
                labels = mw.staging.columnar_memory("root").columns[-1]
                labels.data[5] = 99
                mw.queue_requests(
                    [child_request(f"n{v}", v, rows) for v in range(3)]
                )
                with pytest.raises(IndexError):
                    mw.process_next_batch()
                assert mw.budget.tags() == ["data:root"]
                # A memory set is never resident: no segment exists.
                assert monitor.created.get("shm-segment", 0) == 0
                # The session pool survived the worker error warm.
                pool = mw.scan_pool
                assert pool is not None and pool.active
            assert "executor" not in monitor.live_kinds()
            assert "shm-segment" not in monitor.live_kinds()
        finally:
            install_monitor(previous)

    def test_failed_scan_keeps_cached_segment_and_recovers(self):
        # With the columnar cache on, the encoding's persistent segment
        # legitimately survives a poisoned count (the encoding was valid
        # regardless of how the count ended): the next scan of the
        # repaired table re-encodes under the bumped version, and close
        # retires every segment.
        monitor = WitnessMonitor()
        previous = install_monitor(monitor)
        try:
            rows = dataset_rows()
            server = make_server(rows)
            table = server.table("data")
            table.insert((0, 0, 99))  # poisons the vectorized count
            config = MiddlewareConfig(
                memory_bytes=100_000,
                file_staging=False,
                memory_staging=False,
                scan_workers=2,
                scan_pool="process",
                **PARALLEL,
            )
            with Middleware(server, "data", SPEC, config) as mw:
                mw.queue_request(root_request(rows))
                with pytest.raises(IndexError):
                    mw.process_next_batch()
                cache = mw.execution.scan_cache
                assert cache is not None
                # The miss admitted its entry; the failure did not
                # corrupt or leak it (exactly one witnessed segment).
                assert cache.misses == 1
                assert cache.resident_entries == 1
                assert cache.live_segments == 1
                assert monitor.created.get("shm-segment", 0) == 1
                # Repair the table: the version bump strands the
                # poisoned entry, so the retry re-encodes cleanly.
                server.execute("DELETE FROM data WHERE class = 99")
                mw.queue_request(root_request(rows))
                results = mw.process_next_batch()
                assert results[0].cc == build_cc_from_rows(
                    rows, SPEC, ("A1", "A2")
                )
                assert cache.misses == 2
                pool = mw.scan_pool
                assert pool is not None and pool.active
            assert "executor" not in monitor.live_kinds()
            assert "shm-segment" not in monitor.live_kinds()
        finally:
            install_monitor(previous)

    def test_poison_row_fails_encoding_without_pinning(self):
        # An unhashable attribute value fails dictionary encoding on
        # the coordinator, mid-way through a transient SERVER scan
        # whose earlier partitions are already with the workers; the
        # scan must surface the TypeError and leave nothing pinned.
        monitor = WitnessMonitor()
        previous = install_monitor(monitor)
        try:
            rows = dataset_rows()
            server = make_server(rows)
            server.table("data").insert(([], 1, 0), validate=False)
            config = MiddlewareConfig(
                memory_bytes=100_000, scan_workers=2, scan_cache_bytes=0,
                **PARALLEL,
            )
            with Middleware(server, "data", SPEC, config) as mw:
                mw.queue_request(root_request(rows))
                with pytest.raises(TypeError):
                    mw.process_next_batch()
                assert "future" not in monitor.live_kinds()
                assert mw.budget.used == 0
                assert mw.staging.file_nodes() == []
                assert server.table("data")._encoding is None
            assert monitor.live_kinds() == []
        finally:
            install_monitor(previous)
