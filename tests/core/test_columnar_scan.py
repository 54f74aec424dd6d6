"""Tests for the columnar parallel scan path.

The columnar executor is a pure wall-clock optimisation over the
row-tuple kernel: for NULL-heavy, unicode and mixed-type columns it
must produce CC tables equal to the row-at-a-time count on every
shipping path (in-process, thread pool, process pool via pickle,
process pool via shared memory), decode staged rows identically, size
partitions sanely without a row estimate, shut its prefetch producer
down without busy-waiting, and — proven by fault injection against the
resource witness — leak no shared-memory segment past a failed scan.

With ``scan_workers=1`` the same path runs through the *inline*
executor: no pool, no prefetch or writer thread.  Row kernel, inline
and two threads must agree on everything a session produces.
"""

import threading
import time

import pytest

np = pytest.importorskip("numpy")

from repro.client.baselines import build_cc_from_rows  # noqa: E402
from repro.common.locks import install_monitor  # noqa: E402
from repro.core.cc_table import CCTable  # noqa: E402
from repro.core.config import MiddlewareConfig  # noqa: E402
from repro.core.execution import (  # noqa: E402
    _PartitionProducer,
    _PartitionSizer,
)
from repro.core.filters import PathCondition, RoutingKernel  # noqa: E402
from repro.core.middleware import Middleware  # noqa: E402
from repro.core import scan_pool  # noqa: E402
from repro.core.scan_pool import (  # noqa: E402
    ScanWorkerPool,
    _count_partition,
)
from repro.core.shm import ShmShipper, shm_available  # noqa: E402
from repro.datagen.loader import load_dataset  # noqa: E402
from repro.sqlengine.database import SQLServer  # noqa: E402
from repro.core.vector_kernel import (  # noqa: E402
    count_partition_columnar,
)
from repro.sqlengine.columnar import ColumnarPartition  # noqa: E402

from ..conftest import WitnessMonitor  # noqa: E402
from .test_parallel_scan import (  # noqa: E402
    PARALLEL,
    ROW_KERNEL,
    SPEC,
    child_request,
    dataset_rows,
    frontier_results,
    make_server,
    root_request,
)

# ---------------------------------------------------------------------------
# kernel-level equivalence: columnar counting == row-tuple counting
# ---------------------------------------------------------------------------

ATTRS = ("A1", "A2")
ATTR_INDEX = {"A1": 0, "A2": 1}
ATTR_POSITIONS = (("A1", 0), ("A2", 1))
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


def _make_ctx(condition_sets):
    kernel = RoutingKernel(condition_sets, ATTR_INDEX)
    slots = tuple(
        (f"n{slot}", ATTRS, ATTR_POSITIONS)
        for slot in range(len(condition_sets))
    )
    return (kernel, slots, CLASS_INDEX, N_CLASSES)


def _reference(rows, condition_sets, stage_nodes=()):
    """The row-tuple worker's answer over the whole row set at once."""
    ctx = _make_ctx(condition_sets)
    _, partials, routed, writes, _, _ = _count_partition(
        ctx, 0, rows, stage_nodes, ()
    )
    return partials, routed, writes


def _partitions(rows, partition_rows=7):
    return [
        ColumnarPartition.from_rows(rows[start:start + partition_rows])
        for start in range(0, len(rows), partition_rows)
    ]


def _fold(results, partitions, n_slots, stage_nodes=()):
    """Merge per-partition columnar results like the coordinator does."""
    ccs = [CCTable(ATTRS, N_CLASSES) for _ in range(n_slots)]
    routed = 0
    writes = {node_id: [] for node_id in stage_nodes}
    for result in sorted(results, key=lambda r: r[0]):
        seq, payloads, partition_routed, writes_idx, _, _ = result
        routed += partition_routed
        for cc, payload in zip(ccs, payloads):
            cc.merge_block(*payload)
        for node_id, idx in writes_idx.items():
            if len(idx):
                writes[node_id].extend(partitions[seq].rows_at(idx))
    return ccs, routed, writes


@pytest.mark.parametrize("dataset", sorted(DATASETS))
class TestColumnarKernelEquivalence:
    def test_direct_count_matches_row_kernel(self, dataset):
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

    def test_thread_pool_matches_row_kernel(self, dataset):
        make_rows, condition_sets = DATASETS[dataset]
        rows = make_rows()
        reference, _, _ = _reference(rows, condition_sets)
        ccs = self._pool_count("thread", rows, condition_sets)
        assert ccs == reference

    def test_process_pool_pickled_matches_row_kernel(self, dataset):
        make_rows, condition_sets = DATASETS[dataset]
        rows = make_rows()
        reference, _, _ = _reference(rows, condition_sets)
        ccs = self._pool_count("process", rows, condition_sets)
        assert ccs == reference

    @pytest.mark.skipif(not shm_available(), reason="no shared_memory")
    def test_process_pool_shm_matches_row_kernel(self, dataset):
        make_rows, condition_sets = DATASETS[dataset]
        rows = make_rows()
        reference, _, _ = _reference(rows, condition_sets)
        ccs = self._pool_count("process", rows, condition_sets, shm=True)
        assert ccs == reference

    def _pool_count(self, kind, rows, condition_sets, shm=False):
        kernel = RoutingKernel(condition_sets, ATTR_INDEX)
        slots = tuple(
            (f"n{slot}", ATTRS, ATTR_POSITIONS)
            for slot in range(len(condition_sets))
        )
        partitions = _partitions(rows)
        pool = ScanWorkerPool(kind, 2)
        shipper = ShmShipper() if shm else None
        try:
            pool.install(
                ("sig", kind, shm), kernel, slots, CLASS_INDEX, N_CLASSES
            )
            futures = []
            for seq, partition in enumerate(partitions):
                shipped = (
                    shipper.ship(partition) if shipper is not None
                    else partition
                )
                futures.append(pool.submit_columnar(seq, shipped, (), ()))
            results = [future.result() for future in futures]
        finally:
            if shipper is not None:
                shipper.close()
            pool.close()
        if shipper is not None:
            assert shipper.live_segments == 0
        ccs, _, _ = _fold(results, partitions, len(condition_sets))
        return ccs


# ---------------------------------------------------------------------------
# adaptive partition sizing
# ---------------------------------------------------------------------------


class TestPartitionSizer:
    def test_no_estimate_gets_per_worker_target_not_one_chunk(self):
        # Regression: the old policy degenerated to one scan chunk per
        # partition when the schedule had no row estimate, flooding the
        # pool with tiny tasks.
        sizer = _PartitionSizer(1024)
        assert sizer.partition_rows(0, 4) == 1024 * 8

    def test_estimate_splits_two_partitions_per_worker(self):
        sizer = _PartitionSizer(4)
        assert sizer.partition_rows(64, 4) == 8

    def test_partitions_never_smaller_than_a_chunk(self):
        sizer = _PartitionSizer(1024)
        assert sizer.partition_rows(10, 8) == 1024

    def test_too_fast_partitions_coarsen_the_policy(self):
        sizer = _PartitionSizer(4)
        sizer.parts_per_worker = 4
        sizer.observe([0.0001] * 8, partition_rows=4096)
        assert sizer.parts_per_worker == 3
        assert sizer.blind_rows == 8192

    def test_skewed_partitions_refine_the_policy(self):
        sizer = _PartitionSizer(4)
        blind_before = sizer.blind_rows
        sizer.observe([0.01, 0.01, 0.2], partition_rows=4096)
        assert sizer.parts_per_worker == 3
        assert sizer.blind_rows == max(4, blind_before // 2)

    def test_slow_partitions_refine_the_policy(self):
        sizer = _PartitionSizer(4)
        sizer.observe([0.3], partition_rows=4096)
        assert sizer.parts_per_worker == 3

    def test_bounds_hold_under_any_history(self):
        sizer = _PartitionSizer(4)
        for _ in range(20):
            sizer.observe([10.0] * 4, partition_rows=4096)
        assert sizer.parts_per_worker == sizer.MAX_PARTS_PER_WORKER
        for _ in range(20):
            sizer.observe([0.0], partition_rows=1 << 30)
        assert sizer.parts_per_worker == sizer.MIN_PARTS_PER_WORKER
        assert sizer.blind_rows <= sizer.MAX_BLIND_ROWS


# ---------------------------------------------------------------------------
# the prefetch producer's stop/sentinel protocol
# ---------------------------------------------------------------------------


class TestPartitionProducer:
    def _source(self, n, fail_at=None, closed=None):
        def generate():
            try:
                for i in range(n):
                    if fail_at is not None and i == fail_at:
                        raise RuntimeError("cursor exploded")
                    yield [i]
            finally:
                if closed is not None:
                    closed.append(True)
        return generate()

    def _wait_buffered(self, producer, count):
        deadline = time.monotonic() + 5.0
        while (producer._queue.qsize() < count
               and time.monotonic() < deadline):
            time.sleep(0.001)
        assert producer._queue.qsize() >= count

    def test_yields_everything_in_order(self):
        producer = _PartitionProducer(self._source(10), depth=2)
        assert list(producer.partitions()) == [[i] for i in range(10)]
        assert not producer._thread.is_alive()
        assert producer.leftover == 0

    def test_source_error_reraised_after_buffered_items(self):
        producer = _PartitionProducer(self._source(10, fail_at=3), depth=2)
        consumed = []
        with pytest.raises(RuntimeError, match="cursor exploded"):
            for item in producer.partitions():
                consumed.append(item)
        assert consumed == [[0], [1], [2]]
        assert not producer._thread.is_alive()

    def test_stop_drains_buffer_and_closes_source(self):
        closed = []
        producer = _PartitionProducer(
            self._source(100, closed=closed), depth=3
        )
        self._wait_buffered(producer, 3)
        producer.stop()
        assert not producer._thread.is_alive()
        # A failed scan must pin nothing: everything buffered was
        # drained and accounted for, and the source generator closed.
        assert producer.leftover == 3
        assert closed == [True]

    def test_stop_wakes_a_blocked_producer_promptly(self):
        # depth=1: the producer buffers one partition and blocks on the
        # permit semaphore.  stop() must wake and join it directly —
        # the old implementation spun on 0.05s put-timeouts instead.
        producer = _PartitionProducer(self._source(100), depth=1)
        self._wait_buffered(producer, 1)
        started = time.perf_counter()
        producer.stop()
        assert time.perf_counter() - started < 2.0
        assert not producer._thread.is_alive()
        assert producer.leftover == 1

    def test_stop_after_clean_completion_is_safe(self):
        producer = _PartitionProducer(self._source(3), depth=2)
        assert len(list(producer.partitions())) == 3
        producer.stop()
        assert producer.leftover == 0

    def test_adaptive_growth_caps_at_max_depth(self):
        producer = _PartitionProducer(iter([]), depth=2, max_depth=4)
        assert list(producer.partitions()) == []
        producer._consumed = 1
        for _ in range(5):
            producer._grow()
        assert producer.peak_depth == 4

    def test_no_growth_before_first_consumption(self):
        # Growing while the consumer has seen nothing would just raise
        # the configured depth; peak_depth must start at the configured
        # value so the trace's prefetch_depth contract holds.
        producer = _PartitionProducer(iter([[1]]), depth=2, max_depth=4)
        producer._grow()
        assert producer.peak_depth == 2
        assert list(producer.partitions()) == [[1]]


# ---------------------------------------------------------------------------
# middleware integration: equivalence, trace fields, fault injection
# ---------------------------------------------------------------------------


class TestColumnarIntegration:
    def test_columnar_and_row_paths_agree_end_to_end(self, monkeypatch):
        from repro.core import execution
        columnar, trace_on, cost_on = frontier_results(
            scan_workers=2, **PARALLEL
        )
        # "No numpy" is what sends a narrow batch down the pooled
        # row-tuple source.
        monkeypatch.setattr(execution, "columnar_available", lambda: False)
        row_tuple, trace_off, cost_off = frontier_results(
            scan_workers=2, **PARALLEL
        )
        rows = dataset_rows()
        for value in range(3):
            subset = [r for r in rows if r[0] == value]
            reference = build_cc_from_rows(subset, SPEC, ("A2",))
            assert columnar[f"n{value}"].cc == reference
            assert row_tuple[f"n{value}"].cc == reference
        assert trace_on[0].columnar
        assert not trace_off[0].columnar and trace_off[0].workers == 2
        assert cost_on == pytest.approx(cost_off)

    def test_trace_reports_ship_profile(self):
        _, trace, _ = frontier_results(scan_workers=2, **PARALLEL)
        record = trace[0]
        assert record.columnar
        assert record.ship_seconds >= 0.0
        assert record.prefetch_peak >= record.prefetch_depth

    def test_stats_count_columnar_scans(self):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000, scan_workers=2, **PARALLEL
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            assert mw.stats.columnar_scans == 1
            assert mw.trace[-1].columnar
            assert mw.trace[-1].partition_rows > 0

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

    def test_staged_file_bit_identical_across_shipping_paths(
            self, monkeypatch):
        from repro.core import execution
        serial = self._staged_root_bytes(**ROW_KERNEL)
        assert self._staged_root_bytes(scan_workers=1) == serial  # inline
        assert self._staged_root_bytes(scan_workers=2) == serial
        assert self._staged_root_bytes(
            scan_workers=2, scan_pool="process"
        ) == serial
        # No shared memory on the platform: partitions travel pickled.
        monkeypatch.setattr(execution, "shm_available", lambda: False)
        assert self._staged_root_bytes(
            scan_workers=2, scan_pool="process"
        ) == serial

    def test_file_and_memory_rescans_stay_columnar(self):
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
            assert all(r.columnar for r in mw.trace)


#: The three scan loops a session can run a large-enough scan through.
LOOPS = {
    "row-kernel": ROW_KERNEL,
    "inline": {"scan_workers": 1},
    "threads": {"scan_workers": 2},
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
        loops = [(r.columnar, r.workers) for r in mw.trace]
        meter = server.meter
        return {
            "ccs": ccs, "files": files, "captured": captured,
            "scans": scans, "events": dict(meter.counts),
        }, dict(meter.charges), loops


class TestThreeWayEquivalence:
    """Row kernel == inline == two threads, in everything but time."""

    # Staged files hold packed int32 records, so only the integer
    # data set can take the file plan.
    @pytest.mark.parametrize("data, plan", [
        ("int", "file-split"), ("int", "memory"),
        ("string", "memory"), ("nulls", "memory"),
    ])
    def test_sessions_agree(self, data, plan, tmp_path):
        rows, values = EQUIVALENCE_DATA[data]
        outcome = {}
        for loop, overrides in LOOPS.items():
            directory = tmp_path / loop
            outcome[loop] = _session_fingerprint(
                rows, values, directory, **EQUIVALENCE_PLANS[plan],
                **overrides,
            )
        reference, reference_charges, loops = outcome["row-kernel"]
        assert all(loop == (False, 1) for loop in loops)
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
        for loop, workers in (("inline", 1), ("threads", 2)):
            observed, charges, loops = outcome[loop]
            assert all(seen == (True, workers) for seen in loops)
            assert observed == reference
            # Per category, not just in total.
            assert charges == pytest.approx(reference_charges)


class TestInlineExecutor:
    """``scan_workers=1``: the columnar path with nothing beside it."""

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
                        assert record.columnar and record.workers == 1
                        assert record.prefetch_depth == 0
                        assert record.split_writers == 0
                        assert not record.cached
                        assert "(columnar)" in str(record)
                    scan = mw.trace[-1]
                    assert scan.workers == 1 and scan.columnar
                    assert scan.partition_rows == 4 * config.scan_chunk_rows
                    assert len(scan.worker_seconds) >= 2  # partitioned
                    assert mw.stats.parallel_scans == 0
                    assert mw.stats.cached_scans == 0
                    assert mw.stats.columnar_scans == mw.stats.batches
                    pool = mw.scan_pool
                    assert pool is not None and pool.inline
                    assert not pool.active and pool.pools_created == 0
                    assert "inline" in repr(pool)
                    assert f"{mw.stats.batches} columnar" in mw.report()
                    cache = mw.execution.scan_cache
                    assert cache is None or cache.resident_entries == 0
        finally:
            install_monitor(previous)
        assert started == []
        assert set(threading.enumerate()) == threads_before
        for kind in ("executor", "future", "scan-prefetch",
                     "staging-writer"):
            assert monitor.created.get(kind, 0) == 0
        assert monitor.live_kinds() == []

    @pytest.mark.parametrize("kind", ["thread", "process"])
    def test_one_worker_pool_counts_on_the_calling_thread(
            self, kind, monkeypatch):
        # The kernel entry points are looked up on the scan_pool module
        # at call time — where benchmarks/e2e/trace.py patches them.
        ran_on = []
        for name in ("count_partition_columnar", "count_partition_slice"):
            original = getattr(scan_pool, name)

            def recording(*args, _original=original, **kwargs):
                ran_on.append(threading.get_ident())
                return _original(*args, **kwargs)

            monkeypatch.setattr(scan_pool, name, recording)
        rows = _rows_null_heavy()
        condition_sets = DATASETS["null_heavy"][1]
        reference, _, _ = _reference(rows, condition_sets)
        kernel = RoutingKernel(condition_sets, ATTR_INDEX)
        slots = tuple(
            (f"n{slot}", ATTRS, ATTR_POSITIONS)
            for slot in range(len(condition_sets))
        )
        partitions = _partitions(rows)
        whole = ColumnarPartition.from_rows(rows)
        pool = ScanWorkerPool(kind, 1)
        try:
            assert pool.inline and not pool.remote
            pool.install(("sig",), kernel, slots, CLASS_INDEX, N_CLASSES)
            futures = [
                pool.submit_columnar(seq, partition, (), ())
                for seq, partition in enumerate(partitions)
            ]
            assert all(future.done() for future in futures)
            ccs, _, _ = _fold(
                [future.result() for future in futures], partitions,
                len(condition_sets),
            )
            assert ccs == reference
            sliced = [
                pool.submit_columnar_slice(
                    seq, whole, start, start + 7, None, (), ()
                ).result()[:6]
                for seq, start in enumerate(range(0, len(rows), 7))
            ]
            ccs, _, _ = _fold(sliced, partitions, len(condition_sets))
            assert ccs == reference
            row_future = pool.submit(0, rows, (), ())
            assert row_future.done()
            assert row_future.result()[1] == reference
        finally:
            pool.close()
        assert not pool.active and pool.pools_created == 0
        assert len(ran_on) == 2 * len(partitions)
        assert set(ran_on) == {threading.get_ident()}

    def test_inline_failure_propagates_from_submit(self):
        kernel = RoutingKernel([()], ATTR_INDEX)
        slots = (("n0", ATTRS, ATTR_POSITIONS),)
        pool = ScanWorkerPool("thread", 1)
        try:
            pool.install(("sig",), kernel, slots, CLASS_INDEX, N_CLASSES)
            poisoned = ColumnarPartition.from_rows([(1, 1, 99)])
            with pytest.raises(IndexError):
                pool.submit_columnar(0, poisoned, (), ())
        finally:
            pool.close()

    def _loop_of(self, **overrides):
        rows = dataset_rows()
        server = make_server(rows)
        overrides.setdefault("scan_workers", 1)
        config = MiddlewareConfig(memory_bytes=100_000, **overrides)
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            (result,) = mw.process_next_batch()
            assert result.cc == build_cc_from_rows(rows, SPEC, ("A1", "A2"))
            record = mw.trace[0]
            assert mw.scan_pool is None or record.columnar
            return record

    def test_sources_below_the_gate_keep_the_row_kernel(self):
        # 27 rows < the default scan_parallel_min_rows.
        record = self._loop_of()
        assert record.kernel and not record.columnar
        assert "(kernel)" in str(record)
        record = self._loop_of(scan_parallel_min_rows=len(dataset_rows()))
        assert record.columnar and record.workers == 1

    def test_per_row_loop_is_never_partitioned(self):
        record = self._loop_of(scan_kernel=False, **PARALLEL)
        assert not record.kernel and not record.columnar

    def test_without_numpy_the_row_kernel_runs(self, monkeypatch):
        from repro.core import execution
        monkeypatch.setattr(execution, "columnar_available", lambda: False)
        record = self._loop_of(**PARALLEL)
        assert record.kernel and not record.columnar

    def test_batches_wider_than_the_masks_keep_the_row_kernel(self):
        # 63 sibling nodes > MAX_SLOTS (62): the int64 candidate masks
        # cannot route them, and one worker has no row-tuple pool path.
        n_nodes = 63
        spec = type(SPEC)([n_nodes, 2], 2)
        rows = [(a1, a1 % 2, (a1 // 2) % 2) for a1 in range(n_nodes)] * 2
        server = SQLServer()
        load_dataset(server, "data", spec, rows)
        config = MiddlewareConfig.no_staging(
            1_000_000, scan_workers=1, **PARALLEL
        )
        with Middleware(server, "data", spec, config) as mw:
            for value in range(n_nodes):
                mw.queue_request(child_request(f"n{value}", value, rows))
            results = mw.process_next_batch()
            assert len(results) == n_nodes
            assert len(mw.trace[0].batch) == n_nodes
            assert mw.trace[0].kernel and not mw.trace[0].columnar
            assert mw.scan_pool is None
        with Middleware(server, "data", spec, config) as mw:
            for value in range(n_nodes - 1):
                mw.queue_request(child_request(f"n{value}", value, rows))
            mw.process_next_batch()
            assert len(mw.trace[0].batch) == n_nodes - 1
            assert mw.trace[0].columnar


class TestShmFaultInjection:
    @pytest.mark.skipif(not shm_available(), reason="no shared_memory")
    def test_failed_scan_leaks_no_segment_and_keeps_pool_warm(self):
        monitor = WitnessMonitor()
        previous = install_monitor(monitor)
        try:
            rows = dataset_rows()
            server = make_server(rows)
            # An out-of-range class label passes the SQL schema (it is
            # an int) but poisons the vectorized count in the worker.
            server.table("data").insert((0, 0, 99))
            config = MiddlewareConfig(
                memory_bytes=100_000,
                file_staging=False,
                memory_staging=False,
                scan_workers=2,
                scan_pool="process",
                scan_cache_bytes=0,  # the streaming failure path
                **PARALLEL,
            )
            with Middleware(server, "data", SPEC, config) as mw:
                mw.queue_request(root_request(rows))
                with pytest.raises(IndexError):
                    mw.process_next_batch()
                # Segments really shipped, and none survived the
                # failure — the witness would report a leak otherwise.
                assert monitor.created.get("shm-segment", 0) >= 1
                assert "shm-segment" not in monitor.live_kinds()
                # The session pool survived the worker error warm.
                pool = mw.scan_pool
                assert pool is not None and pool.active
            assert "executor" not in monitor.live_kinds()
            assert "shm-segment" not in monitor.live_kinds()
        finally:
            install_monitor(previous)

    @pytest.mark.skipif(not shm_available(), reason="no shared_memory")
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
        # the producer thread; the scan must surface the TypeError and
        # leave no partitions pinned.
        monitor = WitnessMonitor()
        previous = install_monitor(monitor)
        try:
            producer = _PartitionProducer(
                iter(
                    ColumnarPartition.from_rows([row])
                    for row in [(1, 1, 0), ([], 1, 0)]
                ),
                depth=2,
            )
            with pytest.raises(TypeError):
                list(producer.partitions())
            producer.stop()
            assert producer.leftover <= 1
            assert "scan-prefetch" not in monitor.live_kinds()
        finally:
            install_monitor(previous)


class TestColumnarConfig:
    def test_shared_memory_off_still_counts_correctly(self, monkeypatch):
        from repro.core import execution
        monkeypatch.setattr(execution, "shm_available", lambda: False)
        monkeypatch.setattr(
            ShmShipper, "ship",
            lambda *args, **kwargs: pytest.fail("shipped without shm"),
        )
        results, trace, _ = frontier_results(
            scan_workers=2, scan_pool="process", **PARALLEL,
        )
        rows = dataset_rows()
        for value in range(3):
            subset = [r for r in rows if r[0] == value]
            assert results[f"n{value}"].cc == build_cc_from_rows(
                subset, SPEC, ("A2",)
            )
        assert trace[0].columnar

    def test_adaptive_sizing_reacts_to_fast_scans(self):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000, scan_workers=2, **PARALLEL
        )
        with Middleware(server, "data", SPEC, config) as mw:
            sizer = mw.execution._sizer
            blind_before = sizer.blind_rows
            for value in range(3):
                mw.queue_request(child_request(f"n{value}", value, rows))
            while mw.pending:
                mw.process_next_batch()
            # 27-row scans finish far under the too-fast threshold, so
            # the blind target can only have grown (policy coarsens).
            assert sizer.blind_rows >= blind_before
            assert sizer.parts_per_worker == sizer.MIN_PARTS_PER_WORKER
