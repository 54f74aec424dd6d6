"""Unit tests for the staging manager and staged files."""

import os

import pytest

from repro.common.cost import CostMeter, CostModel
from repro.common.errors import StagingError
from repro.common.memory import MemoryBudget
from repro.core.requests import CountsRequest
from repro.core.staging import DataLocation, StagingManager
from repro.datagen.dataset import DatasetSpec
from repro.sqlengine.columnar import ColumnarPartition

from ..conftest import pieces

SPEC = DatasetSpec([3, 3], 2)  # rows are (A1, A2, class)


def make_request(node_id, lineage):
    return CountsRequest(
        node_id=node_id,
        lineage=lineage,
        conditions=(),
        attributes=("A1", "A2"),
        n_rows=5,
        est_cc_pairs=4,
    )


@pytest.fixture
def manager(tmp_path):
    meter = CostMeter()
    model = CostModel()
    budget = MemoryBudget(10_000)
    manager = StagingManager(
        SPEC, meter, model, budget, staging_dir=str(tmp_path)
    )
    manager._test_meter = meter
    manager._test_model = model
    manager._test_budget = budget
    yield manager
    manager.close()


class TestDataLocation:
    def test_ordering(self):
        assert DataLocation.MEMORY > DataLocation.FILE > DataLocation.SERVER

    def test_paper_tags(self):
        assert DataLocation.SERVER.tag == "S"
        assert DataLocation.FILE.tag == "I"
        assert DataLocation.MEMORY.tag == "L"


class TestStagedFile:
    def test_write_seal_scan_round_trip(self, manager):
        staged = manager.open_file("n1")
        rows = [(0, 1, 0), (2, 2, 1), (1, 0, 1)]
        for row in rows:
            staged.append(row)
        staged.seal()
        assert staged.row_count == 3
        assert list(staged.scan()) == rows

    def test_scan_before_seal_rejected(self, manager):
        staged = manager.open_file("n1")
        with pytest.raises(StagingError):
            list(staged.scan())

    def test_append_after_seal_rejected(self, manager):
        staged = manager.open_file("n1")
        staged.seal()
        with pytest.raises(StagingError):
            staged.append((0, 0, 0))

    def test_seal_charges_writes(self, manager):
        meter = manager._test_meter
        staged = manager.open_file("n1")
        staged.append((0, 0, 0))
        staged.append((1, 1, 1))
        assert meter.charges["file_write"] == 0  # charged at seal
        staged.seal()
        assert meter.charges["file_write"] == pytest.approx(
            2 * manager._test_model.file_write_row
        )

    def test_scan_charges_reads(self, manager):
        staged = manager.open_file("n1")
        staged.append((0, 0, 0))
        staged.seal()
        before = manager._test_meter.charges["file_read"]
        list(staged.scan())
        after = manager._test_meter.charges["file_read"]
        assert after - before == pytest.approx(
            manager._test_model.file_row_io
        )

    def test_every_read_path_charges_the_same(self, manager):
        pytest.importorskip("numpy")
        meter = manager._test_meter
        staged = manager.open_file("n1")
        staged.append_rows(
            [(i % 3, (i * 7) % 3, i % 2) for i in range(100)]
        )
        staged.seal()

        def read_charge(read):
            before = meter.charges["file_read"], meter.counts["file_read"]
            read()
            return (meter.charges["file_read"] - before[0],
                    meter.counts["file_read"] - before[1])

        streamed = read_charge(lambda: list(staged.scan()))
        assert streamed == (
            pytest.approx(100 * manager._test_model.file_row_io), 100
        )
        assert read_charge(lambda: list(staged.scan_blocks())) == streamed
        assert read_charge(staged.charge_cached_read) == streamed

    def test_scan_closed_early_charges_the_rows_it_read(self, manager):
        meter = manager._test_meter
        staged = manager.open_file("n1")
        staged.append_rows([(0, 0, 0)] * 100)
        staged.seal()
        scan = staged.scan()
        for _ in range(7):
            next(scan)
        scan.close()
        assert meter.counts["file_read"] == 7
        assert meter.charges["file_read"] == pytest.approx(
            7 * manager._test_model.file_row_io
        )

    def test_delete_removes_file(self, manager):
        staged = manager.open_file("n1")
        staged.append((0, 0, 0))
        staged.seal()
        path = staged.path
        assert os.path.exists(path)
        staged.delete()
        assert not os.path.exists(path)


class TestScanGuards:
    """Determinism guards on `StagedFile.scan` (parallel-scan era)."""

    def test_scan_of_a_torn_file_rejected(self, manager):
        # A sealed file must hold every committed row; if the bytes on
        # disk ever fall short of that, every reader must refuse rather
        # than yield a torn row set.
        staged = manager.open_file("n1")
        staged.append_rows([(0, 0, 0), (1, 1, 1)])
        staged.seal()
        os.truncate(staged.path, 12 + 5)
        with pytest.raises(StagingError, match="torn"):
            list(staged.scan())
        with pytest.raises(StagingError, match="torn"):
            list(staged.scan_blocks())
        with pytest.raises(StagingError, match="torn"):
            list(staged.scan_blocks(1))
        staged.delete()  # the failed readers let go of the file

    def test_interleaved_scans_both_complete(self, manager):
        staged = manager.open_file("n1")
        rows = [(i % 3, (i * 7) % 3, i % 2) for i in range(100)]
        staged.append_rows(rows)
        staged.seal()
        before = manager._test_meter.counts["file_read"]
        first, second = staged.scan(), staged.scan()
        collected = ([], [])
        for row_a, row_b in zip(first, second):
            collected[0].append(row_a)
            collected[1].append(row_b)
        # zip leaves the second generator suspended on its last row;
        # drain both so the per-scan read charges are finalized.
        collected[0].extend(first)
        collected[1].extend(second)
        assert collected[0] == rows
        assert collected[1] == rows
        # Each scan opened its own handle and metered its own rows.
        assert manager._test_meter.counts["file_read"] - before == \
            2 * len(rows)

    def test_delete_during_active_scan_rejected(self, manager):
        staged = manager.open_file("n1")
        staged.append_rows([(0, 0, 0), (1, 1, 1)])
        staged.seal()
        scan = staged.scan()
        assert next(scan) == (0, 0, 0)
        with pytest.raises(StagingError, match="still active"):
            staged.delete()
        scan.close()  # finishing the scan releases the guard
        staged.delete()
        assert not os.path.exists(staged.path)


class TestBlockIO:
    def test_block_write_scan_round_trip(self, manager):
        staged = manager.open_file("n1")
        # Spill across several write blocks and read blocks.
        rows = [(i % 3, (i * 7) % 3, i % 2)
                for i in range(staged.BLOCK_ROWS * 2 + 123)]
        staged.append_rows(rows)
        staged.seal()
        assert staged.row_count == len(rows)
        assert list(staged.scan()) == rows

    def test_mixed_append_modes_preserve_order(self, manager):
        staged = manager.open_file("n1")
        staged.append((0, 0, 0))
        staged.append_rows([(1, 1, 1), (2, 2, 0)])
        staged.append((0, 2, 1))
        staged.seal()
        assert list(staged.scan()) == [
            (0, 0, 0), (1, 1, 1), (2, 2, 0), (0, 2, 1)
        ]

    def test_append_rows_after_seal_rejected(self, manager):
        staged = manager.open_file("n1")
        staged.seal()
        with pytest.raises(StagingError):
            staged.append_rows([(0, 0, 0)])

    def test_block_writes_keep_per_row_metering(self, manager):
        meter = manager._test_meter
        staged = manager.open_file("n1")
        rows = [(i % 3, i % 3, i % 2) for i in range(50)]
        staged.append_rows(rows)
        assert meter.charges["file_write"] == 0  # still charged at seal
        staged.seal()
        assert meter.charges["file_write"] == pytest.approx(
            len(rows) * manager._test_model.file_write_row
        )
        before = meter.charges["file_read"]
        assert len(list(staged.scan())) == len(rows)
        assert meter.charges["file_read"] - before == pytest.approx(
            len(rows) * manager._test_model.file_row_io
        )

    def test_unflushed_rows_visible_after_seal(self, manager):
        # Fewer rows than one block: everything sits in the buffer
        # until seal flushes it.
        staged = manager.open_file("n1")
        staged.append_rows([(1, 2, 0)])
        assert os.path.getsize(staged.path) == 0
        staged.seal()
        assert list(staged.scan()) == [(1, 2, 0)]

    def test_empty_append_rows_is_a_strict_noop(self, manager):
        # A zero-row split partition must not bump flush counters or
        # touch the meter — parallel split scans routinely hand a
        # writer empty slices.
        meter = manager._test_meter
        staged = manager.open_file("n1")
        staged.append_rows([(0, 0, 0)])
        counters = (staged.write_calls, staged.row_count)
        charges = dict(meter.charges)
        for payload in ([], iter(()), (row for row in ()),
                        ColumnarPartition.from_rows([]),
                        pieces([(1, 1, 1)])[0].slice(0, 0)):
            staged.append_rows(payload)
        assert (staged.write_calls, staged.row_count) == counters
        assert dict(meter.charges) == charges
        staged.seal()
        assert list(staged.scan()) == [(0, 0, 0)]
        assert meter.charges["file_write"] == pytest.approx(
            manager._test_model.file_write_row
        )

    def test_write_counters_track_real_appends(self, manager):
        staged = manager.open_file("n1")
        assert staged.write_calls == 0
        staged.append((0, 0, 0))
        staged.append_rows([(1, 1, 1), (2, 2, 0)])
        assert staged.write_calls == 2
        # One write per piece, whatever its length, rows or arrays.
        staged.append_rows(
            [(i % 3, i % 3, i % 2) for i in range(staged.BLOCK_ROWS)]
        )
        staged.append_rows(pieces([(2, 0, 1)] * 5000)[0])
        assert staged.write_calls == 4
        assert staged.row_count == 3 + staged.BLOCK_ROWS + 5000
        staged.seal()
        assert os.path.getsize(staged.path) == 12 * staged.row_count


class TestResolve:
    def test_unstaged_resolves_to_server(self, manager):
        request = make_request(3, (0, 1, 3))
        assert manager.resolve(request) == (DataLocation.SERVER, None)

    def test_file_ancestor(self, manager):
        staged = manager.open_file(1)
        staged.seal()
        request = make_request(3, (0, 1, 3))
        assert manager.resolve(request) == (DataLocation.FILE, 1)

    def test_memory_beats_file(self, manager):
        manager.open_file(1).seal()
        manager.reserve_memory(0, 2)
        manager.commit_memory(0, pieces([(0, 0, 0), (1, 1, 1)]))
        request = make_request(3, (0, 1, 3))
        assert manager.resolve(request) == (DataLocation.MEMORY, 0)

    def test_nearest_ancestor_wins_within_tier(self, manager):
        manager.open_file(0).seal()
        manager.open_file(1).seal()
        request = make_request(3, (0, 1, 3))
        assert manager.resolve(request) == (DataLocation.FILE, 1)

    def test_non_ancestor_staging_ignored(self, manager):
        manager.open_file(7).seal()
        request = make_request(3, (0, 1, 3))
        assert manager.resolve(request) == (DataLocation.SERVER, None)


class TestMemoryStaging:
    def test_reserve_and_commit(self, manager):
        budget = manager._test_budget
        assert manager.reserve_memory("n", 10)
        assert budget.used == 10 * SPEC.row_bytes
        manager.commit_memory("n", pieces([(0, 0, 0)] * 8))
        # Reservation resized down to the actual row count.
        assert budget.used == 8 * SPEC.row_bytes
        assert manager.memory_rows("n") == [(0, 0, 0)] * 8
        assert manager.columnar_memory("n").n_rows == 8

    def test_commit_charges_load(self, manager):
        manager.reserve_memory("n", 2)
        manager.commit_memory("n", pieces([(0, 0, 0), (1, 1, 1)]))
        assert manager._test_meter.charges["memory_load"] == pytest.approx(
            2 * manager._test_model.memory_load_row
        )

    def test_reserve_beyond_budget_fails(self, manager):
        assert not manager.reserve_memory("n", 100_000)

    def test_double_commit_rejected(self, manager):
        manager.reserve_memory("n", 1)
        manager.commit_memory("n", pieces([(0, 0, 0)]))
        with pytest.raises(StagingError):
            manager.commit_memory("n", pieces([(0, 0, 0)]))

    def test_cancel_reservation(self, manager):
        manager.reserve_memory("n", 5)
        manager.cancel_memory_reservation("n")
        assert manager._test_budget.used == 0

    def test_drop_releases_budget(self, manager):
        manager.reserve_memory("n", 1)
        manager.commit_memory("n", pieces([(0, 0, 0)]))
        manager.drop_memory("n")
        assert manager._test_budget.used == 0
        with pytest.raises(StagingError):
            manager.memory_rows("n")


class TestFileBudget:
    def test_unlimited_by_default(self, manager):
        assert manager.file_space_for(10**9)

    def test_budget_enforced(self, tmp_path):
        meter = CostMeter()
        budget = MemoryBudget(1000)
        manager = StagingManager(
            SPEC,
            meter,
            CostModel(),
            budget,
            staging_dir=str(tmp_path),
            file_budget_bytes=SPEC.row_bytes * 10,
        )
        assert manager.file_space_for(10)
        staged = manager.open_file("a")
        for _ in range(8):
            staged.append((0, 0, 0))
        staged.seal()
        assert manager.file_space_for(2)
        assert not manager.file_space_for(3)
        manager.close()


class TestGarbageCollection:
    def test_drops_unreferenced_staging(self, manager):
        manager.open_file(1).seal()
        manager.reserve_memory(2, 1)
        manager.commit_memory(2, pieces([(0, 0, 0)]))
        # Pending request descends from neither 1 nor 2.
        pending = [make_request(9, (0, 9))]
        dropped = manager.garbage_collect(pending)
        assert set(dropped) == {1, 2}
        assert manager.file_nodes() == []
        assert manager.memory_nodes() == []

    def test_keeps_resolving_sources(self, manager):
        manager.open_file(1).seal()
        pending = [make_request(3, (0, 1, 3))]
        assert manager.garbage_collect(pending) == []
        assert manager.file_nodes() == [1]

    def test_drops_file_shadowed_by_memory(self, manager):
        manager.open_file(1).seal()
        manager.reserve_memory(0, 1)
        manager.commit_memory(0, pieces([(0, 0, 0)]))
        pending = [make_request(3, (0, 1, 3))]
        dropped = manager.garbage_collect(pending)
        # Memory at the root shadows the file at node 1 (Rule 1).
        assert dropped == [1]

    def test_empty_queue_drops_everything(self, manager):
        manager.open_file(1).seal()
        assert manager.garbage_collect([]) == [1]


class TestEviction:
    def test_evict_memory_except(self, manager):
        for node in ("a", "b", "c"):
            manager.reserve_memory(node, 1)
            manager.commit_memory(node, pieces([(0, 0, 0)]))
        freed = manager.evict_memory_except("b")
        assert freed == 2 * SPEC.row_bytes
        assert manager.memory_nodes() == ["b"]


class TestClose:
    def test_close_removes_files_and_reservations(self, tmp_path):
        meter = CostMeter()
        budget = MemoryBudget(1000)
        manager = StagingManager(
            SPEC, meter, CostModel(), budget, staging_dir=str(tmp_path)
        )
        staged = manager.open_file("x")
        staged.append((0, 0, 0))
        staged.seal()
        manager.reserve_memory("y", 1)
        manager.commit_memory("y", pieces([(0, 0, 0)]))
        path = staged.path
        manager.close()
        assert not os.path.exists(path)
        assert budget.used == 0


class TestMeteredCostParity:
    """Simulated staging costs are identical serial vs parallel.

    The parallel executor (split writers, worker pools) may
    only move wall-clock time around; every metered charge — file
    writes at seal, file reads on later scans, memory loads — must
    match the serial run to the cent, including on §4.3.2 split scans
    where parallel runs hand writers empty partition slices.
    """

    def _split_run_cost(self, workers):
        from repro.core.config import MiddlewareConfig
        from repro.core.filters import PathCondition
        from repro.core.middleware import Middleware
        from repro.datagen.loader import load_dataset
        from repro.sqlengine.database import SQLServer

        rows = [(a, b, (a + b) % 2) for a in range(3) for b in range(3)
                for _ in range(3)]
        server = SQLServer()
        load_dataset(server, "data", SPEC, rows)
        config = MiddlewareConfig(
            memory_bytes=100_000,
            memory_staging=False,
            file_split_threshold=1.0,
            scan_workers=workers,
            scan_chunk_rows=2,
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(
                CountsRequest(
                    node_id="root",
                    lineage=("root",),
                    conditions=(),
                    attributes=("A1", "A2"),
                    n_rows=len(rows),
                    est_cc_pairs=6,
                )
            )
            mw.process_next_batch()
            for value in range(3):
                subset = sum(1 for r in rows if r[0] == value)
                mw.queue_request(
                    CountsRequest(
                        node_id=f"n{value}",
                        lineage=("root", f"n{value}"),
                        conditions=(PathCondition("A1", "=", value),),
                        attributes=("A2",),
                        n_rows=subset,
                        est_cc_pairs=3,
                    )
                )
            while mw.pending:
                mw.process_next_batch()
            breakdown = dict(server.meter.breakdown())
        return server.meter.total, breakdown

    def test_split_scan_costs_identical_across_workers(self):
        serial_total, serial_breakdown = self._split_run_cost(1)
        assert serial_breakdown.get("file_write", 0) > 0  # really staged
        for workers in (2, 4):
            total, breakdown = self._split_run_cost(workers)
            assert total == pytest.approx(serial_total)
            assert breakdown.keys() == serial_breakdown.keys()
            for charge, amount in serial_breakdown.items():
                assert breakdown[charge] == pytest.approx(amount), charge
