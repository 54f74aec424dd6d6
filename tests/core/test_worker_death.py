"""A process worker killed between scans.

``ScanWorkerPool.retire_broken`` exists for one failure: a worker
process that dies under the pool.  Here one is really killed
(``SIGKILL``) between two scans of a warm process x 2 session:

* the next scan ends in a clean ``BrokenProcessPool`` — every CC and
  memory reservation returned, no abandoned staged file, nothing live
  under the resource witness but the columnar cache's own segments;
* the scan after it rebuilds the executor and counts the reference CC
  tables;
* a scan that fits in one partition, run while the executor is down,
  counts inline — over a resident encoding too, whose segment no
  worker is left to read.
"""

import os
import signal
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

pytest.importorskip("numpy")

from repro.client.baselines import build_cc_from_rows  # noqa: E402
from repro.common.locks import install_monitor  # noqa: E402
from repro.core.config import MiddlewareConfig  # noqa: E402
from repro.core.filters import PathCondition  # noqa: E402
from repro.core.middleware import Middleware  # noqa: E402
from repro.core.requests import CountsRequest  # noqa: E402
from repro.datagen.dataset import DatasetSpec  # noqa: E402
from repro.datagen.loader import load_dataset  # noqa: E402
from repro.sqlengine.database import SQLServer  # noqa: E402

from ..conftest import WitnessMonitor  # noqa: E402

SPEC = DatasetSpec([3, 3], 2)
ROWS = [(a, b, (a + b) % 2) for a in range(3) for b in range(3)
        for _ in range(4)]

#: 16-row chunks: the 36-row root is three partitions, a 12-row child
#: one.
PROCESSES = {"scan_workers": 2, "scan_pool": "process",
             "scan_chunk_rows": 16}

#: name -> the plan whose second scan the dead worker breaks.
PLANS = {
    # The root's file is split per child by a pooled FILE scan over
    # the file's resident encoding: workers read its segment.
    "file-split": {"memory_staging": False, "file_split_threshold": 1.0},
    # The root is captured into memory and the children counted by a
    # MEMORY scan: workers get pickled slices.
    "memory": {"file_staging": False},
    # No staging: every scan slices the table's resident encoding.
    "no-staging": {"file_staging": False, "memory_staging": False},
}


def root_request():
    return CountsRequest(
        node_id="root", lineage=("root",), conditions=(),
        attributes=("A1", "A2"), n_rows=len(ROWS), est_cc_pairs=6,
    )


def child_request(value):
    return CountsRequest(
        node_id=f"n{value}", lineage=("root", f"n{value}"),
        conditions=(PathCondition("A1", "=", value),), attributes=("A2",),
        n_rows=sum(1 for row in ROWS if row[0] == value), est_cc_pairs=3,
    )


def reference(value):
    return build_cc_from_rows(
        [row for row in ROWS if row[0] == value], SPEC, ("A2",)
    )


def count(mw, values):
    """Queue one child per value, drain the queue, return the CCs."""
    mw.queue_requests([child_request(value) for value in values])
    counted = {}
    while mw.pending:
        for result in mw.process_next_batch():
            counted[result.node_id] = result.cc
    return counted


def kill_a_worker(pool):
    """SIGKILL one of the pool's worker processes and wait until the
    executor has noticed, so the next submit meets a broken pool."""
    executor = pool._executor
    pid = next(iter(executor._processes))
    os.kill(pid, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while not executor._broken:
        assert time.monotonic() < deadline, "the executor never broke"
        time.sleep(0.01)


@pytest.fixture
def session(tmp_path, request):
    """A warm process x 2 session of ``request.param``'s plan (its
    root counted by the pool), then the witness watching it."""
    server = SQLServer()
    load_dataset(server, "data", SPEC, ROWS)
    config = MiddlewareConfig(
        memory_bytes=50_000, staging_dir=str(tmp_path),
        **PROCESSES, **PLANS[request.param],
    )
    monitor = WitnessMonitor()
    previous = install_monitor(monitor)
    try:
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request())
            (root,) = mw.process_next_batch()
            assert root.cc == build_cc_from_rows(ROWS, SPEC, ("A1", "A2"))
            pool = mw.scan_pool
            assert pool.active and pool.pools_created == 1
            yield mw, monitor
        assert monitor.live_kinds() == []
    finally:
        install_monitor(previous)


class TestKilledWorker:
    @pytest.mark.parametrize("session", sorted(PLANS), indirect=True)
    def test_next_scan_breaks_cleanly_and_the_one_after_rebuilds(
            self, session, tmp_path):
        mw, monitor = session
        pool = mw.scan_pool
        before = (mw.staging.file_nodes(), sorted(os.listdir(tmp_path)),
                  mw.staging.memory_nodes(), sorted(mw.budget.tags()))
        kill_a_worker(pool)

        with pytest.raises(BrokenProcessPool):
            count(mw, range(3))
        # Nothing of the failed scan survives it.
        assert (mw.staging.file_nodes(), sorted(os.listdir(tmp_path)),
                mw.staging.memory_nodes(),
                sorted(mw.budget.tags())) == before
        assert not mw.pending
        # The dead executor was retired; only the columnar cache's
        # segments (resident encodings) are still live.
        assert not pool.active and pool.pools_created == 1
        cache = mw.execution.scan_cache
        live = monitor.live_kinds()
        assert set(live) <= {"shm-segment"}
        assert live.count("shm-segment") == cache.live_segments

        # The same session rebuilds its executor and counts exactly.
        assert count(mw, range(3)) == {
            f"n{value}": reference(value) for value in range(3)
        }
        assert pool.active and pool.pools_created == 2
        assert mw.trace[-1].workers == 2

    @pytest.mark.parametrize("session", ["no-staging"], indirect=True)
    def test_a_one_partition_scan_counts_inline_while_the_pool_is_down(
            self, session):
        mw, _ = session
        pool = mw.scan_pool
        kill_a_worker(pool)
        with pytest.raises(BrokenProcessPool):
            count(mw, range(3))
        # A 12-row child fits in one partition, so no executor is
        # started for it: it is counted inline over the table's
        # resident encoding, whose segment the dead workers had read.
        assert count(mw, [1]) == {"n1": reference(1)}
        record = mw.trace[-1]
        assert record.workers == 1 and record.cache_hit
        assert not pool.active and pool.pools_created == 1
