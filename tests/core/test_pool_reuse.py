"""Session-lifetime scan-worker pool: reuse, lifecycle, equivalence.

The pool is the tentpole of the executor's lifecycle rework: one
:class:`~repro.core.scan_pool.ScanWorkerPool` per middleware session,
created lazily on the first scan that goes parallel, reused by every
later scan (including scans of *later* ``fit()`` calls sharing the
session), and torn down by ``Middleware.close()``.  Reuse must be
invisible to results: CC tables and fitted trees are identical whether
the pool is warm or cold.
"""

import pytest

from repro.client.decision_tree import DecisionTreeClassifier
from repro.common.errors import MiddlewareError
from repro.core.config import MiddlewareConfig
from repro.core.middleware import Middleware
from repro.core.scan_pool import ScanWorkerPool
from repro.datagen.loader import load_dataset
from repro.datagen.random_tree import RandomTreeConfig, build_random_tree
from repro.sqlengine.columnar import ColumnarPartition
from repro.sqlengine.database import SQLServer

from ..conftest import tree_signature

#: 8-row chunks: the small generated data sets are several partitions
#: long, so their scans go to the pool.
PARALLEL = {"scan_chunk_rows": 8}


def generated():
    return build_random_tree(
        RandomTreeConfig(
            n_attributes=5,
            values_per_attribute=3,
            n_classes=3,
            n_leaves=6,
            cases_per_leaf=10,
            seed=23,
        )
    )


def make_middleware(generating, **overrides):
    server = SQLServer()
    load_dataset(server, "data", generating.spec, generating.materialize())
    overrides.setdefault("memory_bytes", 50_000)
    return Middleware(
        server, "data", generating.spec, MiddlewareConfig(**overrides)
    )


def fit_tree(middleware):
    classifier = DecisionTreeClassifier()
    classifier.fit(middleware)
    return classifier.tree


class TestPoolLifecycle:
    def test_pool_created_lazily_on_first_parallel_scan(self):
        generating = generated()
        with make_middleware(generating, scan_workers=2, **PARALLEL) as mw:
            assert mw.scan_pool is None  # nothing scanned yet
            fit_tree(mw)
            assert mw.scan_pool is not None
            assert mw.scan_pool.active

    def test_serial_sessions_never_start_an_executor(self):
        generating = generated()
        with make_middleware(generating, scan_workers=1) as mw:
            fit_tree(mw)
            pool = mw.scan_pool
            assert pool.inline and not pool.active
            assert pool.pools_created == 0
            assert pool.scans_served == mw.stats.batches

    def test_close_tears_the_pool_down(self):
        generating = generated()
        mw = make_middleware(generating, scan_workers=2, **PARALLEL)
        try:
            fit_tree(mw)
            pool = mw.scan_pool
            assert pool.active
        finally:
            mw.close()
        assert not pool.active
        with pytest.raises(MiddlewareError, match="closed"):
            pool.install(("sig",), None, (), 0, 1)


class TestPoolReuseAcrossFits:
    def test_same_pool_object_serves_consecutive_fits(self):
        generating = generated()
        with make_middleware(generating, scan_workers=2, **PARALLEL) as mw:
            first_tree = fit_tree(mw)
            pool_after_first = mw.scan_pool
            assert pool_after_first is not None
            scans_after_first = pool_after_first.scans_served
            second_tree = fit_tree(mw)
            # Same pool object, one executor for the whole session.
            assert mw.scan_pool is pool_after_first
            assert mw.scan_pool.pools_created == 1
            assert mw.scan_pool.scans_served > scans_after_first
            # Kernel state was re-installed for the second fit's
            # schedules (its frontiers repeat the first fit's kernels).
            assert mw.scan_pool.kernels_installed >= 2
            assert tree_signature(first_tree.root) == tree_signature(
                second_tree.root
            )

    def test_warm_scans_pay_no_executor_setup(self):
        generating = generated()
        with make_middleware(generating, scan_workers=2, **PARALLEL) as mw:
            fit_tree(mw)
            parallel_records = [
                record for record in mw.trace if record.workers > 1
            ]
            assert len(parallel_records) >= 2
            # Only the first parallel scan can pay executor creation;
            # later scans at most re-broadcast a changed kernel.
            assert mw.scan_pool.pools_created == 1
            assert mw.scan_pool.scans_served == len(parallel_records)


class TestPoolEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_tree_identical_to_fresh_pool_run(self, workers):
        # A fit on a pool another fit already warmed (kernels
        # installed) against the first fit of a fresh session.
        generating = generated()
        with make_middleware(
            generating, scan_workers=workers, **PARALLEL
        ) as mw:
            fit_tree(mw)
            reused = fit_tree(mw)
        with make_middleware(
            generating, scan_workers=workers, **PARALLEL
        ) as mw:
            fresh = fit_tree(mw)
        assert tree_signature(reused.root) == tree_signature(fresh.root)

    def test_worker_counts_agree_on_one_session(self):
        generating = generated()
        signatures = set()
        for workers in (1, 2, 4):
            with make_middleware(
                generating, scan_workers=workers, **PARALLEL
            ) as mw:
                signatures.add(tree_signature(fit_tree(mw).root))
        assert len(signatures) == 1

    def test_process_pool_reuse_equivalent(self):
        generating = generated()
        with make_middleware(
            generating, scan_workers=2, scan_pool="process", **PARALLEL
        ) as mw:
            process_tree = fit_tree(mw)
            assert mw.scan_pool.pools_created == 1
        with make_middleware(generating, scan_workers=1) as mw:
            serial_tree = fit_tree(mw)
        assert tree_signature(process_tree.root) == tree_signature(
            serial_tree.root
        )


class TestScanWorkerPoolUnit:
    def test_rejects_bad_construction(self):
        with pytest.raises(MiddlewareError):
            ScanWorkerPool("fiber", 2)
        with pytest.raises(MiddlewareError):
            ScanWorkerPool("thread", 0)

    def test_submit_requires_installed_context(self):
        pool = ScanWorkerPool("thread", 1)
        with pytest.raises(MiddlewareError, match="context"):
            pool.submit(0, ColumnarPartition(0, ()), 0, 0, (), ())
        pool.close()

    def test_install_skips_rebroadcast_for_same_signature(self):
        pool = ScanWorkerPool("thread", 2)
        try:
            pool.install(("a",), "kernel", (), 0, 2)
            assert pool.kernels_installed == 1
            pool.install(("a",), "kernel", (), 0, 2)
            assert pool.kernels_installed == 1  # unchanged signature
            pool.install(("b",), "kernel2", (), 0, 2)
            assert pool.kernels_installed == 2
            assert pool.scans_served == 3
            assert pool.pools_created == 1
        finally:
            pool.close()

    def test_repr_tracks_lifecycle(self):
        pool = ScanWorkerPool("thread", 2)
        assert "cold" in repr(pool)
        pool.install(("a",), "kernel", (), 0, 2)
        assert "warm" in repr(pool)
        pool.close()
        assert "closed" in repr(pool)
