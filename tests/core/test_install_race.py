"""Regression: concurrent ``ScanWorkerPool.install`` must not tear.

Two sessions sharing the middleware's pool can install concurrently.
Before the fix, ``install`` mutated ``_generation``/``_ctx``/
``_signature``/``_payload`` outside ``self._lock``: the generation
bump raced (lost increments) and a generation could end up paired
with another install's kernel.  The runtime sanitizer catches the
unlocked version: ``TestInstallUnderSanitizer`` fails when the
``with self._lock:`` of ``install``, ``_ensure_executor``, ``close``
or ``retire_broken`` is dropped (no static rule sees these writes).
"""

import threading
import time
from concurrent.futures import BrokenExecutor

import pytest

from repro.analysis import runtime
from repro.core.scan_pool import ScanWorkerPool


@pytest.fixture
def new_guard_findings():
    """The guard findings a test adds.  Under ``REPRO_SANITIZE=1`` the
    plugin's sanitizer is already active and is shared (skipping would
    leave the sanitizer job blind to these writers); otherwise the
    test activates its own."""
    owned = runtime.active() is None
    sanitizer = runtime.activate()
    before = len(sanitizer.guard_findings())
    yield lambda: sanitizer.guard_findings()[before:]
    if owned:
        runtime.deactivate()


class TestInstallUnderSanitizer:
    def test_worker_thread_install_has_no_guard_violations(
            self, new_guard_findings):
        # The sanitizer's instrumented __setattr__ verifies the
        # declared lock is held on every guarded write — including
        # the install fields this regression is about.
        pool = ScanWorkerPool("thread", 2)
        errors = []

        def session(tag):
            try:
                pool.install(tag, kernel=tag, slots=(),
                             class_index=0, n_classes=2)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        workers = [
            threading.Thread(target=session, args=(f"sig{i % 2}",),
                             daemon=True)
            for i in range(4)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
        assert not any(worker.is_alive() for worker in workers)
        pool.close()
        assert not errors
        assert new_guard_findings() == []

    def test_retiring_a_broken_executor_holds_the_lock(
            self, new_guard_findings):
        # A dead worker's BrokenExecutor makes the pool drop its
        # executor; that write races close() and a late install, so
        # it must hold the declared lock like every other.
        pool = ScanWorkerPool("thread", 2)
        pool.install("sig", kernel="sig", slots=(), class_index=0,
                     n_classes=2)
        assert pool.active
        pool.retire_broken(BrokenExecutor())
        assert not pool.active
        pool.close()
        assert new_guard_findings() == []


class TestInstallAtomicity:
    def test_generation_matches_installs_and_ctx_pairs_signature(self):
        # Hammer install from many threads with two alternating
        # signatures: every refresh must keep (signature, ctx) paired
        # and the generation equal to the number of installs.
        pool = ScanWorkerPool("thread", 2)
        try:
            barrier = threading.Barrier(8)
            errors = []

            def session(index):
                signature = f"sig{index % 2}"
                try:
                    barrier.wait(timeout=10)
                    for _ in range(50):
                        pool.install(signature, kernel=signature,
                                     slots=(), class_index=0,
                                     n_classes=2)
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            workers = [
                threading.Thread(target=session, args=(index,))
                for index in range(8)
            ]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
            assert not errors
            # The installed context always pairs with the signature
            # that installed it (pre-fix, these could tear apart).
            assert pool._ctx is not None
            assert pool._ctx[0] == pool._signature
            # Every kernel refresh bumped the generation exactly once
            # (pre-fix, concurrent ``+= 1`` lost increments).
            assert pool._generation == pool.kernels_installed
            assert pool.scans_served == 8 * 50
        finally:
            pool.close()

    def test_racing_first_installs_create_one_executor(self):
        # The executor is created only after re-checking it under the
        # lock: two installs that both find the pool cold while the
        # lock is held elsewhere must still start one executor, and
        # the loser must not overwrite (and leak) the winner's.
        pool = ScanWorkerPool("thread", 2)
        try:
            racers = [
                threading.Thread(
                    target=pool.install, args=("sig",),
                    kwargs=dict(kernel="sig", slots=(), class_index=0,
                                n_classes=2),
                    daemon=True,
                )
                for _ in range(2)
            ]
            with pool._lock:
                for racer in racers:
                    racer.start()
                time.sleep(0.2)  # both racers reach the lock
            for racer in racers:
                racer.join(timeout=10)
            assert not any(racer.is_alive() for racer in racers)
            assert pool.pools_created == 1
        finally:
            pool.close()
