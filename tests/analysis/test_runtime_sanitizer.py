"""The runtime sanitizer catches each seeded violation, actionably.

Every test installs its own :class:`Sanitizer` (restoring the previous
monitor afterwards) so these seeded findings never leak into the
``REPRO_SANITIZE=1`` plugin's global run.
"""

from __future__ import annotations

import contextlib
import gc
import importlib.util
import os
import threading
import time

import pytest

from repro.analysis import runtime
from repro.analysis.runtime.contracts import ContractRegistry
from repro.analysis.runtime.locks import SanitizedLock, find_cycles
from repro.analysis.runtime.sanitizer import Sanitizer
from repro.common.locks import LockMonitor, install_monitor

FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "runtime_seeded.py")


def _load_fixture_module():
    """A fresh copy of the seeded-violation module (fresh classes)."""
    spec = importlib.util.spec_from_file_location("runtime_seeded", FIXTURE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def sanitizer_on(module):
    """A sanitizer installed as the monitor, ``module``'s contracts armed."""
    registry = ContractRegistry()
    registry.scan_file(module.__file__, module=module.__name__)
    sanitizer = Sanitizer(registry)
    previous = install_monitor(sanitizer)
    try:
        sanitizer.instrument_module(module)
        yield sanitizer
    finally:
        sanitizer.uninstrument()
        install_monitor(previous)


@contextlib.contextmanager
def seeded_sanitizer():
    """(sanitizer, fixture_module) with the monitor installed."""
    module = _load_fixture_module()
    with sanitizer_on(module) as sanitizer:
        yield sanitizer, module


class TestLockOrderCycle:
    def test_ab_ba_cycle_reported_with_both_stacks(self):
        with seeded_sanitizer() as (sanitizer, module):
            pair = module.CrossedPair()
            t1 = threading.Thread(target=pair.forward, args=(1,),
                                  name="fwd-thread")
            t2 = threading.Thread(target=pair.backward, name="bwd-thread")
            t1.start(); t1.join()
            t2.start(); t2.join()

            findings = sanitizer.graph.cycle_findings()
            assert len(findings) == 1
            finding = findings[0]
            assert finding.rule == "lock-order-cycle"
            assert "CrossedPair._a" in finding.message
            assert "CrossedPair._b" in finding.message
            # Both acquisition sites, each with a real stack naming the
            # acquiring thread and the fixture source line.
            labels = [label for label, _ in finding.sites]
            stacks = "".join(stack for _, stack in finding.sites)
            assert len(finding.sites) == 4  # 2 edges x (outer, inner)
            assert any("fwd-thread" in label for label in labels)
            assert any("bwd-thread" in label for label in labels)
            assert "runtime_seeded.py" in stacks
            assert "forward" in stacks and "backward" in stacks

    def test_consistent_order_is_clean(self):
        with seeded_sanitizer() as (sanitizer, module):
            pair = module.CrossedPair()
            for _ in range(3):
                pair.forward(1)  # only ever _a -> _b
            assert sanitizer.graph.cycle_findings() == []
            assert sanitizer.observed_edges() == [
                ["CrossedPair._a", "CrossedPair._b"]
            ]

    def test_edge_records_collect_every_holding_thread(self):
        # The first example's stacks are kept once, but the thread set
        # grows on every occurrence — that is what the v2 witness file
        # stores.
        with seeded_sanitizer() as (sanitizer, module):
            pair = module.CrossedPair()
            for name in ("fwd-A", "fwd-B"):
                worker = threading.Thread(
                    target=pair.forward, args=(1,), name=name
                )
                worker.start()
                worker.join()
            assert sanitizer.graph.edge_records() == [
                {"outer": "CrossedPair._a", "inner": "CrossedPair._b",
                 "threads": ["fwd-A", "fwd-B"]},
            ]

    def test_find_cycles_canonicalises(self):
        cycles = find_cycles([("A", "B"), ("B", "A"), ("B", "C")])
        assert cycles == [("A", "B")]
        assert find_cycles([("A", "B"), ("B", "C"), ("C", "A")]) == \
            [("A", "B", "C")]
        assert find_cycles([("A", "B"), ("B", "C")]) == []


class TestGuardedBy:
    def test_unguarded_write_reported_with_declaration_and_stack(self):
        with seeded_sanitizer() as (sanitizer, module):
            counter = module.GuardedCounter()
            counter.bump_locked()
            assert sanitizer.guard_findings() == []
            counter.bump_racy()
            findings = sanitizer.guard_findings()
            assert len(findings) == 1
            finding = findings[0]
            assert finding.rule == "guarded-by"
            assert "GuardedCounter._count" in finding.message
            assert "guarded by self._lock" in finding.message
            # Declaration site (file:line) and the writing thread.
            assert "runtime_seeded.py" in finding.message
            assert "MainThread" in finding.message
            # The write stack points at the racy method.
            stacks = "".join(stack for _, stack in finding.sites)
            assert "bump_racy" in stacks

    def test_init_writes_are_exempt(self):
        with seeded_sanitizer() as (sanitizer, module):
            module.GuardedCounter()  # __init__ writes _count bare
            assert sanitizer.guard_findings() == []

    def test_duplicate_write_sites_report_once(self):
        with seeded_sanitizer() as (sanitizer, module):
            counter = module.GuardedCounter()
            for _ in range(5):
                counter.bump_racy()
            assert len(sanitizer.guard_findings()) == 1


class TestGuardedByAcrossCalls:
    """What the lexical lock-set analysis judged by summarising callers,
    the sanitizer judges on the write itself."""

    def test_helper_under_its_callers_lock_is_clean(self):
        with seeded_sanitizer() as (sanitizer, module):
            ledger = module.Ledger()
            ledger.deposit(3)
            ledger.deposit(4)
            assert sanitizer.guard_findings() == []

    def test_helper_without_its_callers_lock_names_the_chain(self):
        with seeded_sanitizer() as (sanitizer, module):
            ledger = module.Ledger()
            ledger.deposit(1)
            ledger.deposit_forgetful(2)
            findings = sanitizer.guard_findings()
            assert len(findings) == 1
            assert "Ledger._total" in findings[0].message
            # The write stack names the helper and the caller that
            # forgot the lock, not the one that held it.
            stack = findings[0].sites[0][1]
            assert "_add" in stack
            assert "deposit_forgetful" in stack

    def test_lock_handed_in_by_an_owner_guards_the_child(self):
        with seeded_sanitizer() as (sanitizer, module):
            owner = module.SharedOwner()
            # One lock object under the owner's contract name.
            assert owner.child._lock is owner._lock
            assert owner.child._lock.name == "SharedOwner._lock"
            owner.update(7)
            assert sanitizer.guard_findings() == []

    def test_child_written_without_the_owners_lock_is_caught(self):
        with seeded_sanitizer() as (sanitizer, module):
            owner = module.SharedOwner()
            owner.child.set(8)
            findings = sanitizer.guard_findings()
            assert len(findings) == 1
            assert "SharedChild._value" in findings[0].message
            assert "guarded by self._lock" in findings[0].message

    def test_decorated_writers_are_judged_like_any_other(self):
        with seeded_sanitizer() as (sanitizer, module):
            state = module.Decorated()
            state.reset_locked()
            assert sanitizer.guard_findings() == []
            state.reset_racy()
            findings = sanitizer.guard_findings()
            assert len(findings) == 1
            assert "Decorated._state" in findings[0].message
            assert "reset_racy" in findings[0].sites[0][1]

    def test_write_under_another_lock_names_what_was_held(self):
        with seeded_sanitizer() as (sanitizer, module):
            counter = module.GuardedCounter()
            pair = module.CrossedPair()
            with pair._a:
                counter.bump_racy()
            findings = sanitizer.guard_findings()
            assert len(findings) == 1
            assert "(holding: CrossedPair._a)" in findings[0].message

    def test_lock_held_by_another_thread_does_not_count(self):
        with seeded_sanitizer() as (sanitizer, module):
            counter = module.GuardedCounter()
            errors = []

            def racer():
                try:
                    counter.bump_racy()
                except BaseException as exc:  # pragma: no cover
                    errors.append(exc)

            with counter._lock:
                writer = threading.Thread(target=racer, name="racer",
                                          daemon=True)
                writer.start()
                writer.join(10)
            assert not writer.is_alive() and errors == []
            findings = sanitizer.guard_findings()
            assert len(findings) == 1
            assert "thread racer" in findings[0].message

    def test_unguarded_delete_is_caught(self):
        with seeded_sanitizer() as (sanitizer, module):
            counter = module.GuardedCounter()
            with counter._lock:
                del counter._count
                counter._count = 0
            assert sanitizer.guard_findings() == []
            del counter._count
            findings = sanitizer.guard_findings()
            assert len(findings) == 1
            assert "GuardedCounter._count" in findings[0].message

    def test_undeclared_attributes_are_free(self):
        with seeded_sanitizer() as (sanitizer, module):
            pair = module.CrossedPair()
            pair.items = [1, 2]
            counter = module.GuardedCounter()
            counter.note = "not a guarded field"
            assert sanitizer.guard_findings() == []

    def test_reentrant_guard_held_twice_is_clean(self):
        with seeded_sanitizer() as (sanitizer, module):
            reentrant = module.Reentrant()
            reentrant.outer()
            reentrant.nested()
            assert reentrant._depth == 2
            assert sanitizer.guard_findings() == []

    def test_uninstrument_restores_the_class(self):
        module = _load_fixture_module()
        original = module.GuardedCounter.__setattr__
        with sanitizer_on(module) as sanitizer:
            assert module.GuardedCounter.__setattr__ is not original
        assert module.GuardedCounter.__setattr__ is original
        counter = module.GuardedCounter()
        counter.bump_racy()  # no monitor: plain lock, no enforcement
        assert sanitizer.guard_findings() == []

    def test_instrumenting_a_module_twice_patches_once(self):
        with seeded_sanitizer() as (sanitizer, module):
            assert sanitizer.instrument_module(module) == 0
            counter = module.GuardedCounter()
            counter.bump_racy()
            assert len(sanitizer.guard_findings()) == 1

    def test_plain_lock_instances_are_not_judged(self):
        # A lock built before the sanitizer was installed is a plain
        # threading.Lock the runtime cannot observe, so it is skipped
        # rather than reported on every write.
        module = _load_fixture_module()
        previous = install_monitor(LockMonitor())
        try:
            counter = module.GuardedCounter()
        finally:
            install_monitor(previous)
        with sanitizer_on(module) as sanitizer:
            object.__setattr__(counter, "_repro_sanitizer_armed", True)
            counter.bump_racy()
            assert sanitizer.guard_findings() == []


class TestLockOrderAcrossCalls:
    def test_two_class_cycle_two_calls_deep(self):
        with seeded_sanitizer() as (sanitizer, module):
            catalog = module.Catalog()
            catalog.register("a")       # Catalog._lock -> Index._lock
            catalog.index.rebuild()     # Index._lock -> Catalog._lock
            findings = sanitizer.graph.cycle_findings()
            assert len(findings) == 1
            message = findings[0].message
            assert "Catalog._lock -> Index._lock -> Catalog._lock" \
                in message
            stacks = "".join(stack for _, stack in findings[0].sites)
            assert "_store" in stacks and "_refresh" in stacks

    def test_one_direction_only_is_an_edge_not_a_cycle(self):
        with seeded_sanitizer() as (sanitizer, module):
            catalog = module.Catalog()
            catalog.register("a")
            catalog.register("b")
            assert sanitizer.observed_edges() == [
                ["Catalog._lock", "Index._lock"]
            ]
            assert sanitizer.graph.cycle_findings() == []

    def test_reentry_adds_no_edge(self):
        with seeded_sanitizer() as (sanitizer, module):
            reentrant = module.Reentrant()
            reentrant.outer()
            assert sanitizer.observed_edges() == []
            # Re-taking the held RLock under _other would be an
            # _other -> _lock edge for a plain lock; reentry cannot
            # block, so only the first nesting is recorded.
            reentrant.nested()
            assert sanitizer.observed_edges() == [
                ["Reentrant._lock", "Reentrant._other"]
            ]
            assert sanitizer.graph.cycle_findings() == []

    def test_three_lock_ring_reports_one_cycle(self):
        with seeded_sanitizer() as (sanitizer, module):
            ring = module.Ring()
            for i in range(3):
                ring.step(i)
            findings = sanitizer.graph.cycle_findings()
            assert len(findings) == 1
            assert ("Ring.lock0 -> Ring.lock1 -> Ring.lock2 -> Ring.lock0"
                    in findings[0].message)
            assert len(findings[0].sites) == 6  # 3 edges x 2

    def test_two_step_ring_is_no_cycle(self):
        with seeded_sanitizer() as (sanitizer, module):
            ring = module.Ring()
            ring.step(0)
            ring.step(1)
            assert sanitizer.graph.cycle_findings() == []
            assert len(sanitizer.observed_edges()) == 2

    def test_non_lock_context_managers_add_no_edges(self, tmp_path):
        with seeded_sanitizer() as (sanitizer, module):
            pair = module.CrossedPair()
            with pair._a:
                with contextlib.nullcontext():
                    with open(tmp_path / "f.txt", "w") as handle:
                        handle.write("x")
            assert sanitizer.observed_edges() == []

    def test_same_named_instances_add_no_self_edge(self):
        with seeded_sanitizer() as (sanitizer, module):
            first, second = module.CrossedPair(), module.CrossedPair()
            with first._a:
                with second._a:
                    pass
            assert sanitizer.observed_edges() == []
            assert sanitizer.graph.cycle_findings() == []

    def test_executor_threads_are_recorded_as_holders(self):
        from concurrent.futures import ThreadPoolExecutor

        with seeded_sanitizer() as (sanitizer, module):
            pair = module.CrossedPair()
            with ThreadPoolExecutor(max_workers=1,
                                    thread_name_prefix="scan") as pool:
                pool.submit(pair.forward, 1).result(timeout=10)
            pair.forward(2)
            (record,) = sanitizer.graph.edge_records()
            assert record["threads"] == ["MainThread", "scan_0"]


class _Meter:
    def charge(self, *args, **kwargs):
        pass


class _CostModel:
    file_write_row = 0.0
    file_row_io = 0.0


class TestResourceLeaks:
    def test_leaked_staged_file_detected_then_cleared_by_seal(self, tmp_path):
        from repro.core.staging import StagedFile

        sanitizer = Sanitizer()
        previous = install_monitor(sanitizer)
        try:
            staged = StagedFile(str(tmp_path / "n1.stage"), 3, "n1",
                                _Meter(), _CostModel())
            leaks = sanitizer.witness.leak_findings()
            assert len(leaks) == 1
            assert leaks[0].rule == "resource-leak"
            assert "staged-file" in leaks[0].message
            assert "never closed" in leaks[0].message
            stacks = "".join(stack for _, stack in leaks[0].sites)
            assert "test_runtime_sanitizer" in stacks
            staged.seal()
            assert sanitizer.witness.leak_findings() == []
        finally:
            install_monitor(previous)

    def test_leaked_executor_detected_then_cleared_by_close(self):
        from repro.core.scan_pool import ScanWorkerPool

        sanitizer = Sanitizer()
        previous = install_monitor(sanitizer)
        try:
            pool = ScanWorkerPool("thread", 2)
            pool._ensure_executor()
            leaks = sanitizer.witness.leak_findings()
            assert len(leaks) == 1
            assert "executor" in leaks[0].message
            assert "thread pool, 2 workers" in leaks[0].message
            pool.close()
            assert sanitizer.witness.leak_findings() == []
        finally:
            install_monitor(previous)

    def test_submitted_futures_close_on_completion(self):
        from repro.core.filters import RoutingKernel
        from repro.core.scan_pool import ScanWorkerPool
        from repro.core.vector_kernel import slot_layout
        from repro.sqlengine.columnar import ColumnarPartition

        sanitizer = Sanitizer()
        previous = install_monitor(sanitizer)
        try:
            pool = ScanWorkerPool("thread", 2)
            # No slot: every row routes nowhere.
            pool.install(
                "sig", RoutingKernel([], {}), slot_layout([], [], 1), 0, 2
            )
            partition = ColumnarPartition.from_rows([(0, 0)])
            futures = [
                pool.submit(i, partition, 0, 1, [], [])
                for i in range(4)
            ]
            for future in futures:
                future.result()
            pool.close()
            # Everything created was closed: no leaks, balanced counts.
            assert sanitizer.witness.leak_findings() == []
            counts = sanitizer.witness.counts()
            assert counts["created"] == counts["closed"]
            assert counts["created"] >= 5  # 1 executor + 4 futures
        finally:
            install_monitor(previous)


class TestActivateDeactivate:
    def test_activate_instruments_and_deactivate_restores(self):
        from repro.core.scan_pool import ScanWorkerPool

        if runtime.active() is not None:
            pytest.skip("REPRO_SANITIZE plugin owns the global sanitizer")
        sanitizer = runtime.activate()
        try:
            assert runtime.active() is sanitizer
            pool = ScanWorkerPool("thread", 2)
            assert isinstance(pool._lock, SanitizedLock)
            pool._closed = True  # unguarded write on an armed instance
            assert any(
                "ScanWorkerPool._closed" in f.message
                for f in sanitizer.guard_findings()
            )
        finally:
            runtime.deactivate()
        assert runtime.active() is None
        clean = ScanWorkerPool("thread", 2)
        assert not isinstance(clean._lock, SanitizedLock)
        clean._closed = True  # no sanitizer, no enforcement
        assert sanitizer.report()["findings"]  # findings survive

    def test_report_shape(self, tmp_path):
        with seeded_sanitizer() as (sanitizer, module):
            pair = module.CrossedPair()
            pair.forward(1)
            path = str(tmp_path / "sanitize.json")
            report = runtime.write_report(sanitizer, path)
            assert os.path.exists(path)
            assert report["clean"] is True
            assert report["lock_order_edges"] == [
                ["CrossedPair._a", "CrossedPair._b"]
            ]
            records = report["lock_order_edge_records"]
            assert [r["outer"] for r in records] == ["CrossedPair._a"]
            assert records[0]["threads"] == ["MainThread"]
            assert set(report["resources"]) == {"created", "closed", "live"}


class TestOverhead:
    def test_instrumented_workload_within_3x(self):
        """The sanitizer costs < 3x CPU time on a lock-heavy path: the
        reference tree store's ``get_or_create`` (a lock and guarded
        writes per call)."""
        from tests.core import cc_store

        def workload():
            store = cc_store.BinaryTreeCCStore(4)
            for i in range(20000):
                vector, _ = store.get_or_create((f"a{i % 40}", i % 17))
                vector[i % 4] += 1
            return len(store)

        def cpu_seconds():
            # The collector paused: the instrumented side allocates
            # more, so it triggers more collections, whose cost grows
            # with the whole test session's heap rather than with the
            # sanitizer.
            gc.collect()
            gc.disable()
            try:
                started = time.process_time()
                workload()
                return time.process_time() - started
            finally:
                gc.enable()

        workload()  # warm caches / allocator
        # Interleaved (three rounds of five repeats a side), on CPU
        # time, each side's minimum of fifteen: a neighbour's burst on
        # a shared box lands on both sides or on neither.  Three
        # wall-clock repeats per side, one side after the other, read
        # 4.03x against a true 2.6-2.7x.
        plain = instrumented = float("inf")
        for _ in range(3):
            plain = min([plain] + [cpu_seconds() for _ in range(5)])
            with sanitizer_on(cc_store):
                instrumented = min(
                    [instrumented] + [cpu_seconds() for _ in range(5)]
                )
        assert instrumented <= plain * 3.0, (
            f"sanitizer overhead {instrumented / plain:.2f}x exceeds 3x "
            f"({plain * 1000:.1f}ms -> {instrumented * 1000:.1f}ms)"
        )
