"""The runtime layer's parts on their own: the contract parser, the
instrumented locks, the resource witness, findings and the monitor hook.

``test_runtime_sanitizer.py`` drives the assembled sanitizer over
seeded classes; these tests pin the pieces it is built from.
"""

from __future__ import annotations

import textwrap
import threading

import pytest

from repro.analysis.runtime.contracts import (
    ClassContract,
    ContractRegistry,
    GuardDecl,
)
from repro.analysis.runtime.findings import (
    RuntimeFinding,
    capture_frame,
    format_frame_stack,
)
from repro.analysis.runtime.locks import (
    LockOrderGraph,
    SanitizedLock,
    SanitizedRLock,
    find_cycles,
)
from repro.analysis.runtime.sanitizer import Sanitizer
from repro.analysis.runtime.witness import ResourceWitness
from repro.common import locks as lock_factory


def contracts_of(source: str) -> dict[str, dict[str, GuardDecl]]:
    """``class name -> guards`` parsed from a dedented snippet."""
    registry = ContractRegistry()
    found = registry.scan_source(textwrap.dedent(source))
    return {contract.class_name: contract.guards for contract in found}


class TestContractParsing:
    def test_declaration_on_the_line_above(self):
        guards = contracts_of("""
            class Pool:
                def __init__(self):
                    self._lock = make()
                    #: guarded by self._lock
                    self._executor = None
        """)
        assert guards == {"Pool": {"_executor": GuardDecl("_lock", 5)}}

    def test_declaration_on_the_same_line(self):
        guards = contracts_of("""
            class Pool:
                def __init__(self):
                    self._closed = False  #: guarded by self._mutex
        """)
        assert guards == {"Pool": {"_closed": GuardDecl("_mutex", 4)}}

    def test_plain_comment_form_is_accepted(self):
        guards = contracts_of("""
            class Pool:
                def __init__(self):
                    # guarded by self._lock
                    self._ctx = None
        """)
        assert guards["Pool"]["_ctx"].lock == "_lock"

    def test_annotated_assignment_is_a_declaration(self):
        guards = contracts_of("""
            class Pool:
                def __init__(self):
                    #: guarded by self._lock
                    self._payload: bytes | None = None
        """)
        assert guards["Pool"]["_payload"] == GuardDecl("_lock", 4)

    def test_comment_two_lines_above_is_not_a_declaration(self):
        guards = contracts_of("""
            class Pool:
                def __init__(self):
                    #: guarded by self._lock

                    self._ctx = None
        """)
        assert guards == {}

    def test_non_self_targets_are_ignored(self):
        guards = contracts_of("""
            class Pool:
                def __init__(self, other):
                    #: guarded by self._lock
                    other._ctx = None
                    #: guarded by self._lock
                    ctx = None
        """)
        assert guards == {}

    def test_declarations_outside_init_count(self):
        guards = contracts_of("""
            class Pool:
                def reset(self):
                    with self._lock:
                        #: guarded by self._lock
                        self._generation = 0
        """)
        assert guards["Pool"]["_generation"].lock == "_lock"

    def test_each_class_gets_its_own_contract(self):
        guards = contracts_of("""
            class A:
                def __init__(self):
                    #: guarded by self._a
                    self.x = 0

            class B:
                def __init__(self):
                    #: guarded by self._b
                    self.y = 0

            class Free:
                def __init__(self):
                    self.z = 0
        """)
        assert guards == {
            "A": {"x": GuardDecl("_a", 4)},
            "B": {"y": GuardDecl("_b", 9)},
        }

    def test_qualified_name_includes_the_module(self):
        assert ClassContract("repro.core.scan_pool", "ScanWorkerPool",
                             "p.py").qualified_name == \
            "repro.core.scan_pool.ScanWorkerPool"
        assert ClassContract("", "Pool", "p.py").qualified_name == "Pool"


class TestContractRegistry:
    def test_scan_package_finds_the_worker_pool_contract(self):
        registry = ContractRegistry()
        registry.scan_package("repro")
        (contract,) = registry.for_module("repro.core.scan_pool")
        assert contract.class_name == "ScanWorkerPool"
        assert contract.path.endswith("scan_pool.py")
        assert {attr: decl.lock for attr, decl in
                contract.guards.items()} == {
            "_executor": "_lock",
            "_closed": "_lock",
            "_generation": "_lock",
            "_signature": "_lock",
            "_ctx": "_lock",
            "_payload": "_lock",
        }

    def test_only_contract_bearing_classes_are_registered(self):
        registry = ContractRegistry()
        registry.scan_package("repro")
        assert len(registry) == len(list(registry))
        assert all(contract.guards for contract in registry)
        assert all(contract.module.startswith("repro.")
                   for contract in registry)

    def test_unknown_package_is_an_import_error(self):
        with pytest.raises(ImportError):
            ContractRegistry().scan_package("no_such_package_here")

    def test_for_module_filters_by_module_name(self):
        registry = ContractRegistry()
        source = textwrap.dedent("""
            class Pool:
                def __init__(self):
                    #: guarded by self._lock
                    self._x = 0
        """)
        registry.scan_source(source, module="pkg.a")
        registry.scan_source(source, module="pkg.b")
        assert [c.module for c in registry.for_module("pkg.b")] == ["pkg.b"]
        assert registry.for_module("pkg.c") == []


class TestSanitizedLocks:
    def test_held_names_are_outermost_first_and_released(self):
        graph = LockOrderGraph()
        a, b = SanitizedLock("A", graph), SanitizedLock("B", graph)
        with a:
            with b:
                assert graph.held_names() == ["A", "B"]
                assert a.held_by_current_thread()
            assert graph.held_names() == ["A"]
        assert graph.held_names() == []
        assert not a.held_by_current_thread()

    def test_out_of_order_release_keeps_the_other_held(self):
        graph = LockOrderGraph()
        a, b = SanitizedLock("A", graph), SanitizedLock("B", graph)
        a.acquire()
        b.acquire()
        a.release()
        assert graph.held_names() == ["B"]
        b.release()
        assert graph.held_names() == []

    def test_failed_nonblocking_acquire_records_nothing(self):
        graph = LockOrderGraph()
        a, b = SanitizedLock("A", graph), SanitizedLock("B", graph)
        b.acquire()  # held by this thread: a second take cannot succeed
        outcome = []

        def contender():
            with a:
                outcome.append(b.acquire(blocking=False))
                outcome.append(b.acquire(timeout=0.01))

        worker = threading.Thread(target=contender, daemon=True)
        worker.start()
        worker.join(10)
        b.release()
        assert outcome == [False, False]
        assert graph.edge_list() == []

    def test_holding_is_per_thread(self):
        graph = LockOrderGraph()
        lock = SanitizedLock("A", graph)
        seen = []
        with lock:
            worker = threading.Thread(
                target=lambda: seen.append(lock.held_by_current_thread()),
                daemon=True,
            )
            worker.start()
            worker.join(10)
            assert lock.locked()
        assert seen == [False]
        assert not lock.locked()

    def test_rlock_reenters_and_reports_locked_for_its_holder(self):
        graph = LockOrderGraph()
        lock = SanitizedRLock("R", graph)
        with lock:
            with lock:
                assert graph.held_names() == ["R", "R"]
                assert lock.locked()
            assert lock.locked()
        assert not lock.locked()
        assert graph.edge_list() == []

    def test_repr_names_the_kind_and_contract(self):
        graph = LockOrderGraph()
        assert repr(SanitizedLock("Pool._lock", graph)) == \
            "SanitizedLock('Pool._lock')"
        assert repr(SanitizedRLock("Pool._lock", graph)) == \
            "SanitizedRLock('Pool._lock')"

    def test_first_example_keeps_its_thread(self):
        graph = LockOrderGraph()
        a, b = SanitizedLock("A", graph), SanitizedLock("B", graph)

        def nest():
            with a:
                with b:
                    pass

        worker = threading.Thread(target=nest, name="first", daemon=True)
        worker.start()
        worker.join(10)
        nest()
        example = graph.edges()[("A", "B")]
        assert example.thread_name == "first"
        assert "nest" in example.outer_stack
        assert graph.edge_records()[0]["threads"] == ["MainThread", "first"]


class TestFindCycles:
    def test_self_loop_is_a_cycle(self):
        assert find_cycles([("A", "A")]) == [("A",)]

    def test_disjoint_cycles_each_report_once(self):
        cycles = find_cycles([
            ("A", "B"), ("B", "A"), ("X", "Y"), ("Y", "Z"), ("Z", "X"),
        ])
        assert cycles == [("A", "B"), ("X", "Y", "Z")]

    def test_rotation_starts_at_the_smallest_node(self):
        assert find_cycles([("C", "A"), ("A", "B"), ("B", "C")]) == \
            [("A", "B", "C")]

    def test_dag_has_no_cycles(self):
        assert find_cycles([("A", "B"), ("A", "C"), ("B", "D"),
                            ("C", "D")]) == []


class TestRuntimeFinding:
    def test_render_lists_every_labelled_stack(self):
        finding = RuntimeFinding(
            rule="guarded-by",
            message="X._y written bare",
            sites=(("first", "  line one\n  line two\n"),
                   ("second", "  line three\n")),
        )
        assert finding.render() == "\n".join([
            "[guarded-by] X._y written bare",
            "  * first:",
            "      line one",
            "      line two",
            "  * second:",
            "      line three",
        ])

    def test_to_dict_is_the_report_shape(self):
        finding = RuntimeFinding("resource-leak", "m", (("here", "s"),))
        assert finding.to_dict() == {
            "rule": "resource-leak",
            "message": "m",
            "sites": [{"label": "here", "stack": "s"}],
        }

    def test_stacks_degrade_to_a_placeholder(self):
        assert capture_frame(skip=10_000) is None
        assert format_frame_stack(None) == "  <stack unavailable>\n"

    def test_stacks_name_the_caller_not_the_sanitizer(self):
        # The witness captures its creation stack from inside the
        # sanitizer's hook; those plumbing frames are trimmed, so the
        # innermost frame left is the code that made the resource.
        sanitizer = Sanitizer()

        def make_resource(resource):
            sanitizer.resource_created("future", resource)

        resource = object()
        make_resource(resource)
        (leak,) = sanitizer.witness.leak_findings()
        stack = leak.sites[0][1]
        assert "make_resource" in stack.splitlines()[-2]
        assert "test_runtime_layer.py" in stack
        assert "sanitizer.py" not in stack
        assert "witness.py" not in stack


class TestResourceWitness:
    def test_close_balances_create(self):
        witness = ResourceWitness()
        first, second = object(), object()
        witness.created("executor", first, "thread pool")
        witness.created("future", second)
        witness.closed("executor", first)
        assert witness.counts() == {"created": 2, "closed": 1, "live": 1}
        assert [r.kind for r in witness.live()] == ["future"]

    def test_closing_an_unknown_resource_is_not_counted(self):
        witness = ResourceWitness()
        resource = object()
        witness.closed("future", resource)
        witness.created("future", resource)
        witness.closed("executor", resource)  # same object, other kind
        assert witness.counts() == {"created": 1, "closed": 0, "live": 1}

    def test_leaks_are_reported_in_creation_order(self):
        witness = ResourceWitness()
        kept = [object(), object()]
        witness.created("staged-file", kept[0], "owner='n1'")
        witness.created("future", kept[1])
        messages = [f.message for f in witness.leak_findings()]
        assert messages == [
            "staged-file (owner='n1') was created but never closed "
            "(thread MainThread)",
            "future was created but never closed (thread MainThread)",
        ]

    def test_leak_names_the_creating_thread(self):
        witness = ResourceWitness()
        resource = object()
        worker = threading.Thread(
            target=witness.created, args=("future", resource),
            name="producer", daemon=True,
        )
        worker.start()
        worker.join(10)
        (leak,) = witness.leak_findings()
        assert "(thread producer)" in leak.message
        assert leak.sites[0][0] == "created here"


class TestMonitorHook:
    def test_default_monitor_hands_out_plain_primitives(self):
        monitor = lock_factory.LockMonitor()
        assert not isinstance(monitor.make_lock("X._lock"), SanitizedLock)
        rlock = monitor.make_rlock("X._lock")
        with rlock:
            with rlock:  # reentrant
                pass

    def test_install_swaps_and_returns_the_previous_monitor(self):
        sanitizer = Sanitizer()
        previous = lock_factory.install_monitor(sanitizer)
        try:
            assert lock_factory.current_monitor() is sanitizer
            lock = lock_factory.new_lock("Pool._lock")
            rlock = lock_factory.new_rlock("Pool._rlock")
            assert type(lock) is SanitizedLock and lock.name == "Pool._lock"
            assert isinstance(rlock, SanitizedRLock)
            resource = object()
            lock_factory.resource_created("future", resource, "f1")
            assert sanitizer.witness.counts()["live"] == 1
            lock_factory.resource_closed("future", resource)
            assert sanitizer.witness.counts()["live"] == 0
        finally:
            assert lock_factory.install_monitor(previous) is sanitizer
        assert lock_factory.current_monitor() is previous

    def test_locks_built_before_install_stay_plain(self):
        early = lock_factory.new_lock("Pool._lock")
        sanitizer = Sanitizer()
        previous = lock_factory.install_monitor(sanitizer)
        try:
            late = lock_factory.new_lock("Pool._lock")
            with early:
                with late:
                    pass
            assert isinstance(late, SanitizedLock)
            assert sanitizer.observed_edges() == []
        finally:
            lock_factory.install_monitor(previous)


class TestSanitizerReport:
    def test_clean_report_renders_no_findings(self):
        sanitizer = Sanitizer()
        assert sanitizer.findings() == []
        assert sanitizer.render_findings() == "sanitizer: no findings"
        assert sanitizer.report()["clean"] is True

    def test_findings_list_guards_then_cycles_then_leaks(self):
        sanitizer = Sanitizer()
        a = sanitizer.make_lock("A")
        b = sanitizer.make_lock("B")
        with a:
            with b:
                pass
        with b:
            with a:
                pass
        leaked = object()
        sanitizer.resource_created("executor", leaked, "thread pool")
        sanitizer._violations.append(
            RuntimeFinding("guarded-by", "seeded", ())
        )
        assert [f.rule for f in sanitizer.findings()] == [
            "guarded-by", "lock-order-cycle", "resource-leak",
        ]
        report = sanitizer.report()
        assert report["clean"] is False
        assert [f["rule"] for f in report["findings"]] == [
            "guarded-by", "lock-order-cycle", "resource-leak",
        ]
        assert report["resources"] == {"created": 1, "closed": 0,
                                       "live": 1}
        rendered = sanitizer.render_findings()
        assert "[lock-order-cycle] potential deadlock" in rendered
        assert "[resource-leak] executor (thread pool)" in rendered
