"""Shared fixtures and helpers for the test suite.

Also hosts the opt-in concurrency-sanitizer plugin: run with
``REPRO_SANITIZE=1`` and every test executes under the runtime
sanitizer (:mod:`repro.analysis.runtime`) — instrumented locks feeding
the lock-order graph, guarded-by enforcement on contract-bearing
classes, and create/close witnessing of executors, futures and staged
files.  Any finding fails the test that produced it with the full
report; set ``REPRO_SANITIZE_REPORT=<path>`` to also write the JSON
run report (CI uploads it as an artifact).
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

from repro.analysis.runtime.witness import ResourceWitness
from repro.client.growth import GrowthPolicy
from repro.common.locks import LockMonitor
from repro.datagen.loader import load_dataset
from repro.datagen.random_tree import RandomTreeConfig, build_random_tree
from repro.sqlengine.columnar import ColumnarPartition
from repro.sqlengine.database import SQLServer

_SANITIZE = os.environ.get("REPRO_SANITIZE", "") == "1"

#: Seconds one test may run before the run fails with every thread's
#: stack dumped: ~50x the slowest test of a quiet tier-1 run
#: (``--durations``: 2.3 s), so only a hang (a deadlocked pool, a
#: future nobody completes) ever reaches it.
TEST_HANG_SECONDS = 120


try:  # the copy of stderr pytest's faulthandler plugin keeps from
    # before output capture starts: a dump written there is seen.
    from _pytest.faulthandler import fault_handler_stderr_fd_key
except ImportError:  # pragma: no cover - a pytest without it
    fault_handler_stderr_fd_key = None


@pytest.fixture(autouse=True)
def _fail_a_hang(request):
    """End the run, stacks dumped, when a test hangs instead of letting
    it hang the suite."""
    stderr = sys.__stderr__
    if fault_handler_stderr_fd_key is not None:
        stderr = request.config.stash.get(fault_handler_stderr_fd_key, stderr)
    faulthandler.dump_traceback_later(TEST_HANG_SECONDS, exit=True,
                                      file=stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


if _SANITIZE:
    from repro.analysis import runtime as _runtime

    def _current_findings(sanitizer):
        """Guard violations + lock-order cycles observed so far.

        Leaks are deliberately excluded from the per-test check —
        session-lifetime resources (the shared scan pool) stay open
        across tests by design and are leak-checked once at session
        finish, after every owner has shut down.
        """
        return sanitizer.guard_findings() + sanitizer.graph.cycle_findings()

    def pytest_configure(config):
        config._repro_sanitizer = _runtime.activate()

    def pytest_sessionfinish(session, exitstatus):
        sanitizer = _runtime.active()
        if sanitizer is None:
            return
        leaks = sanitizer.witness.leak_findings()
        if leaks:
            print("\nconcurrency sanitizer: resources leaked at "
                  "session finish:\n")
            for finding in leaks:
                print(finding.render())
                print()
            session.exitstatus = 1

    def pytest_unconfigure(config):
        sanitizer = getattr(config, "_repro_sanitizer", None)
        _runtime.deactivate()
        report_path = os.environ.get("REPRO_SANITIZE_REPORT", "")
        if sanitizer is not None and report_path:
            _runtime.write_report(sanitizer, report_path)

    @pytest.fixture(autouse=True)
    def _repro_sanitize_check():
        """Fail the first test that surfaces a new sanitizer finding."""
        sanitizer = _runtime.active()
        if sanitizer is None:
            yield
            return
        before = {f.render() for f in _current_findings(sanitizer)}
        yield
        fresh = [
            f for f in _current_findings(sanitizer)
            if f.render() not in before
        ]
        if fresh:
            pytest.fail(
                "concurrency sanitizer findings:\n\n"
                + "\n\n".join(f.render() for f in fresh),
                pytrace=False,
            )


class WitnessMonitor(LockMonitor):
    """A LockMonitor wiring the resource hooks to a ResourceWitness.

    Install with ``install_monitor`` around a scenario to assert what it
    created (``created[kind]``) and what it left open (``live_kinds``).
    """

    def __init__(self):
        self.witness = ResourceWitness()
        self.created = {}

    def resource_created(self, kind, obj, detail=""):
        self.created[kind] = self.created.get(kind, 0) + 1
        self.witness.created(kind, obj, detail)

    def resource_closed(self, kind, obj):
        self.witness.closed(kind, obj)

    def live_kinds(self):
        return [record.kind for record in self.witness.live()]


def pieces(rows):
    """What a scan hands ``StagingManager.commit_memory`` for ``rows``:
    its captured pieces — here one, encoding them all."""
    return [ColumnarPartition.from_rows(rows)]


def tree_signature(node):
    """Order-independent structural signature of a (sub)tree.

    Node ids depend on processing order (the middleware may service
    active nodes in any order — Section 3.1), so equivalence tests
    compare structure: splits, edge conditions, sizes and leaf labels.
    """
    if node.is_leaf:
        return (
            "leaf",
            node.majority_class,
            node.n_rows,
            tuple(node.class_counts or ()),
        )
    children = tuple(
        sorted(
            (child.condition.op, child.condition.value, tree_signature(child))
            for child in node.children
        )
    )
    return ("split", node.split_attribute, node.split_kind, node.n_rows,
            children)


@pytest.fixture
def small_tree_dataset():
    """A small random-tree workload: (generating_tree, rows)."""
    generating = build_random_tree(
        RandomTreeConfig(
            n_attributes=8,
            values_per_attribute=3,
            n_classes=4,
            n_leaves=15,
            cases_per_leaf=20,
            seed=11,
        )
    )
    return generating, generating.materialize()


@pytest.fixture
def loaded_server(small_tree_dataset):
    """A SQLServer with the small workload loaded as table 'data'."""
    generating, rows = small_tree_dataset
    server = SQLServer()
    load_dataset(server, "data", generating.spec, rows)
    return server, generating.spec, rows


@pytest.fixture
def default_policy():
    return GrowthPolicy()
