"""Each rule catches its seeded fixture violations — and only those."""

import os

import pytest

from repro.analysis import analyze
from repro.analysis.rules.future_drain import FutureDrainRule
from repro.analysis.rules.guarded_by import GuardedByRule
from repro.analysis.rules.lock_order import LockOrderRule
from repro.analysis.rules.pickle_boundary import PickleBoundaryRule
from repro.analysis.rules.resource_lifecycle import ResourceLifecycleRule
from repro.analysis.runtime.witness import save_witness_edges

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def findings_for(fixture, rule, root=None):
    path = os.path.join(FIXTURES, fixture)
    report = analyze([path], [rule], root=root or FIXTURES)
    return report.findings


def lines(findings):
    return sorted(f.line for f in findings)


class TestGuardedBy:
    def test_catches_unguarded_mutations(self):
        findings = findings_for("guarded_bad.py", GuardedByRule())
        assert len(findings) == 3
        assert all(f.rule == "guarded-by" for f in findings)
        messages = " ".join(f.message for f in findings)
        assert "_executor" in messages and "_closed" in messages

    def test_locked_mutations_and_reads_pass(self):
        findings = findings_for("guarded_bad.py", GuardedByRule())
        flagged = {f.line for f in findings}
        source_lines = open(
            os.path.join(FIXTURES, "guarded_bad.py")
        ).read().splitlines()
        with_lock_line = next(
            i for i, text in enumerate(source_lines, 1)
            if "OK: lock held" in text
        )
        read_line = next(
            i for i, text in enumerate(source_lines, 1)
            if "reads are intentionally" in text
        )
        assert with_lock_line not in flagged
        assert read_line not in flagged


class TestLockOrder:
    def test_catches_ab_ba_cycle(self):
        findings = findings_for("lock_order_bad.py", LockOrderRule())
        assert len(findings) == 2
        assert all(f.rule == "lock-order" for f in findings)
        messages = " ".join(f.message for f in findings)
        assert "CrossedLocks._a" in messages
        assert "CrossedLocks._b" in messages
        assert "'forward'" in messages and "'backward'" in messages
        assert "deadlock" in messages

    def test_consistent_order_and_non_locks_pass(self):
        findings = findings_for("lock_order_bad.py", LockOrderRule())
        messages = " ".join(f.message for f in findings)
        assert "StraightLocks" not in messages
        assert "NotALock" not in messages

    def test_witness_edge_closes_source_cycle(self, tmp_path):
        # The AST shows only A->B; the witness contributes B->A from a
        # runtime observation elsewhere.  Merged, that's a cycle.
        path = tmp_path / "one_way.py"
        path.write_text(
            "import threading\n"
            "class Half:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "        self._b = threading.Lock()\n"
            "    def go(self):\n"
            "        with self._a:\n"
            "            with self._b:\n"
            "                pass\n"
        )
        report = analyze([str(path)], [LockOrderRule()], root=str(tmp_path))
        assert report.findings == []
        save_witness_edges(
            str(tmp_path / "lock_order.witness.json"),
            [("Half._b", "Half._a")],
        )
        report = analyze([str(path)], [LockOrderRule()], root=str(tmp_path))
        assert len(report.findings) == 1
        assert "Half._b" in report.findings[0].message

    def test_pure_witness_cycle_is_runtime_territory(self, tmp_path):
        # A cycle entirely inside the witness file has no source line to
        # anchor to; the runtime sanitizer owns that report.
        path = tmp_path / "plain.py"
        path.write_text("x = 1\n")
        save_witness_edges(
            str(tmp_path / "lock_order.witness.json"),
            [("X._a", "X._b"), ("X._b", "X._a")],
        )
        report = analyze([str(path)], [LockOrderRule()], root=str(tmp_path))
        assert report.findings == []


class TestGuardedByInterprocedural:
    def test_helper_without_caller_lock_names_the_chain(self):
        findings = findings_for("lockset_helper_bad.py", GuardedByRule())
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "guarded-by"
        assert "'self._slots' is declared guarded by 'self._l'" \
            in finding.message
        # The witness chain names the caller path that forgets the lock.
        assert "reached without 'Pool._l' via " \
            "Pool.racy_path -> Pool._apply" in finding.message
        # CleanPool._apply (every caller locks) must not fire.
        assert "CleanPool" not in finding.message

    def test_ctor_param_alias_names_the_owner_lock(self):
        findings = findings_for("lock_alias_bad.py", GuardedByRule())
        assert len(findings) == 1
        message = findings[0].message
        assert "'self._count' is declared guarded by 'self._lock'" \
            in message
        # The chain names the canonical lock, resolved through the
        # constructor-parameter alias.
        assert "reached without 'Coordinator._mu' via " \
            "Coordinator.racy_bump -> Worker.bump" in message


class TestLockOrderInterprocedural:
    def test_two_class_cycle_two_calls_deep(self):
        findings = findings_for("lock_order_deep.py", LockOrderRule())
        assert len(findings) == 2
        assert all(f.rule == "lock-order" for f in findings)
        messages = " ".join(sorted(f.message for f in findings))
        assert "acquiring 'Inner._b' while holding 'Outer._a'" in messages
        assert "acquiring 'Outer._a' while holding 'Inner._b'" in messages
        # Each finding witnesses how the outer lock got there.
        assert "Outer.forward -> Inner.deep -> Inner._mid" in messages
        assert "Inner.backward -> Inner._hop -> Outer.grab" in messages
        assert "deadlock" in messages

    def test_rlock_reentry_is_clean_plain_lock_is_not(self):
        findings = findings_for("rlock_reentrant.py", LockOrderRule())
        assert len(findings) == 1
        message = findings[0].message
        # Only the plain-Lock self-deadlock fires; the RLock
        # re-acquisition in Reentrant.inner is silent.
        assert "SelfDeadlock._m" in message
        assert "Reentrant" not in message
        assert "SelfDeadlock.outer -> SelfDeadlock.inner" in message


class TestAtomicity:
    def test_check_then_act_raced_by_two_thread_roots(self):
        from repro.analysis.rules.atomicity import AtomicityRule

        findings = findings_for("atomicity_bad.py", AtomicityRule())
        assert len(findings) == 1
        message = findings[0].message
        assert findings[0].rule == "atomicity"
        assert "check-then-act on 'self._batch'" in message
        assert "guarded by 'self._lock'" in message
        # Both racing thread roots are named with their paths.
        assert "thread root '_pump'" in message
        assert "thread root '_drain'" in message
        assert "Buffer._pump -> Buffer._refill" in message
        assert "Buffer._drain -> Buffer._refill" in message

    def test_locked_rmw_and_single_root_sequences_pass(self):
        from repro.analysis.rules.atomicity import AtomicityRule

        findings = findings_for("atomicity_bad.py", AtomicityRule())
        messages = " ".join(f.message for f in findings)
        # The fully locked ``self._count += 1`` and the check-then-act
        # on ``self._mark`` (only one thread runs _drain) are silent.
        assert "_count" not in messages
        assert "_mark" not in messages

    def test_guarded_by_stays_clean_on_the_atomicity_fixture(self):
        # Every individual write holds the lock — the race is purely
        # in the sequences, which guarded-by cannot see.
        findings = findings_for("atomicity_bad.py", GuardedByRule())
        assert findings == []


class TestFutureDrain:
    def test_catches_leaked_futures(self):
        findings = findings_for("future_bad.py", FutureDrainRule())
        assert len(findings) == 3
        messages = [f.message for f in findings]
        assert any("discarded" in m for m in messages)
        assert any("'future'" in m for m in messages)
        assert any("'inflight'" in m for m in messages)

    def test_drained_and_returned_futures_pass(self):
        findings = findings_for("future_bad.py", FutureDrainRule())
        messages = " ".join(f.message for f in findings)
        assert "of 'drained_collection'" not in messages
        assert "transfer_to_caller" not in messages


class TestResourceLifecycle:
    def test_catches_leaks_and_narrow_handlers(self):
        findings = findings_for("resource_bad.py", ResourceLifecycleRule())
        assert len(findings) == 3
        messages = [f.message for f in findings]
        assert any("catch BaseException" in m for m in messages)
        assert any("no close/seal" in m for m in messages)
        assert any("only closed on the normal path" in m for m in messages)

    def test_well_behaved_functions_pass(self):
        findings = findings_for("resource_bad.py", ResourceLifecycleRule())
        text = open(os.path.join(FIXTURES, "resource_bad.py")).read()
        ok_lines = {
            i for i, line in enumerate(text.splitlines(), 1)
            if "# OK" in line
        }
        assert not ok_lines & {f.line for f in findings}


class TestPickleBoundary:
    def test_catches_unpicklable_payloads(self):
        findings = findings_for("pickle_bad.py", PickleBoundaryRule())
        assert len(findings) == 4
        messages = " ".join(f.message for f in findings)
        assert "lambda" in messages
        assert "`self`" in messages
        assert "self._lock" in messages
        assert "generator" in messages

    def test_plain_payloads_pass(self):
        findings = findings_for("pickle_bad.py", PickleBoundaryRule())
        text = open(os.path.join(FIXTURES, "pickle_bad.py")).read()
        ok_line = next(
            i for i, line in enumerate(text.splitlines(), 1)
            if "OK: plain data" in line
        )
        assert ok_line not in {f.line for f in findings}

    def test_thread_only_files_are_skipped(self, tmp_path):
        path = tmp_path / "threads_only.py"
        path.write_text(
            "import threading\n"
            "def go(pool):\n"
            "    f = pool.submit(lambda: 1)\n"
            "    return f\n"
        )
        report = analyze([str(path)], [PickleBoundaryRule()],
                         root=str(tmp_path))
        assert report.findings == []

