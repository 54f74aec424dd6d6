"""Process-pool fits in a fresh interpreter close cleanly.

Regression: a process pool that forked its workers before the
coordinator's ``multiprocessing.resource_tracker`` existed (the first
pooled scan of an interpreter that had never created a shared-memory
segment — a transient SERVER scan ships none) let each worker start a
private tracker at its first attach.  That tracker unlinks the
segments the worker attached when the worker exits, so the
coordinator's own release at ``Middleware.close()`` found them gone
(``FileNotFoundError``, or the tracker's "leaked shared_memory"
warnings).  It only shows in an interpreter whose tracker has not
started yet, hence the subprocess.
"""

import os
import subprocess
import sys
import textwrap

import pytest

pytest.importorskip("numpy")

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)

SCRIPT = textwrap.dedent("""
    from repro.client.decision_tree import DecisionTreeClassifier
    from repro.common.locks import install_monitor
    from repro.core.config import MiddlewareConfig
    from repro.core.middleware import Middleware
    from repro.datagen.loader import load_dataset
    from repro.datagen.random_tree import RandomTreeConfig, build_random_tree
    from repro.sqlengine.database import SQLServer
    from tests.conftest import WitnessMonitor

    concept = build_random_tree(RandomTreeConfig(
        n_attributes=6, values_per_attribute=3, n_classes=3, n_leaves=20,
        cases_per_leaf=150, seed=5,
    ))
    server = SQLServer()
    load_dataset(server, "data", concept.spec, concept.materialize())
    monitor = WitnessMonitor()
    install_monitor(monitor)
    # Staged fits: the first pooled scan (the root's) is transient and
    # ships no segment; the pooled FILE scans after it do.
    for plan in ({}, {"memory_staging": False, "file_split_threshold": 1.0},
                 {}):
        config = MiddlewareConfig(
            memory_bytes=4 << 20, scan_workers=2, scan_pool="process",
            scan_chunk_rows=256, **plan,
        )
        with Middleware(server, "data", concept.spec, config) as session:
            DecisionTreeClassifier(max_depth=4).fit(session)
        print("segments", monitor.created.get("shm-segment", 0))
    print("live", monitor.live_kinds())
""")


def test_process_pool_fits_in_a_fresh_interpreter_close_cleanly():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(REPO_ROOT, "src"), REPO_ROOT]
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=REPO_ROOT, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "resource_tracker" not in result.stderr, result.stderr
    assert "Error" not in result.stderr, result.stderr
    *fits, live = result.stdout.splitlines()
    # The fits really attached segments, and left none behind.
    assert len(fits) == 3 and int(fits[-1].split()[1]) > 0
    assert live == "live []"
