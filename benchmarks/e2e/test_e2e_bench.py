"""Self-tests of the e2e benchmark (not part of tier-1).

    python -m pytest benchmarks/e2e -q
"""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import trace as e2e_trace  # noqa: E402

assert Path(e2e_trace.__file__).parent == HERE, "stdlib trace shadowed ours"

RUN = [sys.executable, str(HERE / "run.py")]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _last_line(stdout):
    return json.loads(stdout.splitlines()[-1])


def test_smoke_scale_of_every_workload_within_30_seconds():
    started = time.perf_counter()
    proc = subprocess.run(RUN + ["--smoke"], capture_output=True, text=True)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 30
    for name in run.WORKLOAD_NAMES:
        assert f"workload {name} " in proc.stdout
    assert "ops_failed 0 across 5 workload(s)" in proc.stdout


def _processes_in_session(session_id):
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # After "(comm) ": state ppid pgrp session ...
        if int(stat.rpartition(") ")[2].split()[3]) == session_id:
            found.append(int(entry))
    return found


@pytest.mark.parametrize("trace", ["0", "1"])
def test_process_pool_workload_leaves_no_process_behind(trace):
    # Its own session, so that whatever it starts can be found again.
    proc = subprocess.Popen(
        RUN + ["--workload", "server_parallel", "--smoke", "--trace", trace],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = proc.communicate()
    # Looked at the instant it exits: multiprocessing's resource
    # tracker ends by itself a moment later, which is too late.
    survivors = _processes_in_session(proc.pid)
    assert proc.returncode == 0, stdout + stderr
    assert _last_line(stdout)["failed"] == 0
    assert survivors == []


def test_tracer_restores_every_attribute_it_patched():
    sys.path.insert(0, str(run.ROOT / "src"))
    points = [
        (e2e_trace._resolve(p.owner), p.attribute)
        for p in e2e_trace.PATCH_POINTS
    ]
    before = [vars(owner)[attribute] for owner, attribute in points]
    tracer = e2e_trace.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.fit(1):
            patched = [vars(owner)[attr] for owner, attr in points]
            assert all(p is not b for p, b in zip(patched, before))
            1 / 0
    after = [vars(owner)[attribute] for owner, attribute in points]
    assert all(a is b for a, b in zip(after, before))


@pytest.fixture(scope="module")
def traced_smoke(tmp_path_factory):
    """One traced smoke run of the workload with worker threads."""
    trace_file = tmp_path_factory.mktemp("trace") / "fit.json"
    result, _ = run.measure(
        "staged_parallel", seed=1, seconds=0, traced=True, smoke=True,
        trace_out=str(trace_file),
    )
    return result, json.loads(trace_file.read_text())


def test_self_times_sum_to_the_root_span(traced_smoke):
    result, chrome = traced_smoke
    assert result["failed"] == 0
    assert result["metrics"]["trace.coverage"]["value"] == pytest.approx(1.0)
    events = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
    roots = [e for e in events if e["name"] == e2e_trace.ROOT_SPAN]
    assert roots
    for root in roots:
        same_thread = [
            e for e in events
            if e["tid"] == root["tid"]
            and e["args"]["fit"] == root["args"]["fit"]
        ]
        total = sum(e["args"]["self_us"] for e in same_thread)
        assert total == pytest.approx(root["dur"], rel=1e-6)
        # ...and every child lies inside its parent.
        by_id = {e["args"]["span"]: e for e in same_thread}
        for event in same_thread:
            parent = by_id.get(event["args"]["parent"])
            if parent is not None:
                assert parent["ts"] <= event["ts"]
                assert (event["ts"] + event["dur"]
                        <= parent["ts"] + parent["dur"] + 1e-3)


def test_trace_file_is_chrome_trace_event_json(traced_smoke):
    _, chrome = traced_smoke
    events = chrome["traceEvents"]
    assert {e["ph"] for e in events} == {"M", "X"}
    for event in events:
        assert {"name", "pid", "tid"} <= set(event)
        if event["ph"] == "X":
            assert event["dur"] >= 0 and event["ts"] >= 0
    worker_threads = {e["tid"] for e in events
                      if e["name"] == "core.vector_kernel.count"}
    coordinator = {e["tid"] for e in events
                   if e["name"] == e2e_trace.ROOT_SPAN}
    assert worker_threads and not worker_threads & coordinator


def test_every_metric_is_named_in_the_manifest(traced_smoke):
    traced, _ = traced_smoke
    plain, _ = run.measure(
        "sql_counting", seed=1, seconds=0, traced=False, smoke=True,
        trace_out=None,
    )
    for result, group in ((plain, "end_to_end"), (traced, "per_layer")):
        listed = {spec["name"]: spec for spec in run.MANIFEST[group]}
        assert set(result["metrics"]) == set(listed)
        for name, metric in result["metrics"].items():
            assert NAME.fullmatch(name)
            assert metric["unit"] == listed[name]["unit"]
    assert {w["name"] for w in run.MANIFEST["workloads"]} == set(
        sys.modules["workloads"].WORKLOADS
    )


def test_scan_workers_environment_cannot_change_a_workload():
    def per_layer(environ):
        proc = subprocess.run(
            RUN + ["--workload", "staged_default", "--smoke", "--trace", "1"],
            capture_output=True, text=True, env=environ,
        )
        assert proc.returncode == 0, proc.stderr
        metrics = _last_line(proc.stdout)["metrics"]
        # Everything that is not a time: counts, rows, bytes, units.
        return {
            name: metric["value"] for name, metric in metrics.items()
            if not metric["unit"].startswith("s")
            and not name.startswith("trace.")
        }

    clean = {k: v for k, v in os.environ.items()
             if k != "REPRO_SCAN_WORKERS"}
    baseline = per_layer(clean)
    assert baseline["core.execution.parallel_scans"] == 0
    assert per_layer({**clean, "REPRO_SCAN_WORKERS": "4"}) == baseline
