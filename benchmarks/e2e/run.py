"""End-to-end + per-layer fit benchmark (see README.md beside this file).

    python3 benchmarks/e2e/run.py                      # all workloads
    python3 benchmarks/e2e/run.py --traced --record    # + layers, history
    python3 benchmarks/e2e/run.py --workload deep_tree --trace 1
    python3 benchmarks/e2e/run.py compare -2 -1

With exactly one ``--workload`` the process *is* the workload: it sets
up, fits in a closed loop (one client; the next fit starts when the
previous returns) for ``--seconds``, verifies every fit, prints each
metric by name with its unit and ends with one JSON line.  With none
or several it runs each in its own subprocess and can record the set.
Metric names, units and bounds are read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Iterator, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

from layers import SessionProbe, coverage, layer_metrics  # noqa: E402
from trace import Tracer  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in MANIFEST["workloads"]]

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Timed fits a run makes at the least, however short ``--seconds`` is.
MIN_FITS = 3
#: ``--smoke``: rows ÷ 20 and two fits, for the self-tests.
SMOKE_SCALE = 20
SMOKE_FITS = 2
#: Marks the line carrying per-run detail for the multi-workload mode.
DETAIL_PREFIX = "#detail "


# -- one workload, in this process --------------------------------------------


@dataclass
class Fit:
    """What one timed fit measured (``error`` set if it raised)."""

    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    cost: float = 0.0
    signature: str = ""
    error: str = ""
    layers: dict[str, float] = field(default_factory=dict)


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest child."""
    kib = sum(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    return kib / 1024.0


def tree_signature(tree: Any) -> str:
    """Order-independent structural digest of a decision tree.

    Node ids follow the order the middleware happened to serve nodes
    in, so each node is keyed by its root path instead; two trees get
    the same digest iff they have the same nodes with the same splits,
    sizes and class distributions.
    """
    entries = []
    for node in tree.nodes.values():
        path = tuple(
            (c.attribute, c.op, c.value) for c in node.path_conditions()
        )
        entries.append(repr((
            path, node.state.value, node.split_attribute, node.n_rows,
            tuple(node.class_counts or ()),
        )))
    entries.sort()
    return hashlib.sha256("\n".join(entries).encode()).hexdigest()


def _run_fit(loaded: Any, tracer: Optional[Tracer] = None,
             fit_id: int = 0) -> Fit:
    fit = Fit(traced=tracer is not None)
    meter = loaded.server.meter
    meter.reset()
    probe = SessionProbe()
    cpu_before = _cpu_seconds()
    started = time.perf_counter()
    try:
        if tracer is None:
            tree = loaded.fit(None)
        else:
            with tracer.fit(fit_id):
                tree = loaded.fit(probe.observe)
    except Exception:
        fit.error = traceback.format_exc()
        print(fit.error, file=sys.stderr)
        return fit
    fit.wall = time.perf_counter() - started
    fit.cpu = _cpu_seconds() - cpu_before
    fit.cost = meter.total
    fit.signature = tree_signature(tree)
    if tracer is not None:
        spans = tracer.spans_of(fit_id)
        fit.layers = layer_metrics(spans, probe, meter, tree)
        fit.layers["trace.spans"] = len(spans)
        fit.layers["trace.coverage"] = coverage(spans)
    return fit


@contextmanager
def _checkout_tmpdir() -> Iterator[None]:
    """Keep temporary files (the middleware's staging directories)
    under this directory: a run may write only inside its checkout."""
    base = HERE / ".tmp"
    base.mkdir(exist_ok=True)
    private = tempfile.mkdtemp(dir=base)
    previous, tempfile.tempdir = tempfile.tempdir, private
    try:
        yield
    finally:
        tempfile.tempdir = previous
        shutil.rmtree(private, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still has its directory in there


@_checkout_tmpdir()
def measure(name: str, seed: int, seconds: float, traced: bool,
            smoke: bool, trace_out: Optional[str]) -> tuple[dict, dict]:
    """Run one workload here; returns ``(result, detail)``.

    ``result`` is the contract's last-line object; ``detail`` carries
    the samples behind it for the history file.
    """
    from repro.client import grow_in_memory
    from workloads import WORKLOADS

    setup = WORKLOADS[name]
    scale = SMOKE_SCALE if smoke else 1
    setup_samples: list[float] = []
    loaded = None
    for _ in range(1 if smoke else SETUP_REPEATS):
        loaded = None  # free the previous server before building anew
        started = time.perf_counter()
        loaded = setup(seed, scale)
        setup_samples.append(time.perf_counter() - started)
    assert loaded is not None

    # The untimed warm-up is the run's first fit: its cost is the one
    # every timed fit must reproduce.
    warm_up = _run_fit(loaded)
    if warm_up.error:
        raise SystemExit(f"{name}: the warm-up fit raised")

    tracer = Tracer() if traced else None
    min_fits = SMOKE_FITS if smoke else MIN_FITS
    deadline = time.perf_counter() + (0.0 if smoke else seconds)
    fits: list[Fit] = []
    rounds = 0
    while rounds < min_fits or time.perf_counter() < deadline:
        rounds += 1
        fits.append(_run_fit(loaded))
        if tracer is not None:
            # Alternate, so both kinds see the same machine state and
            # their ratio is the tracing overhead.
            fits.append(_run_fit(loaded, tracer, fit_id=rounds))
    peak_rss = _peak_rss_mib()

    # The oracle runs last so that it is in neither setup_s, the fit
    # timings nor the peak RSS read just above.
    reference = tree_signature(
        grow_in_memory(loaded.rows, loaded.spec, loaded.policy)
    )
    failed = sum(
        1 for fit in fits
        if fit.error or fit.signature != reference
        or fit.cost != warm_up.cost
    )
    completed = [fit for fit in fits if not fit.error]
    if not completed:
        raise SystemExit(f"{name}: every fit raised")
    plain_walls = [fit.wall for fit in completed if not fit.traced]

    if tracer is None:
        values = {
            "setup_s": median(setup_samples),
            "fit_wall_s": median(plain_walls),
            "fit_cpu_s": median([fit.cpu for fit in completed]),
            "fit_cost_units": warm_up.cost,
            "peak_rss_mb": peak_rss,
        }
        group = "end_to_end"
    else:
        traced_fits = [fit for fit in completed if fit.traced]
        values = {
            key: median([fit.layers[key] for fit in traced_fits])
            for key in traced_fits[0].layers
        }
        values["trace.overhead_ratio"] = (
            median([fit.wall for fit in traced_fits]) / median(plain_walls)
        )
        group = "per_layer"
        if trace_out:
            tracer.write_chrome_trace(trace_out)

    units = {spec["name"]: spec["unit"] for spec in MANIFEST[group]}
    if set(values) != set(units):
        raise SystemExit(
            f"metrics emitted and BENCHMARK.json {group} differ: "
            f"{sorted(set(values) ^ set(units))}"
        )
    result = {
        "correct": failed == 0,
        "attempted": len(fits),
        "failed": failed,
        "metrics": {
            key: {"value": values[key], "unit": units[key]}
            for key in units
        },
    }
    detail = {
        "workload": name, "seed": seed, "trace": int(traced),
        "setup_samples": setup_samples, "fit_wall_samples": plain_walls,
    }
    return result, detail


def _child_pids() -> list[int]:
    """Live (not yet exited) direct children of this process."""
    me = os.getpid()
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # ended while we were listing
        # "pid (comm) state ppid ..."; comm may itself hold ") ".
        state, ppid = stat.rpartition(") ")[2].split()[:2]
        if int(ppid) == me and state != "Z":
            children.append(int(entry))
    return children


def stop_child_processes() -> None:
    """Stop every process this run started and wait until each ended.

    The middleware shuts its worker pool down when a session closes,
    but the first shared-memory segment also starts multiprocessing's
    resource tracker, which by design outlives its parent by a moment
    (it ends when the parent's end of its pipe closes).  A run must
    leave nothing behind, so the tracker is stopped and reaped here,
    and whatever else an aborted fit left alive is terminated too.
    """
    try:
        from multiprocessing import resource_tracker
        # Closes the tracker's pipe and waits for the process.
        resource_tracker._resource_tracker._stop()
    except Exception:
        pass  # no tracker, or an interpreter without _stop(): see below
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = _child_pids()
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 5.0
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    if os.waitpid(pid, os.WNOHANG)[0]:
                        pids.remove(pid)
                except ChildProcessError:
                    pids.remove(pid)  # someone else reaped it
            if pids:
                time.sleep(0.01)
        if not pids:
            break


def run_single(args: argparse.Namespace) -> int:
    name = args.workload[0]
    try:
        result, detail = measure(
            name, args.seed, args.seconds, bool(args.trace), args.smoke,
            args.trace_out,
        )
    finally:
        stop_child_processes()
    walls = detail["fit_wall_samples"]
    print(
        f"workload {name}  seed={args.seed}  trace={args.trace}  "
        f"fits={result['attempted']} (+1 warm-up, {len(walls)} untraced: "
        f"min {min(walls):.4f} max {max(walls):.4f} s)  "
        f"set-ups={len(detail['setup_samples'])}"
    )
    for key, metric in result["metrics"].items():
        print(f"  {key:<52} {metric['value']:>16.6f} {metric['unit']}")
    print(f"  ops_attempted {result['attempted']}  "
          f"ops_failed {result['failed']}")
    print(DETAIL_PREFIX + json.dumps(detail))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# -- several workloads, one subprocess each -------------------------------------


def machine_fingerprint() -> dict[str, Any]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def _git_commit() -> str:
    def git(*argv: str) -> str:
        return subprocess.run(
            ["git", *argv], cwd=ROOT, capture_output=True, text=True,
            check=True,
        ).stdout.strip()

    try:
        commit = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--", "src", "benchmarks/e2e")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return commit + ("+dirty" if dirty else "")


def _run_child(name: str, trace: int, args: argparse.Namespace,
               trace_out: Optional[str]) -> tuple[dict, dict]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if trace and trace_out:
        command += ["--trace-out", trace_out]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        detail = json.loads(lines[-2][len(DETAIL_PREFIX):])
    except (IndexError, ValueError):
        raise SystemExit(
            f"{name}: the workload process printed no result "
            f"(exit code {proc.returncode})"
        ) from None
    return result, detail


def run_many(args: argparse.Namespace) -> int:
    names = args.workload or WORKLOAD_NAMES
    record: dict[str, Any] = {
        "commit": _git_commit(),
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "machine": machine_fingerprint(),
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "workloads": {},
    }
    failed = 0
    for name in names:
        trace_out = args.trace_out
        if trace_out and len(names) > 1:
            path = Path(trace_out)
            trace_out = str(path.with_name(f"{path.stem}-{name}{path.suffix}"))
        entry: dict[str, Any] = {"attempted": 0, "failed": 0}
        for trace in (0, 1) if args.traced else (0,):
            result, detail = _run_child(name, trace, args, trace_out)
            failed += result["failed"]
            group = "per_layer" if trace else "end_to_end"
            entry[group] = {
                key: metric["value"]
                for key, metric in result["metrics"].items()
            }
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            if not trace:
                entry["fit_wall_samples"] = detail["fit_wall_samples"]
        record["workloads"][name] = entry

    if args.record:
        results_dir = Path(args.results_dir)
        results_dir.mkdir(parents=True, exist_ok=True)
        with open(results_dir / "history.jsonl", "a") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        (results_dir / "latest.json").write_text(
            json.dumps(record, indent=1, sort_keys=True) + "\n"
        )
        print(f"recorded under {results_dir}")
    print(f"ops_failed {failed} across {len(names)} workload(s)")
    return 1 if failed else 0


# -- compare ----------------------------------------------------------------


def _select(history: list[dict], selector: str) -> list[dict]:
    """History records for ``-N`` (Nth from the end) or a commit prefix."""
    if selector.startswith("-") and selector[1:].isdigit():
        return [history[int(selector)]]
    chosen = [r for r in history if r["commit"].startswith(selector)]
    if not chosen:
        raise SystemExit(f"no history record matches {selector!r}")
    return chosen


def _spread(values: list[float], samples: list[float]) -> float:
    """Quartile distance ÷ median: across runs when there are several,
    else across the run's own fit samples (0 when neither exists)."""
    data = values if len(values) > 1 else samples
    if len(data) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(data, n=4)
    return (q3 - q1) / median(data)


def _metric_runs(side: list[dict], name: str,
                 metric: str) -> tuple[list[float], list[float]]:
    """One metric's value per run of ``side``, plus the fit samples
    that stand in for run-to-run spread when there is a single run."""
    entries = [r["workloads"][name] for r in side if name in r["workloads"]]
    samples = (
        entries[0].get("fit_wall_samples", [])
        if len(entries) == 1 and metric == "fit_wall_s" else []
    )
    return [e["end_to_end"][metric] for e in entries], samples


def compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("a", help="-N (Nth record from the end) or commit")
    parser.add_argument("b")
    parser.add_argument("--results-dir", default=str(HERE / "results"))
    args = parser.parse_args(argv)
    path = Path(args.results_dir) / "history.jsonl"
    history = [json.loads(line) for line in path.read_text().splitlines()]
    side_a, side_b = _select(history, args.a), _select(history, args.b)
    machines = []
    for label, side in (("A", side_a), ("B", side_b)):
        machines.append(
            {json.dumps(r["machine"], sort_keys=True) for r in side}
        )
        print(f"{label}: {len(side)} run(s) of "
              f"{sorted({r['commit'][:12] for r in side})} on "
              f"{len(machines[-1])} machine fingerprint(s)")
    if machines[0] != machines[1]:
        print("warning: the two sides ran on different machines")

    print(f"{'workload':<16} {'metric':<15} {'A':>12} {'B':>12} "
          f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict")
    regressed = False
    for name in WORKLOAD_NAMES:
        for spec in MANIFEST["end_to_end"]:
            a, a_samples = _metric_runs(side_a, name, spec["name"])
            b, b_samples = _metric_runs(side_b, name, spec["name"])
            if not a or not b:
                continue
            median_a, median_b = median(a), median(b)
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse = sign * (median_b - median_a) / median_a
            spread = max(_spread(a, a_samples), _spread(b, b_samples))
            all_better = (
                max(b) < min(a) if sign > 0 else min(b) > max(a)
            )
            if spread > spec["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > spec["bound"]:
                verdict = "REGRESSED"
                regressed = True
            elif worse < -spec["bound"]:
                verdict = "improved"
            else:
                verdict = "unchanged"
            print(f"{name:<16} {spec['name']:<15} {median_a:>12.4f} "
                  f"{median_b:>12.4f} {worse:>+9.2%} {spread:>7.2%} "
                  f"{spec['bound']:>6.2%}  {verdict}")
    return 1 if regressed else 0


# -- entry point ----------------------------------------------------------------


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        choices=WORKLOAD_NAMES,
                        help="repeatable; default: all five")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=MANIFEST["run_seconds"],
                        help="how long each run keeps fitting")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="one workload: 1 prints the per-layer metrics")
    parser.add_argument("--traced", action="store_true",
                        help="several workloads: run each untraced, "
                             "then traced")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the traced run's spans as Chrome "
                             "trace-event JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="rows / 20 and two fits (self-tests)")
    parser.add_argument("--record", action="store_true",
                        help="several workloads: append to history.jsonl "
                             "and write latest.json")
    parser.add_argument("--results-dir", default=str(HERE / "results"))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("run.py: no src/repro beside the benchmark — nothing to "
              "measure", file=sys.stderr)
        return 2
    if len(args.workload) == 1 and not args.traced and not args.record:
        return run_single(args)
    return run_many(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
