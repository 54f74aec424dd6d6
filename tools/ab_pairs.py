"""Alternating parent/change benchmark pairs, with the verdict computed.

    python3 tools/ab_pairs.py PARENT_REF                       # everything
    python3 tools/ab_pairs.py HEAD --workload deep_tree --pairs 10 --seed 7
    python3 tools/ab_pairs.py HEAD~1 --out /tmp/pairs.json

The measurement rule every performance change in this repository is
held to (``choosing-metrics`` §8, restated in ROADMAP.md) as one
command: the *unmodified* ``benchmarks/e2e/run.py --workload W --seed S
--seconds 10 --trace 0`` is run on the parent commit and on the working
tree, N pairs per workload, alternating which side runs first, and for
every workload x end-to-end metric of ``BENCHMARK.json`` the medians,
quartiles, pairs won and a verdict are printed:

* **gain** — the change wins at least nine tenths of the pairs (ties
  count for neither side) and the medians differ by more than the
  distance between the parent's quartiles;
* **regression** — the change's median is worse than the parent's by
  more than the metric's ``bound``;
* **unresolved** — neither, and a side's quartile distance is wider
  than the bound (unless every run of the change reads no worse than
  every run of the parent);
* **within bound** — none of the above.

Run length is the benchmark's (``BENCHMARK.json`` ``run_seconds``), not
an option.  ``failed/attempted`` is printed per workload, and a
workload on which the change fails a larger share of its operations
than the parent shows no **gain**: those verdicts read **more failed
ops**.

Both sides run from exported copies in a temporary directory — the
parent through ``git archive``, the change as the working tree's
tracked and untracked-but-not-ignored files, uncommitted edits
included — each running its *own* ``run.py``, so a change that touched
the benchmark is measured by the parent's on the parent side.  Nothing
is written inside the repository (not even ``.git/worktrees``) unless
``--out`` names a file there, and the copies are removed on every exit.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Any, Optional, Sequence

ROOT = Path(__file__).resolve().parents[1]

#: A gain needs this share of all pairs won (choosing-metrics §8).
WIN_SHARE = 0.9


def _git(*args: str) -> bytes:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, stdout=subprocess.PIPE,
    ).stdout


def export_parent(ref: str, target: Path) -> None:
    """The committed files of ``ref``, via ``git archive``."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", ref))) as archive:
        archive.extractall(target)


def export_working_tree(target: Path) -> None:
    """The working tree as a fresh checkout would hold it plus what is
    not committed yet: tracked and untracked files, nothing ignored."""
    listed = _git("ls-files", "-z", "--cached", "--others",
                  "--exclude-standard")
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():  # a deleted-but-still-indexed file is gone
            (target / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target / name)


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict[str, Any]:
    """One ``run.py`` process; its closing JSON line, parsed."""
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True,
    )
    for line in reversed(done.stdout.splitlines()):
        if line.startswith("{"):
            result: dict[str, Any] = json.loads(line)
            return result
    raise SystemExit(
        f"{workload} in {checkout} printed no result (exit code "
        f"{done.returncode})"
    )


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``, endpoints included."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(parent: Sequence[float], change: Sequence[float],
          better: str, bound: float) -> dict[str, Any]:
    """The verdict on one workload x metric from its paired samples
    (``parent[i]`` and ``change[i]`` ran back to back)."""
    sign = -1.0 if better == "lower" else 1.0  # > 0 means change better
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    improvement = sign * (c_med - p_med)
    scale = abs(p_med)
    if wins >= WIN_SHARE * len(parent) and improvement > p_q3 - p_q1:
        verdict = "gain"
    elif -improvement > bound * scale:
        verdict = "regression"
    elif (max(p_q3 - p_q1, c_q3 - c_q1) > bound * scale
          and not all(sign * (c - p) >= 0
                      for c in change for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": {"q1": p_q1, "median": p_med, "q3": p_q3},
        "change": {"q1": c_q1, "median": c_med, "q3": c_q3},
        "change_pct": (
            100.0 * (c_med - p_med) / scale if scale else 0.0
        ),
        "won": wins, "lost": losses, "pairs": len(parent),
        "verdict": verdict,
    }


def measure(sides: dict[str, Path], workloads: Sequence[str], seed: int,
            pairs: int, seconds: float) -> dict[str, dict[str, list[Any]]]:
    """``workload -> side -> [run.py result per pair]``."""
    runs: dict[str, dict[str, list[Any]]] = {
        workload: {side: [] for side in sides} for workload in workloads
    }
    for pair in range(pairs):
        order = list(sides) if pair % 2 == 0 else list(reversed(sides))
        for workload in workloads:
            for side in order:
                result = run_once(sides[side], workload, seed, seconds)
                runs[workload][side].append(result)
                print(
                    f"  pair {pair + 1}/{pairs} {workload:<16} {side:<6} "
                    f"fit_wall_s {result['metrics']['fit_wall_s']['value']:.4f}"
                    f"  failed {result['failed']}/{result['attempted']}",
                    flush=True,
                )
    return runs


def _spread(side: dict[str, float]) -> str:
    return (f"{side['median']:.6g} "
            f"[{side['q1']:.6g}, {side['q3']:.6g}]")


def report(runs: dict[str, dict[str, list[Any]]],
           manifest: dict[str, Any]) -> dict[str, Any]:
    """Print the table; returns it as data."""
    table: dict[str, Any] = {}
    header = (f"{'workload':<16} {'metric':<15} "
              f"{'parent median [q1, q3]':<34} "
              f"{'change median [q1, q3]':<34} {'change':>8}  won   verdict")
    print(header)
    for workload, by_side in runs.items():
        table[workload] = {"metrics": {}}
        for side, results in by_side.items():
            table[workload][f"{side}_failed"] = sum(
                run["failed"] for run in results
            )
            table[workload][f"{side}_attempted"] = sum(
                run["attempted"] for run in results
            )
        counts = table[workload]
        # Shares, not counts: the faster side attempts more operations.
        more_failed = (
            counts["change_failed"] * counts["parent_attempted"]
            > counts["parent_failed"] * counts["change_attempted"]
        )
        for spec in manifest["end_to_end"]:
            name = spec["name"]
            samples = {
                side: [run["metrics"][name]["value"] for run in results]
                for side, results in by_side.items()
            }
            row = judge(samples["parent"], samples["change"],
                        spec["better"], spec["bound"])
            if more_failed and row["verdict"] == "gain":
                row["verdict"] = "more failed ops"
            table[workload]["metrics"][name] = row
            print(
                f"{workload:<16} {name:<15} {_spread(row['parent']):<34} "
                f"{_spread(row['change']):<34} {row['change_pct']:>+7.1f}%  "
                f"{row['won']:>2}/{row['pairs']:<2} {row['verdict']}"
            )
        print(
            f"{workload:<16} failed/attempted: parent "
            f"{counts['parent_failed']}/{counts['parent_attempted']}, "
            f"change {counts['change_failed']}/{counts['change_attempted']}"
        )
    return table


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("parent", help="git ref of the parent commit")
    parser.add_argument("--workload", action="append", default=[],
                        help="repeatable; default: all of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", metavar="FILE",
                        help="also write every run and the table as JSON")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [workload["name"] for workload in manifest["workloads"]]
    workloads = args.workload or known
    for workload in workloads:
        if workload not in known:
            parser.error(f"unknown workload {workload!r}; one of {known}")
    seconds = manifest["run_seconds"]

    # SIGTERM unwinds like Ctrl-C, so the copies go on every exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = Path(tempfile.mkdtemp(prefix="ab_pairs-"))
    try:
        sides = {"parent": scratch / "parent", "change": scratch / "change"}
        for path in sides.values():
            path.mkdir()
        export_parent(args.parent, sides["parent"])
        export_working_tree(sides["change"])
        commit = _git("rev-parse", "--short", args.parent).decode().strip()
        print(f"parent {args.parent} ({commit}) vs working tree; seed "
              f"{args.seed}, {args.pairs} pairs, {seconds:g} s per run")
        runs = measure(sides, workloads, args.seed, args.pairs, seconds)
        table = report(runs, manifest)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if args.out:
        Path(args.out).write_text(json.dumps({
            "parent": commit, "seed": args.seed, "pairs": args.pairs,
            "seconds": seconds, "table": table, "runs": runs,
        }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
