"""Identity fingerprints of whole fits, to compare two commits byte for byte.

    python3 tools/fingerprint.py --out /tmp/change.json
    mkdir /tmp/parent && git archive HEAD | tar -x -C /tmp/parent
    python3 tools/fingerprint.py --root /tmp/parent --out /tmp/parent.json
    cmp /tmp/parent.json /tmp/change.json

A change that claims to move only wall time (a faster kernel, a new
store for the counts) must leave every fit exactly as it was.  This
tool fits the ``benchmarks/e2e`` workloads of the checkout at
``--root`` (default: this one) and dumps, per fit, everything such a
change could disturb:

* the tree's structural signature (``run.tree_signature``);
* per scan, the :class:`~repro.core.trace.ScheduleRecord` fields that
  are decisions or results rather than timings — mode, batch, cost,
  rows seen and routed, staging targets, split, deferrals and SQL
  fallbacks;
* the sha256 of every staged file as it is sealed, and of every memory
  set's rows as it is committed, in order;
* the fit's simulated cost units.

Each workload is set up once per seed and fitted twice in one process
(the second fit reuses the server's encoding of the table).  At the
first seed the staged plans of ``staged_default`` and
``staged_parallel`` and the no-staging plan of ``server_parallel`` are
fitted again on every executor: inline, two threads, two processes.
The output is canonical JSON (sorted keys, no timings), so two runs
over the same behaviour are identical files.  The tool reads only the
program's public surface, so it runs unchanged against an older
checkout exported with ``git archive``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Optional

#: Rows divisor per workload (``WORKLOADS[name](seed, scale)``); a
#: smaller scale runs more rows.
SCALES = {
    "staged_default": 4, "staged_parallel": 4, "server_parallel": 4,
    "deep_tree": 2, "sql_counting": 1,
}
#: ``(scan_workers, scan_pool)`` of each executor.
EXECUTORS = {"inline": (1, "thread"), "thread2": (2, "thread"),
             "process2": (2, "process")}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _Recorder:
    """Hashes staged files at seal and memory sets at commit."""

    def __init__(self) -> None:
        self.staged_files: list[str] = []
        self.memory_sets: list[str] = []

    def install(self, staging: Any) -> Callable[[], None]:
        """Wrap the staging tier's seal and commit; returns the undo."""
        seal = staging.StagedFile.seal
        commit = staging.StagingManager.commit_memory
        recorder = self

        def sealed(file: Any) -> None:
            seal(file)
            recorder.staged_files.append(
                _sha256(Path(file.path).read_bytes())
            )

        def committed(manager: Any, node_id: Any, *args: Any) -> None:
            commit(manager, node_id, *args)
            rows = manager.memory_rows(node_id)
            recorder.memory_sets.append(_sha256(repr(rows).encode()))

        staging.StagedFile.seal = sealed
        staging.StagingManager.commit_memory = committed

        def undo() -> None:
            staging.StagedFile.seal = seal
            staging.StagingManager.commit_memory = commit

        return undo


def _scans(session: Any) -> list[list[Any]]:
    return [
        [record.mode, list(record.batch), repr(record.cost),
         record.rows_seen, record.rows_routed,
         list(record.stage_file_targets), list(record.stage_memory_targets),
         record.split_file, record.deferrals, record.sql_fallbacks]
        for record in session.trace
    ]


def _fingerprint(label: str, loaded: Any,
                 fit: Callable[[Any], Any]) -> dict[str, Any]:
    """Fit once; what the fit decided, counted, staged and cost."""
    from repro.core import staging
    from run import tree_signature

    recorder = _Recorder()
    sessions: list[Any] = []
    meter = loaded.server.meter
    meter.reset()
    undo = recorder.install(staging)
    try:
        tree = fit(lambda session: sessions.append(_scans(session)))
    finally:
        undo()
    return {
        "fit": label,
        "tree": tree_signature(tree),
        "cost_units": repr(meter.total),
        "scans": sessions[0] if sessions else [],
        "staged_files": recorder.staged_files,
        "memory_sets": recorder.memory_sets,
    }


def _plan_fit(loaded: Any, config: Any,
              max_depth: Optional[int]) -> Callable[[Any], Any]:
    """A fit of ``loaded``'s table under another middleware config."""
    from repro.client import DecisionTreeClassifier
    from repro.core import Middleware
    from workloads import TABLE

    def fit(observe: Any) -> Any:
        with Middleware(loaded.server, TABLE, loaded.spec, config) as session:
            tree = DecisionTreeClassifier(max_depth=max_depth).fit(
                session
            ).tree
            observe(session)
        return tree

    return fit


def _plans(seed: int, scale: Optional[int]) -> list[dict[str, Any]]:
    """The staged / no-staging plans on every executor."""
    from repro.core import MiddlewareConfig
    from workloads import WORKLOADS

    plans = {
        "staged_default": (
            lambda **pool: MiddlewareConfig(memory_bytes=512 * 1024, **pool),
            8),
        "staged_parallel": (
            lambda **pool: MiddlewareConfig(memory_bytes=1024 * 1024, **pool),
            8),
        "server_parallel": (
            lambda **pool: MiddlewareConfig.no_staging(4 * 1024 * 1024,
                                                       **pool),
            6),
    }
    out = []
    for name, (make_config, max_depth) in plans.items():
        loaded = WORKLOADS[name](seed, scale or SCALES[name])
        for executor, (workers, pool) in EXECUTORS.items():
            config = make_config(scan_workers=workers, scan_pool=pool)
            out.append(_fingerprint(
                f"{name} seed={seed} plan on {executor}", loaded,
                _plan_fit(loaded, config, max_depth),
            ))
    return out


def fingerprints(seeds: list[int], scale: Optional[int],
                 workloads: list[str], plans: bool) -> list[dict[str, Any]]:
    from workloads import WORKLOADS

    out = []
    for seed in seeds:
        for name in workloads:
            loaded = WORKLOADS[name](seed, scale or SCALES[name])
            for fit in (1, 2):
                out.append(_fingerprint(
                    f"{name} seed={seed} fit {fit}", loaded, loaded.fit
                ))
    if plans:
        out.extend(_plans(seeds[0], scale))
    return out


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and benchmarks/e2e run")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 7, 29])
    parser.add_argument("--scale", type=int, default=None,
                        help="rows divisor for every workload "
                             "(default: per workload, see SCALES)")
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="repeatable; default: all five")
    parser.add_argument("--no-plans", dest="plans", action="store_false",
                        help="skip the plans-on-every-executor fits")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks" / "e2e")]
    workloads = args.workloads or list(SCALES)
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as staging_dir:
        tempfile.tempdir = staging_dir  # staged files land here
        try:
            result = fingerprints(args.seeds, args.scale, workloads,
                                  args.plans)
        finally:
            tempfile.tempdir = None
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    n_scans = sum(len(fit["scans"]) for fit in result)
    print(f"{len(result)} fits, {n_scans} scans, "
          f"{sum(len(fit['staged_files']) for fit in result)} staged files, "
          f"{sum(len(fit['memory_sets']) for fit in result)} memory sets "
          f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
