"""Scan-loop A/B: row kernel vs per-row matcher loop vs inline columnar.

Not a paper figure — this benchmark guards the middleware's own scan
loops (Section 4.1's "one scan" counting).  The same 100k-row Agrawal
frontier is counted three times through the real middleware, always
with one worker (``scan_workers=1``):

* **kernel** — the row kernel (``scan_parallel_min_rows`` pinned above
  any source, so no scan is partitioned): the batch's path conditions
  compile into one attribute-indexed dispatch table; routing costs
  one dict probe per constrained attribute per row;
* **per-row** — the reference loop (``scan_kernel=False``) evaluates
  every node's matcher closure against every row;
* **inline** — what ``scan_workers=1`` runs by default on a source
  this large: columnar partitions counted by the vector kernel on the
  calling thread, no pool and no helper thread.

The scan reads a memory-staged data set, so the measured wall time is
the routing loop itself, not the SQL engine.  All loops must produce
byte-identical CC tables (checked against an independent reference
count), and the row kernel must route at least ``MIN_SPEEDUP`` times
as many rows per second as the per-row loop.

A second table locates the **row-kernel vs inline crossover**: the
two loops count sources of ``CROSSOVER_SIZES`` rows, from the server
(encode per scan) and from middleware memory (first scan of a fresh
session, so the one-off encode of the memory set is paid), for a wide
and a narrow batch.  ``MiddlewareConfig.scan_parallel_min_rows`` —
scaled up for batches wider than ``execution.INLINE_GATE_BLOCKS`` CC
blocks — is the gate between the two loops; the report prints each
measured crossover above the gate the default configuration applies.

Standalone: ``python benchmarks/bench_scan_kernel.py [--rows N] [--smoke]``
(``--smoke`` shrinks the data set and only checks equivalence — CI uses
it to fail on crashes, not on machine-speed regressions).
"""

import argparse
import os
import sys

try:
    import repro  # noqa: F401
except ImportError:  # standalone run from the repo root
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "src")
    )

from repro.bench.harness import update_bench_json, write_report
from repro.client.baselines import build_cc_from_rows
from repro.common.text import render_table
from repro.core.config import MiddlewareConfig
from repro.core.execution import INLINE_GATE_BLOCKS
from repro.core.filters import PathCondition
from repro.core.middleware import Middleware
from repro.core.requests import CountsRequest
from repro.datagen.agrawal import AgrawalConfig, agrawal_spec, generate_agrawal_rows
from repro.datagen.loader import load_dataset
from repro.sqlengine.columnar import columnar_available
from repro.sqlengine.database import SQLServer

#: Required kernel/per-row throughput ratio (full runs only).
MIN_SPEEDUP = 2.0
#: Rows in the full-size run; ``--smoke`` shrinks this.
DEFAULT_ROWS = 100_000
#: Best-of-N scans per loop, to damp timer noise.
REPEATS = 3

#: The frontier splits on salary (26 brackets → 26 active nodes); a
#: wide batch is where the kernel's one-probe dispatch pays off over
#: one-closure-per-node routing.
SPLIT_ATTRIBUTE = "salary"
#: The narrow batch of the crossover table (5 nodes).
NARROW_SPLIT_ATTRIBUTE = "education"
#: Source sizes the crossover table measures.
CROSSOVER_SIZES = (256, 512, 1024, 2048, 4096, 8192)
#: Config overrides selecting each loop (one worker throughout, so
#: ``$REPRO_SCAN_WORKERS`` cannot turn an arm into a pool run).
LOOPS = {
    "kernel": {"scan_workers": 1, "scan_parallel_min_rows": 1 << 30},
    "per-row": {"scan_workers": 1, "scan_kernel": False},
    "inline": {"scan_workers": 1},
}
#: The inline loop with its size gate opened, for the crossover table:
#: sources far below ``scan_parallel_min_rows`` still go columnar.
#: Chunks are sized so that every source is one partition (4 chunks),
#: as the default sizing makes any batch wide enough to be in doubt.
FORCED_INLINE = dict(
    LOOPS["inline"], scan_parallel_min_rows=0,
    scan_chunk_rows=max(CROSSOVER_SIZES) // 4,
)


def build_frontier(spec, rows, split_attribute=SPLIT_ATTRIBUTE):
    """Reference CC tables and requests for a one-attribute frontier."""
    split_index = spec.attribute_names.index(split_attribute)
    child_attributes = tuple(
        name for name in spec.attribute_names if name != split_attribute
    )
    frontier = []
    for value in range(spec.attribute_cards[split_index]):
        subset = [row for row in rows if row[split_index] == value]
        if not subset:
            continue
        reference = build_cc_from_rows(subset, spec, child_attributes)
        request = CountsRequest(
            node_id=f"edu{value}",
            lineage=("root", f"edu{value}"),
            conditions=(PathCondition(split_attribute, "=", value),),
            attributes=child_attributes,
            n_rows=len(subset),
            est_cc_pairs=reference.n_pairs,
        )
        frontier.append((request, reference))
    return frontier


def _count_frontier(mw, frontier, loop, results):
    """One pass over the frontier; returns (wall, rows seen, evals)."""
    mw.queue_requests(request for request, _ in frontier)
    wall = 0.0
    seen = evals = 0
    while mw.pending:
        for result in mw.process_next_batch():
            results[result.node_id] = result
        scan = mw.trace[-1]
        assert scan.workers == 1
        assert scan.kernel == (loop != "per-row")
        if columnar_available():
            assert scan.columnar == (loop == "inline")
        wall += scan.wall_seconds
        seen += scan.rows_seen
        evals += scan.matcher_evals
    return wall, seen, evals


def scan_frontier(spec, rows, frontier, loop):
    """Count the frontier through the middleware; best-of-N profile.

    ``loop`` names an entry of :data:`LOOPS` (the source must be large
    enough for the inline loop's gate to let it run).  The root data set is
    committed straight into middleware memory, so every measured scan
    runs in MEMORY mode: ``wall_seconds`` covers routing + counting,
    not server I/O.  Returns ``(profile, results)`` where profile is
    ``{rows_per_sec, wall_seconds, matcher_evals}``.
    """
    server = SQLServer()
    load_dataset(server, "data", spec, rows)
    config = MiddlewareConfig.no_staging(16_000_000, **LOOPS[loop])
    best = None
    results = {}
    with Middleware(server, "data", spec, config) as mw:
        assert mw.staging.reserve_memory("root", len(rows))
        mw.staging.commit_memory("root", list(rows))
        for _ in range(REPEATS):
            wall, seen, evals = _count_frontier(mw, frontier, loop, results)
            profile = {
                "rows_per_sec": seen / wall if wall > 0.0 else 0.0,
                "wall_seconds": wall,
                "matcher_evals": evals,
            }
            if best is None or profile["rows_per_sec"] > best["rows_per_sec"]:
                best = profile
    return best, results


def first_scan_rows_per_sec(spec, rows, frontier, loop, source):
    """Best-of-N throughput of a fresh session's *first* frontier scan.

    ``source`` is ``"memory"`` (the rows are committed to middleware
    memory; the inline loop pays the one-off columnar encode of the
    memory set) or ``"server"`` (no staging and no pushed filter, so
    the cursor hands over every row and the inline loop encodes them
    partition by partition).  Every repeat opens a new session, so
    nothing is warm.
    """
    best = 0.0
    for _ in range(REPEATS):
        server = SQLServer()
        load_dataset(server, "data", spec, rows)
        overrides = FORCED_INLINE if loop == "inline" else LOOPS[loop]
        config = MiddlewareConfig.no_staging(
            16_000_000, push_filters=False, **overrides
        )
        results = {}
        with Middleware(server, "data", spec, config) as mw:
            if source == "memory":
                assert mw.staging.reserve_memory("root", len(rows))
                mw.staging.commit_memory("root", list(rows))
            wall, seen, _ = _count_frontier(mw, frontier, loop, results)
        for request, reference in frontier:
            assert results[request.node_id].cc == reference, request.node_id
        if wall > 0.0:
            best = max(best, seen / wall)
    return best


def run_crossover(spec, rows, sizes):
    """Row kernel vs inline at small source sizes; see the module doc.

    Returns ``{"cells": {column: {size: {kernel, inline, ratio}}},
    "crossover": {column: size | None}, "gate": {column: rows},
    "crossover_rows": size | None}`` where a column is
    ``"<source>/<n_nodes> nodes"``, a crossover is the size from which
    inline is at least as fast at every larger measured size
    (interpolated between the two sizes around parity; None = never),
    and a gate is the source size from
    which the default configuration takes the inline loop for that
    column's batch.
    """
    cells = {}
    gate = {}
    min_rows = MiddlewareConfig().scan_parallel_min_rows
    for split_attribute in (SPLIT_ATTRIBUTE, NARROW_SPLIT_ATTRIBUTE):
        for source in ("server", "memory"):
            column = None
            for size in sizes:
                subset = rows[:size]
                frontier = build_frontier(spec, subset, split_attribute)
                blocks = sum(len(r.attributes) for r, _ in frontier)
                column = column or f"{source}/{len(frontier)} nodes"
                gate[column] = max(
                    min_rows, min_rows * blocks // INLINE_GATE_BLOCKS
                )
                kernel = first_scan_rows_per_sec(
                    spec, subset, frontier, "kernel", source
                )
                inline = first_scan_rows_per_sec(
                    spec, subset, frontier, "inline", source
                )
                cells.setdefault(column, {})[size] = {
                    "kernel": kernel,
                    "inline": inline,
                    "ratio": inline / kernel if kernel > 0.0 else 0.0,
                }
    crossover = {}
    for column, by_size in cells.items():
        winner = None
        for size in sorted(by_size, reverse=True):
            ratio = by_size[size]["ratio"]
            if ratio < 1.0:
                if winner is not None:
                    # Where the ratio crosses 1.0 between the two sizes.
                    above = by_size[winner]["ratio"]
                    winner = round(
                        size + (winner - size) * (1.0 - ratio)
                        / (above - ratio)
                    )
                break
            winner = size
        crossover[column] = winner
    worst = None
    if all(size is not None for size in crossover.values()):
        worst = max(crossover.values())
    return {"cells": cells, "crossover": crossover, "gate": gate,
            "crossover_rows": worst}


def check_equivalence(frontier, results_by_loop):
    """Every loop must reproduce the independent reference counts."""
    for loop, results in results_by_loop.items():
        for request, reference in frontier:
            node_id = request.node_id
            assert results[node_id].cc == reference, (loop, node_id)
            assert not results[node_id].used_sql_fallback, (loop, node_id)


def run_ab(n_rows=DEFAULT_ROWS):
    """Run every loop over the same frontier; returns the comparison."""
    spec = agrawal_spec()
    rows = list(generate_agrawal_rows(AgrawalConfig(n_rows=n_rows, seed=3)))
    frontier = build_frontier(spec, rows)

    profiles = {}
    results_by_loop = {}
    for loop in LOOPS:
        profiles[loop], results_by_loop[loop] = scan_frontier(
            spec, rows, frontier, loop
        )
    check_equivalence(frontier, results_by_loop)

    def ratio(fast, slow):
        slow_rate = profiles[slow]["rows_per_sec"]
        return profiles[fast]["rows_per_sec"] / slow_rate if slow_rate else 0.0

    sizes = tuple(size for size in CROSSOVER_SIZES if size <= n_rows)
    return {
        "n_rows": n_rows,
        "n_nodes": len(frontier),
        **profiles,
        "speedup": ratio("kernel", "per-row"),
        "inline_speedup": ratio("inline", "kernel"),
        "crossover": run_crossover(spec, rows, sizes),
        "gate_rows": MiddlewareConfig().scan_parallel_min_rows,
    }


def record_json(comparison, smoke=False):
    """Persist the A/B machine-readably (benchmarks/results/BENCH_scan.json)."""
    update_bench_json(
        "scan_kernel",
        {
            "config": {
                "n_rows": comparison["n_rows"],
                "n_nodes": comparison["n_nodes"],
                "repeats": REPEATS,
                "smoke": smoke,
            },
            "kernel_rows_per_sec": comparison["kernel"]["rows_per_sec"],
            "per_row_rows_per_sec": comparison["per-row"]["rows_per_sec"],
            "speedup": comparison["speedup"],
            "min_speedup": MIN_SPEEDUP,
            "inline_rows_per_sec": comparison["inline"]["rows_per_sec"],
            "inline_speedup_vs_kernel": comparison["inline_speedup"],
            "crossover": {
                "scan_parallel_min_rows": comparison["gate_rows"],
                "measured_rows": comparison["crossover"]["crossover_rows"],
                "by_source": comparison["crossover"]["crossover"],
                "default_gate": comparison["crossover"]["gate"],
                "inline_over_kernel": {
                    column: {
                        str(size): cell["ratio"]
                        for size, cell in by_size.items()
                    }
                    for column, by_size in
                    comparison["crossover"]["cells"].items()
                },
            },
            "cpu_count": os.cpu_count(),
        },
    )


def report(comparison):
    kernel_rate = comparison["kernel"]["rows_per_sec"]
    table = render_table(
        ["scan loop", "rows/s", "wall (s)", "matcher evals", "vs kernel"],
        [
            [
                name,
                f"{comparison[name]['rows_per_sec']:,.0f}",
                f"{comparison[name]['wall_seconds']:.4f}",
                f"{comparison[name]['matcher_evals']:,}",
                f"{comparison[name]['rows_per_sec'] / kernel_rate:.2f}x"
                if kernel_rate else "-",
            ]
            for name in LOOPS
        ],
        title=(
            f"Scan loop A/B: {comparison['n_rows']:,}-row Agrawal, "
            f"{comparison['n_nodes']}-node frontier on {SPLIT_ATTRIBUTE} "
            f"(one worker, best of {REPEATS})"
        ),
    )
    crossover = comparison["crossover"]
    columns = list(crossover["cells"])
    sizes = sorted({size for c in columns for size in crossover["cells"][c]})
    crossover_table = render_table(
        ["source rows"] + columns,
        [
            [f"{size:,}"] + [
                f"{crossover['cells'][c][size]['ratio']:.2f}x"
                for c in columns
            ]
            for size in sizes
        ] + [
            ["crossover"] + [
                "never" if crossover["crossover"][c] is None
                else f"{crossover['crossover'][c]:,}"
                for c in columns
            ],
            ["default gate"] + [f"{crossover['gate'][c]:,}" for c in columns],
        ],
        title=(
            "Inline columnar / row kernel throughput on a fresh "
            f"session's first scan (best of {REPEATS}; >= 1.00x = "
            "inline wins)"
        ),
    )
    measured = crossover["crossover_rows"]
    return (
        table
        + f"\n\nkernel speedup: {comparison['speedup']:.2f}x over per-row "
        f"(required >= {MIN_SPEEDUP:.1f}x); inline: "
        f"{comparison['inline_speedup']:.2f}x over the row kernel; "
        "CC tables identical\n\n"
        + crossover_table
        + "\n\nrow-kernel/inline crossover, widest batch: "
        + ("not reached" if measured is None else f"{measured:,} rows")
        + f" (scan_parallel_min_rows = {comparison['gate_rows']:,}, "
        f"scaled up for batches over {INLINE_GATE_BLOCKS} CC blocks)"
    )


def bench_scan_kernel(benchmark):
    comparison = benchmark.pedantic(run_ab, rounds=1, iterations=1)
    write_report("scan_kernel", report(comparison))
    record_json(comparison)
    assert comparison["speedup"] >= MIN_SPEEDUP


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small data set, equivalence check only (no speedup assert)",
    )
    args = parser.parse_args(argv)

    n_rows = min(args.rows, 5_000) if args.smoke else args.rows
    comparison = run_ab(n_rows)
    write_report("scan_kernel", report(comparison))
    record_json(comparison, smoke=args.smoke)
    if not args.smoke and comparison["speedup"] < MIN_SPEEDUP:
        print(
            f"FAIL: kernel speedup {comparison['speedup']:.2f}x "
            f"below the {MIN_SPEEDUP:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
