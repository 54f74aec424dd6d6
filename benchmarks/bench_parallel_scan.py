"""Scan executor A/B: the worker pool vs the inline executor.

Not a paper figure — this benchmark guards the pooled scan executors.
A 100k-row Agrawal frontier (26 nodes splitting on salary) is counted
through the real middleware once per worker count (1/2/4/8), flipping
only ``config.scan_workers`` (and using the process pool by default).
The 1-worker rung is the **inline** executor — same columnar
partitions and counting kernel as the pool rungs, counted on the
calling thread — and is the baseline every other rung's speedup is
measured against: a pool has to beat not having one.

Every configuration must produce CC tables identical to an independent
reference count — partial counts over disjoint row partitions merge
exactly, so worker count may change wall-clock time but never a single
counter.  Each profile records the per-stage wall-clock breakdown —
``ship_seconds`` / ``count_seconds`` / ``merge_seconds`` — so a
regression shows *where* the time went, not just that it went.  On a
machine with >= 4 usable cores, the 4-worker run must reach
``MIN_PARALLEL_SPEEDUP`` x the inline executor's rows/sec (whether the
pool stays is ROADMAP item 2's verdict instead: >= 1.3x a whole fit's
``fit_wall_s`` on 2 cores, 9 of 10 pairs) and the benchmark
**exits non-zero** below the floor; on smaller machines the floor is
recorded as skipped with a ``skip_reason`` and the measured ratio (a
2-core box cannot show a 4-worker speedup).

A second A/B guards the table-version columnar cache ("encode once,
scan every level"): one multi-level SERVER fit — the root scan plus
``CACHE_FIT_LEVELS - 1`` frontier passes over the same server table,
staging disabled — runs once cold (``scan_cache_bytes=0``,
re-encoding every level) and once warm.  Both runs must reproduce the
reference CC tables; the warm run records per-level wall/encode
seconds, ``cache_hits``/``cache_misses`` and the
``encode_seconds_saved``/``ship_seconds_saved`` counters, and on
non-smoke runs every warm level after the first must be a cache hit
reporting near-zero ``encode_seconds`` (the benchmark exits non-zero
otherwise).

Results land in ``benchmarks/results/parallel_scan.txt`` (human) and
``benchmarks/results/BENCH_scan.json`` (machine-readable trajectory).

Standalone::

    python benchmarks/bench_parallel_scan.py [--rows N] [--smoke]
        [--pool thread|process] [--workers 1 2 4 8]

``--smoke`` shrinks the data set and only checks CC equivalence — CI
uses it to fail on correctness regressions, never on machine speed.
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
from repro.core.filters import PathCondition
from repro.core.middleware import Middleware
from repro.core.requests import CountsRequest
from repro.datagen.agrawal import AgrawalConfig, agrawal_spec, generate_agrawal_rows
from repro.datagen.loader import load_dataset
from repro.sqlengine.columnar import ColumnarPartition
from repro.sqlengine.database import SQLServer

#: Required 4-worker / inline throughput ratio (full runs on machines
#: with >= MIN_CORES usable cores only).  Not the pool's keep-or-go
#: bar: that is ROADMAP item 2's 1.3x-on-2-cores rule.
MIN_PARALLEL_SPEEDUP = 1.5
#: Cores needed before the speedup floor is enforced.
MIN_CORES = 4
#: Rows in the full-size run; ``--smoke`` shrinks this.
DEFAULT_ROWS = 100_000
#: Worker counts on the ladder (1, the inline baseline, always runs).
DEFAULT_WORKER_COUNTS = (1, 2, 4, 8)
#: Best-of-N scans per rung, to damp timer noise.
REPEATS = 3
#: The frontier splits on salary (26 brackets -> 26 active nodes).
SPLIT_ATTRIBUTE = "salary"
#: Scan levels in the columnar-cache fit (root + frontier passes).
CACHE_FIT_LEVELS = 4
#: "Near-zero" bound on a warm level's encode_seconds (hits skip the
#: encode entirely, so anything measurable means a re-encode happened).
CACHE_ENCODE_EPSILON = 1e-6


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity support
        return os.cpu_count() or 1


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


def scan_frontier(spec, rows, frontier, workers, pool):
    """Count the frontier through the middleware; best-of-N profile.

    The root data set is committed straight into middleware memory, so
    measured wall time is routing + counting + (behind a pool)
    partition shipping and merging — the true cost of an executor, not
    just its kernel — and never the SQL engine.
    """
    server = SQLServer()
    load_dataset(server, "data", spec, rows)
    config = MiddlewareConfig.no_staging(
        16_000_000, scan_workers=workers, scan_pool=pool,
    )
    best = None
    results = {}
    with Middleware(server, "data", spec, config) as mw:
        assert mw.staging.reserve_memory("root", len(rows))
        mw.staging.commit_memory(
            "root", [ColumnarPartition.from_rows(rows)]
        )
        for _ in range(REPEATS):
            mw.queue_requests(request for request, _ in frontier)
            wall = ship = count = merge = 0.0
            seen = 0
            partition_rows = 0
            while mw.pending:
                for result in mw.process_next_batch():
                    results[result.node_id] = result
                scan = mw.trace[-1]
                assert scan.workers == workers
                wall += scan.wall_seconds
                seen += scan.rows_seen
                ship += scan.ship_seconds
                count += sum(scan.worker_seconds)
                merge += scan.merge_seconds
                partition_rows = max(partition_rows, scan.partition_rows)
            profile = {
                "rows_per_sec": seen / wall if wall > 0.0 else 0.0,
                "wall_seconds": wall,
                "ship_seconds": ship,
                "count_seconds": count,
                "merge_seconds": merge,
                "partition_rows": partition_rows,
            }
            if best is None or profile["rows_per_sec"] > best["rows_per_sec"]:
                best = profile
    return best, results


def columnar_cache_ab(spec, rows, frontier, workers, pool):
    """Warm (table-version cache) vs cold (re-encode) multi-level fit.

    Every level is one parallel scan over the *same* server table:
    level 0 counts the root, levels 1..``CACHE_FIT_LEVELS - 1`` each
    count the whole frontier batch.  Staging is disabled, so nothing
    is memoised between levels except the cache under test — the cold
    run pays the columnar encode every level, the warm run encodes on
    level 0 and serves every later level from the version-keyed
    entry (and, on the process pool, from the persistent shared-memory
    segment).  Both runs must reproduce the reference CC tables.
    """
    attributes = tuple(spec.attribute_names)
    root_reference = build_cc_from_rows(rows, spec, attributes)
    profiles = {}
    for label, cache_on in (("cold", False), ("warm", True)):
        server = SQLServer()
        load_dataset(server, "data", spec, rows)
        config = MiddlewareConfig.no_staging(
            16_000_000,
            scan_workers=workers,
            scan_pool=pool,
            **({} if cache_on else {"scan_cache_bytes": 0}),
        )
        levels = []
        results = {}
        with Middleware(server, "data", spec, config) as mw:
            for level in range(CACHE_FIT_LEVELS):
                if level == 0:
                    mw.queue_request(
                        CountsRequest(
                            node_id="root",
                            lineage=("root",),
                            conditions=(),
                            attributes=attributes,
                            n_rows=len(rows),
                            est_cc_pairs=root_reference.n_pairs,
                        )
                    )
                else:
                    mw.queue_requests(request for request, _ in frontier)
                while mw.pending:
                    for result in mw.process_next_batch():
                        results[result.node_id] = result
                    scan = mw.trace[-1]
                    levels.append(
                        {
                            "wall_seconds": scan.wall_seconds,
                            "encode_seconds": scan.encode_seconds,
                            "ship_seconds": scan.ship_seconds,
                            "cached": scan.cached,
                            "cache_hit": scan.cache_hit,
                        }
                    )
            stats = mw.stats
            cache = mw.execution.scan_cache
            profiles[label] = {
                "levels": levels,
                "wall_seconds": sum(l["wall_seconds"] for l in levels),
                "encode_seconds": sum(l["encode_seconds"] for l in levels),
                "ship_seconds": sum(l["ship_seconds"] for l in levels),
                "cache_hits": sum(l["cache_hit"] for l in levels),
                "cache_misses": sum(
                    l["cached"] and not l["cache_hit"] for l in levels
                ),
                "encode_seconds_saved": stats.encode_seconds_saved,
                "ship_seconds_saved": stats.ship_seconds_saved,
                "resident_bytes":
                    0 if cache is None else cache.resident_bytes,
            }
        assert results["root"].cc == root_reference, label
        for request, reference in frontier:
            assert results[request.node_id].cc == reference, \
                (label, request.node_id)
    warm, cold = profiles["warm"], profiles["cold"]
    warm["wall_speedup"] = (
        cold["wall_seconds"] / warm["wall_seconds"]
        if warm["wall_seconds"] > 0.0 else 0.0
    )
    return profiles


def check_equivalence(frontier, results_by_label):
    """Every configuration must reproduce the reference counts."""
    for label, results in results_by_label.items():
        for request, reference in frontier:
            node_id = request.node_id
            assert results[node_id].cc == reference, (label, node_id)
            assert not results[node_id].used_sql_fallback, (label, node_id)


def run_ab(n_rows=DEFAULT_ROWS, pool="process",
           worker_counts=DEFAULT_WORKER_COUNTS):
    """A/B the worker ladder against its inline rung."""
    spec = agrawal_spec()
    rows = list(generate_agrawal_rows(AgrawalConfig(n_rows=n_rows, seed=3)))
    frontier = build_frontier(spec, rows)

    ladder = {}
    results_by_label = {}
    for workers in sorted({1, *worker_counts}):
        profile, results = scan_frontier(spec, rows, frontier, workers, pool)
        inline = ladder.get(1, profile)["rows_per_sec"]
        profile["speedup"] = (
            profile["rows_per_sec"] / inline if inline > 0.0 else 0.0
        )
        ladder[workers] = profile
        results_by_label[f"{workers}w"] = results
    check_equivalence(frontier, results_by_label)

    ab_workers = max(w for w in worker_counts if w <= 4)
    cache_ab = columnar_cache_ab(spec, rows, frontier, ab_workers, pool)

    return {
        "n_rows": n_rows,
        "n_nodes": len(frontier),
        "pool": pool,
        "cores": _usable_cores(),
        "ladder": ladder,
        "ab_workers": ab_workers,
        "cache_ab": cache_ab,
    }


def report(comparison):
    ladder = comparison["ladder"]
    rows = []
    for workers, profile in sorted(ladder.items()):
        rows.append(
            [
                "inline (1 worker)" if workers == 1
                else f"{workers} workers",
                f"{profile['rows_per_sec']:,.0f}",
                f"{profile['wall_seconds']:.4f}",
                f"{profile['ship_seconds']:.4f}",
                f"{profile['count_seconds']:.4f}",
                f"{profile['merge_seconds']:.4f}",
                f"{profile['speedup']:.2f}x",
            ]
        )
    table = render_table(
        ["scan executor", "rows/s", "wall (s)", "ship (s)", "count (s)",
         "merge (s)", "vs inline"],
        rows,
        title=(
            f"Scan executor A/B ({comparison['pool']} pool): "
            f"{comparison['n_rows']:,}-row Agrawal, "
            f"{comparison['n_nodes']}-node frontier on {SPLIT_ATTRIBUTE} "
            f"(best of {REPEATS}, {comparison['cores']} usable cores)"
        ),
    )
    floor_note = (
        f"floor: >= {MIN_PARALLEL_SPEEDUP:.1f}x inline at 4 workers "
        f"(enforced on machines with >= {MIN_CORES} cores; "
        f"this machine has {comparison['cores']})"
    )
    cache_rows = [
        [
            label,
            f"{len(profile['levels'])}",
            f"{profile['wall_seconds']:.4f}",
            f"{profile['encode_seconds']:.4f}",
            f"{profile['ship_seconds']:.4f}",
            f"{profile['cache_hits']}/{profile['cache_misses']}",
            f"{profile['encode_seconds_saved']:.4f}",
        ]
        for label, profile in comparison["cache_ab"].items()
    ]
    cache_table = render_table(
        ["columnar cache", "levels", "wall (s)", "encode (s)",
         "ship (s)", "hits/misses", "encode saved (s)"],
        cache_rows,
        title=(
            f"Table-version columnar cache: {CACHE_FIT_LEVELS}-level "
            f"SERVER fit, warm vs cold re-encode "
            f"({comparison['ab_workers']} workers, "
            f"{comparison['pool']} pool, "
            f"{comparison['cache_ab']['warm']['wall_speedup']:.2f}x "
            f"warm wall speedup)"
        ),
    )
    return (
        table
        + "\n\nCC tables identical across all configurations.\n"
        + floor_note
        + "\n\n"
        + cache_table
    )


def floor_status(comparison, smoke=False):
    """Why the speedup floor was (not) enforced, machine-readably.

    The CI smoke run and low-core machines legitimately skip the
    4-workers-over-inline assert; this records the skip, the detected
    core count and the measured ratio, so a skipped floor is visible in
    BENCH_scan.json rather than silently indistinguishable from a
    passing one.
    """
    four = comparison["ladder"].get(4)
    if smoke:
        skip_reason = "smoke run: CC-equivalence only, no speedup floor"
    elif comparison["cores"] < MIN_CORES:
        skip_reason = (
            f"{comparison['cores']} usable core(s) < {MIN_CORES} "
            "required to enforce the parallel speedup floor"
        )
    elif four is None:
        skip_reason = "no 4-worker configuration in the ladder"
    else:
        skip_reason = None
    return {
        "min_parallel_speedup": MIN_PARALLEL_SPEEDUP,
        "min_cores": MIN_CORES,
        "cores_detected": comparison["cores"],
        "enforced": skip_reason is None,
        "skip_reason": skip_reason,
        "speedup_at_4_workers":
            four["speedup"] if four is not None else None,
    }


def cache_floor_status(comparison, smoke=False):
    """Why the warm-cache floor was (not) enforced, machine-readably.

    The floor: in the warm run, every level after the first must be a
    cache hit reporting near-zero ``encode_seconds`` — the whole point
    of the cache is that a multi-level fit encodes the table once.
    Smoke runs record an explicit ``skip_reason`` instead.
    """
    warm = comparison["cache_ab"]["warm"]
    if smoke:
        skip_reason = "smoke run: CC-equivalence only, no cache floor"
    else:
        skip_reason = None
    later = warm["levels"][1:]
    return {
        "encode_epsilon": CACHE_ENCODE_EPSILON,
        "enforced": skip_reason is None,
        "skip_reason": skip_reason,
        "warm_levels_after_first": len(later),
        "warm_hits_after_first":
            sum(1 for level in later if level["cache_hit"]),
        "max_warm_encode_seconds_after_first":
            max((level["encode_seconds"] for level in later),
                default=0.0),
    }


def record_json(comparison, smoke=False):
    """Persist the ladder machine-readably (BENCH_scan.json)."""
    update_bench_json(
        "parallel_scan",
        {
            "config": {
                "n_rows": comparison["n_rows"],
                "n_nodes": comparison["n_nodes"],
                "pool": comparison["pool"],
                "repeats": REPEATS,
                "smoke": smoke,
            },
            "inline_rows_per_sec": comparison["ladder"][1]["rows_per_sec"],
            "workers": {
                str(workers): {
                    "rows_per_sec": profile["rows_per_sec"],
                    "speedup": profile["speedup"],
                    "ship_seconds": profile["ship_seconds"],
                    "count_seconds": profile["count_seconds"],
                    "merge_seconds": profile["merge_seconds"],
                    "partition_rows": profile["partition_rows"],
                }
                for workers, profile in comparison["ladder"].items()
            },
            "columnar_cache": {
                "levels": CACHE_FIT_LEVELS,
                "workers": comparison["ab_workers"],
                **{
                    label: {
                        "wall_seconds": profile["wall_seconds"],
                        "encode_seconds": profile["encode_seconds"],
                        "ship_seconds": profile["ship_seconds"],
                        "cache_hits": profile["cache_hits"],
                        "cache_misses": profile["cache_misses"],
                        "encode_seconds_saved":
                            profile["encode_seconds_saved"],
                        "ship_seconds_saved":
                            profile["ship_seconds_saved"],
                        "resident_bytes": profile["resident_bytes"],
                    }
                    for label, profile in comparison["cache_ab"].items()
                },
                "wall_speedup":
                    comparison["cache_ab"]["warm"]["wall_speedup"],
                "floor": cache_floor_status(comparison, smoke),
            },
            "floor": floor_status(comparison, smoke),
            "cpu_count": comparison["cores"],
        },
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=DEFAULT_ROWS)
    parser.add_argument("--pool", choices=("thread", "process"),
                        default="process")
    parser.add_argument("--workers", type=int, nargs="+",
                        default=list(DEFAULT_WORKER_COUNTS))
    parser.add_argument(
        "--smoke", action="store_true",
        help="small data set, CC-equivalence check only (no speedup floor)",
    )
    args = parser.parse_args(argv)

    n_rows = min(args.rows, 5_000) if args.smoke else args.rows
    worker_counts = tuple(args.workers)
    if args.smoke:
        worker_counts = tuple(w for w in worker_counts if w <= 4) or (2,)
    comparison = run_ab(n_rows, pool=args.pool, worker_counts=worker_counts)
    write_report("parallel_scan", report(comparison))
    record_json(comparison, smoke=args.smoke)

    floor = floor_status(comparison, smoke=args.smoke)
    if floor["skip_reason"] is not None:
        print(f"speedup floor skipped: {floor['skip_reason']}")
    cache_floor = cache_floor_status(comparison, smoke=args.smoke)
    if cache_floor["skip_reason"] is not None:
        print(f"cache floor skipped: {cache_floor['skip_reason']}")
    if args.smoke:
        return 0  # equivalence already asserted in run_ab
    if cache_floor["enforced"]:
        misses = (cache_floor["warm_levels_after_first"]
                  - cache_floor["warm_hits_after_first"])
        if misses > 0:
            print(
                f"FAIL: {misses} warm level(s) after the first missed "
                "the columnar cache (expected every later level to "
                "reuse the level-0 encoding)",
                file=sys.stderr,
            )
            return 1
        worst = cache_floor["max_warm_encode_seconds_after_first"]
        if worst > CACHE_ENCODE_EPSILON:
            print(
                f"FAIL: warm level re-encoded for {worst:.6f}s "
                f"(> {CACHE_ENCODE_EPSILON:.0e}s); the table-version "
                "cache should make every level after the first free "
                "of encode work",
                file=sys.stderr,
            )
            return 1
    four = comparison["ladder"].get(4)
    if floor["enforced"] and four is not None \
            and four["speedup"] < MIN_PARALLEL_SPEEDUP:
        print(
            f"FAIL: 4 workers run {four['speedup']:.2f}x the inline "
            f"executor, below the {MIN_PARALLEL_SPEEDUP:.1f}x floor",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
