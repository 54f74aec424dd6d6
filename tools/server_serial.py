"""The ``server_serial`` configuration, timed on one or all executors.

    PYTHONPATH=src python3 tools/server_serial.py                  # inline
    PYTHONPATH=src python3 tools/server_serial.py --executor all --repeats 3
    PYTHONPATH=/path/to/parent/src python3 tools/server_serial.py  # other side

ROADMAP item 1(a)'s workload before it has a place in the frozen
benchmark: Agrawal F2, 100k rows, depth 8,
``MiddlewareConfig.no_staging(4 MiB)`` with every ``scan_*`` knob at its
default, so each tree level is one pushed-filter SERVER scan.
``--executor`` varies ``scan_workers`` / ``scan_pool`` only.  One JSON
line per fit: wall seconds, the tree's node count, the metered cost
units and how the SERVER scans ran.  The program measured is whichever
``repro`` is first on ``PYTHONPATH``, so the parent commit is timed by
pointing it at a ``git clone`` of the parent.
"""

from __future__ import annotations

import argparse
import json
import time

from repro.client import DecisionTreeClassifier
from repro.core import Middleware, MiddlewareConfig
from repro.datagen import (
    AgrawalConfig,
    agrawal_spec,
    generate_agrawal_rows,
    load_dataset,
)
from repro.sqlengine import SQLServer

N_ROWS = 100_000
MAX_DEPTH = 8
EXECUTORS = {
    "inline": {"scan_workers": 1},
    "thread": {"scan_workers": 2, "scan_pool": "thread"},
    "process": {"scan_workers": 2, "scan_pool": "process"},
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--executor", default="inline",
                        choices=[*EXECUTORS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args()

    spec = agrawal_spec()
    server = SQLServer()
    load_dataset(server, "data", spec, generate_agrawal_rows(AgrawalConfig(
        function=2, n_rows=N_ROWS, noise=0.05, seed=args.seed,
    )))
    names = list(EXECUTORS) if args.executor == "all" else [args.executor]
    for name in names:
        config = MiddlewareConfig.no_staging(
            4 * 1024 * 1024, **EXECUTORS[name]
        )
        for _ in range(args.repeats):
            units_before = server.meter.total
            started = time.perf_counter()
            with Middleware(server, "data", spec, config) as session:
                tree = DecisionTreeClassifier(
                    max_depth=MAX_DEPTH
                ).fit(session).tree
                records = session.trace.by_mode("SERVER")
            wall = time.perf_counter() - started
            print(json.dumps({
                "executor": name,
                "seed": args.seed,
                "fit_wall_s": round(wall, 3),
                "nodes": tree.n_nodes,
                "cost_units": round(server.meter.total - units_before, 1),
                "server_scans": len(records),
                "cached": sum(r.cached for r in records),
                "cache_hits": sum(r.cache_hit for r in records),
            }), flush=True)


if __name__ == "__main__":
    main()
