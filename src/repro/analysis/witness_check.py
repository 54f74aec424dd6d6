"""Diff a sanitizer run's observed lock-order edges against the witness.

``lock_order.witness.json`` is the blessed set of nested lock
acquisitions.  The file only stays honest if runtime observations feed
back into it, so CI runs::

    python -m repro.analysis.witness_check sanitize-report.json

after the sanitized test suites: every edge the instrumented locks
*actually* observed (the report's ``lock_order_edges``) must already be
blessed.  An undocumented nested acquisition fails the job — either
the code grew a lock nesting nobody reviewed, or the witness file went
stale.  ``--update`` rewrites the file with the union (run locally,
commit the diff), merging the holding-thread names from the report's
``lock_order_edge_records`` into each blessed record; blessed edges
that were not observed are reported informationally but never fail,
because no single test run exercises every code path.

Exit codes follow ``python -m repro.analysis``: 0 clean, 1 findings,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from .runtime.witness import (
    WitnessEdge,
    find_witness_file,
    load_witness,
    merge_witness_edges,
    save_witness,
)


def observed_edges_from_report(path: str) -> list[tuple[str, str]]:
    """The ``lock_order_edges`` recorded in a sanitizer run report."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    edges = payload.get("lock_order_edges", [])
    return [(str(outer), str(inner)) for outer, inner in edges]


def observed_records_from_report(path: str) -> list[WitnessEdge]:
    """Observed edges as witness records, thread names included.

    Prefers the report's ``lock_order_edge_records`` (present since
    witness format v2); falls back to the bare ``lock_order_edges``
    pairs from older reports, which carry no thread information.
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    records = payload.get("lock_order_edge_records")
    if records is not None:
        return [
            WitnessEdge(
                outer=str(record["outer"]),
                inner=str(record["inner"]),
                threads=tuple(
                    str(name) for name in record.get("threads", [])
                ),
            )
            for record in records
        ]
    return [
        WitnessEdge(outer=outer, inner=inner)
        for outer, inner in observed_edges_from_report(path)
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.witness_check",
        description=(
            "Fail when a sanitizer run observed nested lock "
            "acquisitions missing from lock_order.witness.json."
        ),
    )
    parser.add_argument(
        "report",
        help="sanitizer run report (REPRO_SANITIZE_REPORT output)",
    )
    parser.add_argument(
        "--witness", default=None,
        help=(
            "witness file to check against (default: "
            "lock_order.witness.json found walking up from the cwd)"
        ),
    )
    parser.add_argument(
        "--update", action="store_true",
        help="bless the observed edges: rewrite the witness file with "
             "the union (merging observed thread names) and exit 0",
    )
    return parser


def main(argv: "Optional[list[str]]" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    witness_path = args.witness or find_witness_file()
    if witness_path is None:
        print("error: no lock_order.witness.json found", file=sys.stderr)
        return 2
    try:
        blessed_records = load_witness(witness_path)
        observed_records = observed_records_from_report(args.report)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    blessed = {edge.pair for edge in blessed_records}
    observed = {edge.pair for edge in observed_records}

    undocumented = sorted(observed - blessed)
    unexercised = sorted(blessed - observed)

    if args.update:
        merged = merge_witness_edges(blessed_records, observed_records)
        save_witness(witness_path, merged)
        print(
            f"witness updated: {len(undocumented)} edge(s) blessed, "
            f"{len(merged)} total"
        )
        return 0

    for outer, inner in unexercised:
        # Informational only: one run never exercises every path.
        print(f"note: blessed edge not observed this run: "
              f"{outer} -> {inner}")
    if undocumented:
        for outer, inner in undocumented:
            print(
                f"undocumented lock-order edge: {outer} -> {inner} "
                f"(observed by the sanitizer, missing from "
                f"{witness_path})"
            )
        print(
            f"{len(undocumented)} undocumented edge(s); re-run with "
            "--update locally and commit the witness diff if this "
            "nesting is intended"
        )
        return 1
    print(
        f"witness check clean: {len(observed)} observed edge(s), "
        f"all blessed"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
