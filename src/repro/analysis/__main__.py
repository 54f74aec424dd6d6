"""CLI driver: ``python -m repro.analysis [paths...]``.

Exit codes: 0 = clean, 1 = findings reported (or the time budget was
exceeded), 2 = usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine import analyze
from .rules import default_rules, rules_by_name
from .sarif import to_sarif


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Run the repro static-analysis suite (resource-lifecycle "
            "lint) over the given files or directories."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to scan (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select", default=None, metavar="RULE[,RULE...]",
        help=(
            "run only the named rules (comma-separated); the "
            "unused-suppression audit is scoped to them"
        ),
    )
    parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help=(
            "fail (exit 1) if total rule wall time exceeds this "
            "many seconds — CI's smoke budget"
        ),
    )
    parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="write the formatted report to PATH instead of stdout",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--show-suppressed", action="store_true",
        help="also print findings silenced by pragmas",
    )
    parser.add_argument(
        "--root", default=None,
        help=(
            "project root SARIF artifact URIs are relative to; "
            "auto-detected from the nearest pyproject.toml by default"
        ),
    )
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.select is not None:
        names = [n.strip() for n in args.select.split(",") if n.strip()]
        try:
            rules = rules_by_name(names)
        except KeyError as exc:
            parser.error(f"unknown rule {exc.args[0]!r} in --select "
                         "(see --list-rules)")
    else:
        rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.name}: {rule.description}")
        return 0

    try:
        report = analyze(args.paths, rules, root=args.root)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    lines: list[str] = []
    if args.format == "json":
        payload = {
            "files_scanned": report.files_scanned,
            "parse_errors": report.parse_errors,
            "rules_run": report.rules_run,
            "rule_timings": {
                name: round(seconds, 6)
                for name, seconds in sorted(report.rule_timings.items())
            },
            "findings": [f.to_dict() for f in report.findings],
            "suppressed": [f.to_dict() for f in report.suppressed],
        }
        lines.append(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "sarif":
        document = to_sarif(report, rules, root=report.root)
        lines.append(json.dumps(document, indent=2))
    else:
        for finding in report.findings:
            lines.append(finding.render())
        if args.show_suppressed:
            for finding in report.suppressed:
                lines.append(f"[suppressed] {finding.render()}")
        lines.append(
            f"{len(report.findings)} finding(s), "
            f"{len(report.suppressed)} suppressed, "
            f"{report.files_scanned} file(s) scanned"
        )

    text = "\n".join(lines) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)

    if args.time_budget is not None:
        spent = sum(report.rule_timings.values())
        if spent > args.time_budget:
            print(
                f"error: analysis took {spent:.2f}s, over the "
                f"{args.time_budget:.2f}s budget "
                f"(slowest: {_slowest(report.rule_timings)})",
                file=sys.stderr,
            )
            return 1

    return 0 if report.clean else 1


def _slowest(timings: "dict[str, float]") -> str:
    if not timings:
        return "n/a"
    name = max(timings, key=lambda key: timings[key])
    return f"{name} at {timings[name]:.2f}s"


if __name__ == "__main__":
    sys.exit(main())
