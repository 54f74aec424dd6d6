"""The analysis engine: collect files, run rules, apply suppressions.

The engine is deliberately small: it loads every ``.py`` file under
the requested paths into :class:`~repro.analysis.source.SourceFile`
objects, hands the whole :class:`Project` to each rule (rules decide
whether they work per-file or across files), then filters the findings
through the per-line suppression table.

Suppression policy:

* a finding on a line carrying ``# repro-lint: disable=<rule>`` is
  dropped and the suppression is marked used;
* a suppression without a `` -- justification`` tail produces an
  ``unjustified-suppression`` finding (which cannot itself be
  suppressed — the point is that every silence is auditable);
* a suppression no finding matched produces an ``unused-suppression``
  finding, so stale pragmas are cleaned up instead of rotting.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Collection, Iterable, Protocol, Sequence

from .findings import Finding
from .source import SourceFile

#: Directory names never descended into while collecting files.
_SKIP_DIRS = {"__pycache__", ".git", ".hg", ".venv", "venv", "node_modules"}

#: Engine-level pseudo-rules guarding the suppression mechanism itself.
UNJUSTIFIED_SUPPRESSION = "unjustified-suppression"
UNUSED_SUPPRESSION = "unused-suppression"


class Project:
    """Every source file of one analysis run, plus the project root.

    ``root`` is what SARIF artifact URIs are relative to; it is
    auto-detected by walking up from the first scanned path to the
    nearest directory containing ``pyproject.toml`` (falling back to
    the scanned path itself).
    """

    def __init__(self, files: list[SourceFile], root: str) -> None:
        self.files = files
        self.root = root


class RuleLike(Protocol):
    """What the engine needs from a rule (see ``rules.base.Rule``)."""

    name: str

    def check(self, project: Project) -> Iterable[Finding]: ...


@dataclass
class AnalysisReport:
    """The outcome of one engine run."""

    findings: list[Finding] = field(default_factory=list)
    #: Findings dropped by suppressions (kept for ``--show-suppressed``).
    suppressed: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    #: Files that could not be parsed (reported as findings too).
    parse_errors: int = 0
    #: Rules this run executed, in registry order.
    rules_run: list[str] = field(default_factory=list)
    #: Detected project root (SARIF URIs are relative to it).
    root: str = "."
    #: Wall seconds per rule.
    rule_timings: dict[str, float] = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not self.findings


def _detect_root(start: str) -> str:
    """Nearest ancestor of ``start`` holding a ``pyproject.toml``."""
    probe = os.path.abspath(start)
    if os.path.isfile(probe):
        probe = os.path.dirname(probe)
    while True:
        if os.path.exists(os.path.join(probe, "pyproject.toml")):
            return probe
        parent = os.path.dirname(probe)
        if parent == probe:
            return os.path.abspath(start)
        probe = parent


def collect_paths(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in _SKIP_DIRS and not d.endswith(".egg-info")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    out.append(os.path.join(dirpath, filename))
    return sorted(set(out))


def load_project(paths: list[str], root: str | None = None) -> \
        tuple[Project, list[Finding]]:
    """Parse every file; returns the project plus parse-error findings."""
    files = []
    errors = []
    for path in collect_paths(paths):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        try:
            files.append(SourceFile(path, text))
        except SyntaxError as exc:
            errors.append(
                Finding(
                    path=path,
                    line=exc.lineno or 1,
                    column=(exc.offset or 1) - 1,
                    rule="parse-error",
                    message=f"could not parse file: {exc.msg}",
                )
            )
    detected_root = root or _detect_root(paths[0] if paths else ".")
    return Project(files, detected_root), errors


def run_rules_timed(project: Project, rules: Sequence[RuleLike]) -> \
        tuple[list[Finding], dict[str, float]]:
    """Run every rule; sorted findings plus wall seconds per rule."""
    timings: dict[str, float] = {}
    findings: list[Finding] = []
    for rule in rules:
        started = time.perf_counter()
        findings.extend(rule.check(project))
        timings[rule.name] = time.perf_counter() - started
    return sorted(findings), timings


def apply_suppressions(
    project: Project,
    findings: list[Finding],
    active_rules: Collection[str] | None = None,
) -> AnalysisReport:
    """Split findings into reported vs suppressed; audit the pragmas.

    ``active_rules`` scopes the *unused*-suppression audit to the
    rules that actually ran: a ``--select``ed single-rule run must not
    flag every other rule's pragma as stale.  ``None`` (the default)
    audits everything — the full-suite behaviour.
    """
    report = AnalysisReport(files_scanned=len(project.files))
    by_path = {f.path: f for f in project.files}
    for finding in findings:
        source = by_path.get(finding.path)
        suppression = (
            source.suppressions.get(finding.line)
            if source is not None else None
        )
        if (
            suppression is not None
            and finding.rule in suppression.rules
            and suppression.justified
        ):
            suppression.used.add(finding.rule)
            report.suppressed.append(finding)
        else:
            report.findings.append(finding)

    # Audit the suppression table itself.
    for source in project.files:
        for suppression in source.suppressions.values():
            if not suppression.justified:
                report.findings.append(
                    Finding(
                        path=source.path,
                        line=suppression.line,
                        column=0,
                        rule=UNJUSTIFIED_SUPPRESSION,
                        message=(
                            "suppression lacks a justification; write "
                            "'# repro-lint: disable="
                            f"{','.join(suppression.rules)} -- <why>'"
                        ),
                    )
                )
                continue
            # One finding *per unused rule*: a shared
            # ``disable=a,b`` pragma where only ``a`` still fires must
            # report ``b`` individually, and a narrowed run
            # (``--select``) must stay silent about rules it never
            # executed.
            for rule_name in suppression.rules:
                if rule_name in suppression.used:
                    continue
                if active_rules is not None and \
                        rule_name not in active_rules:
                    continue
                report.findings.append(
                    Finding(
                        path=source.path,
                        line=suppression.line,
                        column=0,
                        rule=UNUSED_SUPPRESSION,
                        message=(
                            f"suppression of '{rule_name}' never "
                            "matched a finding; remove it from the "
                            "pragma"
                        ),
                    )
                )
    report.findings.sort()
    report.suppressed.sort()
    return report


def analyze(paths: list[str], rules: Sequence[RuleLike],
            root: str | None = None) -> AnalysisReport:
    """Parse, run, suppress — the one-call entry point."""
    project, parse_errors = load_project(paths, root=root)
    findings, timings = run_rules_timed(project, rules)
    report = apply_suppressions(
        project, findings,
        active_rules={rule.name for rule in rules},
    )
    report.findings = sorted(report.findings + parse_errors)
    report.parse_errors = len(parse_errors)
    report.rules_run = [rule.name for rule in rules]
    report.rule_timings = timings
    report.root = project.root
    return report
