"""repro.analysis — the project's self-hosted static-analysis suite.

AST-based lint rules that encode the invariants the middleware's own
bug history (PRs 1–3) established: lock discipline on declared
attributes, future lifecycle on the scan pool, resource cleanup on
every exit path, and pickle-safety of process-worker payloads.

Run it with ``python -m repro.analysis src`` (exit 0 = clean) or call
:func:`analyze` directly.  See ``docs/static_analysis.md`` for the
rule catalog and the suppression syntax
(``# repro-lint: disable=<rule> -- <why>``).
"""

from __future__ import annotations

from .engine import AnalysisReport, Project, analyze
from .findings import Finding
from .rules import ALL_RULES, default_rules

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "Finding",
    "Project",
    "analyze",
    "default_rules",
]
