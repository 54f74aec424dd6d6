"""repro.analysis — the project's self-hosted static-analysis suite.

An AST-based lint engine with one rule, ``resource-lifecycle``
(resource cleanup on every exit path, the interrupt path included),
plus the suppression audit.  Lock discipline and lock order are
checked on real executions by the runtime sanitizer
(:mod:`repro.analysis.runtime`), which also reports every scan
resource left open.

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
