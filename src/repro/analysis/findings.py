"""Findings: what a rule reports and how it is rendered.

A finding is one concrete violation anchored to a file and line.  The
engine sorts findings deterministically (path, line, column, rule) so
output is diff-stable across runs — CI gates and the self-scan test
both depend on that.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a concrete source location."""

    #: Path of the offending file, as given to the engine.
    path: str
    #: 1-based line the finding anchors to (suppressions attach here).
    line: int
    #: 0-based column, as reported by the AST node.
    column: int
    #: Rule name, e.g. ``resource-lifecycle``.
    rule: str
    #: Human-readable description of the violation.
    message: str

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable representation (``--format json``)."""
        return asdict(self)

    def render(self) -> str:
        """The human one-liner: ``path:line:col: [rule] message``."""
        return f"{self.path}:{self.line}:{self.column}: " \
               f"[{self.rule}] {self.message}"
