"""Parsed source files and suppression comments.

A :class:`SourceFile` bundles everything a rule needs about one module:
the raw text, split lines, the parsed AST, and the per-line suppression
table.  Suppressions use the project's own pragma syntax::

    risky_call()  # repro-lint: disable=<rule-name> -- justification

Several rules may be disabled on one line
(``disable=rule-a,rule-b``).  The text after ``--`` is the mandatory
justification: the engine reports a suppression with no justification
as an (unsuppressible) ``unjustified-suppression`` finding, so every
silenced rule carries an explanation a reviewer can audit.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

#: The suppression pragma.  Group 1: comma-separated rule names;
#: group 2: the justification after `` -- `` (may be absent).
_PRAGMA = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\- ]+?)"
    r"(?:\s+--\s*(.*))?\s*$"
)


@dataclass
class Suppression:
    """One ``# repro-lint: disable=...`` pragma on one line."""

    line: int
    rules: tuple[str, ...]
    justification: str
    #: Rules of this pragma that actually matched a finding (filled in
    #: by the engine so unused suppressions can be reported).
    used: set[str] = field(default_factory=set)

    @property
    def justified(self) -> bool:
        return bool(self.justification.strip())


class SourceFile:
    """One parsed Python module under analysis."""

    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=path)
        #: line number -> :class:`Suppression`
        self.suppressions: dict[int, Suppression] = {}
        for number, line in enumerate(self.lines, start=1):
            match = _PRAGMA.search(line)
            if match is None:
                continue
            rules = tuple(
                name.strip()
                for name in match.group(1).split(",")
                if name.strip()
            )
            self.suppressions[number] = Suppression(
                line=number,
                rules=rules,
                justification=(match.group(2) or ""),
            )

    def __repr__(self) -> str:
        return f"SourceFile({self.path!r})"
