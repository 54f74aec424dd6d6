"""knob-consistency: every config knob is reachable and documented.

``MiddlewareConfig`` is the single tuning surface of the middleware —
but a knob only *exists* for users if the CLI exposes it and the docs
mention it.  PRs 2 and 3 each added config fields
(``scan_pool``, a since-deleted scan gate) whose CLI flags
and docs lagged behind by a review round.  This rule makes the
three-way contract checkable:

* **CLI flag** — every public field of the ``MiddlewareConfig``
  dataclass needs a matching ``add_argument`` flag somewhere in the
  scanned files: ``--field-name`` (underscores → dashes), or
  ``--no-field-name`` for booleans defaulting to ``True``, or an
  entry in :data:`ALIASES` for historically named flags;
* **docs mention** — the field name (or its flag) must appear in at
  least one of ``docs/*.md`` / ``README.md`` under the project root;
* **env documentation** — every ``REPRO_*`` environment variable the
  config module reads must also appear in the docs.

The rule is cross-file: it locates the config module (the scanned file
defining a dataclass named ``MiddlewareConfig``) and collects flags
from *all* scanned files, so fixture projects exercise it without
path conventions.
"""

from __future__ import annotations

import ast
import glob
import os
import re
from typing import Iterable

from ..engine import Project
from ..findings import Finding
from ..source import SourceFile
from .base import Rule

#: Fields whose CLI flag predates the naming convention.
ALIASES = {
    "memory_bytes": ["--memory"],
    "file_staging": ["--no-staging", "--staging"],
    "memory_staging": ["--no-staging", "--staging"],
}

_ENV_PATTERN = re.compile(r"\bREPRO_[A-Z0-9_]+\b")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        probe = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        if isinstance(probe, ast.Name) and probe.id == "dataclass":
            return True
        if isinstance(probe, ast.Attribute) and probe.attr == "dataclass":
            return True
    return False


def _find_config(project: Project) -> \
        "tuple[SourceFile, ast.ClassDef] | tuple[None, None]":
    for source in project.files:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef) and \
                    node.name == "MiddlewareConfig" and _is_dataclass(node):
                return source, node
    return None, None


def _config_fields(class_node: ast.ClassDef) -> \
        "list[tuple[str, ast.AnnAssign, bool]]":
    """``(name, node, defaults_to_true)`` for every public field."""
    out = []
    for stmt in class_node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        name = stmt.target.id
        if name.startswith("_"):
            continue
        default_true = (
            isinstance(stmt.value, ast.Constant)
            and stmt.value.value is True
        )
        out.append((name, stmt, default_true))
    return out


def _declared_flags(project: Project) -> set[str]:
    """Every ``--flag`` string literal passed to ``add_argument``."""
    flags: set[str] = set()
    for source in project.files:
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add_argument"):
                continue
            for arg in node.args:
                if isinstance(arg, ast.Constant) and \
                        isinstance(arg.value, str) and \
                        arg.value.startswith("--"):
                    flags.add(arg.value)
    return flags


def _docs_text(root: str) -> str:
    chunks = []
    for pattern in ("README.md", os.path.join("docs", "*.md")):
        for path in sorted(glob.glob(os.path.join(root, pattern))):
            try:
                with open(path, encoding="utf-8") as handle:
                    chunks.append(handle.read())
            except OSError:
                continue
    return "\n".join(chunks)


class KnobConsistencyRule(Rule):
    name = "knob-consistency"
    description = (
        "every MiddlewareConfig field needs a CLI flag, a docs mention, "
        "and documentation for any REPRO_* env var it reads"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        source, class_node = _find_config(project)
        if source is None or class_node is None:
            return
        flags = _declared_flags(project)
        docs = _docs_text(project.root)
        for name, node, default_true in _config_fields(class_node):
            dashed = name.replace("_", "-")
            expected = ALIASES.get(name) or (
                [f"--no-{dashed}"] if default_true else [f"--{dashed}"]
            )
            if not any(flag in flags for flag in expected):
                yield self.finding(
                    source, node,
                    f"config field '{name}' has no CLI flag; expected "
                    f"one of {', '.join(expected)}",
                )
            if name not in docs and not any(f in docs for f in expected):
                yield self.finding(
                    source, node,
                    f"config field '{name}' is not mentioned in "
                    "README.md or docs/*.md",
                )
        for env in sorted(set(_ENV_PATTERN.findall(source.text))):
            if env not in docs:
                yield self.finding(
                    source, source.tree,
                    f"environment variable '{env}' is read by the "
                    "config module but never documented in README.md "
                    "or docs/*.md",
                )
