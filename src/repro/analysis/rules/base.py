"""Shared plumbing for analysis rules.

Every rule exposes ``name``, ``description`` and
``check(project) -> Iterable[Finding]``; per-file rules loop over
``project.files`` themselves.  The helpers here cover the AST idioms
the rules share: naming a call, walking functions with their enclosing
class, and walking a body with each node's ancestors.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..engine import Project
from ..findings import Finding
from ..source import SourceFile


class Rule:
    """Base class: subclasses set ``name``/``description``."""

    name = "rule"
    description = ""

    def check(self, project: Project) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(self, source: SourceFile, node: ast.AST,
                message: str) -> Finding:
        return Finding(
            path=source.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0),
            rule=self.name,
            message=message,
        )


def call_name(node: ast.Call) -> str | None:
    """The terminal name of a call: ``f(...)`` -> f, ``x.m(...)`` -> m."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def iter_functions(tree: ast.AST) -> \
        Iterator[tuple[ast.ClassDef | None, ast.FunctionDef]]:
    """Yield ``(enclosing_class_or_None, function)`` pairs."""

    def visit(node: ast.AST, owner: ast.ClassDef | None) -> \
            Iterator[tuple[ast.ClassDef | None, ast.FunctionDef]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if isinstance(child, ast.FunctionDef):
                    yield owner, child
                yield from visit(child, owner)
            else:
                yield from visit(child, owner)

    yield from visit(tree, None)


def walk_with_stack(node: ast.AST) -> Iterator[tuple[ast.AST, list[ast.AST]]]:
    """Yield ``(descendant, ancestors)`` for every node under ``node``.

    ``ancestors`` excludes ``node`` itself and is ordered outermost
    first.  Nested function/class definitions are *not* descended into
    — callers iterate functions one at a time via
    :func:`iter_functions` and want each body in isolation.
    """

    def visit(current: ast.AST,
              stack: list[ast.AST]) -> Iterator[tuple[ast.AST, list[ast.AST]]]:
        for child in ast.iter_child_nodes(current):
            yield child, stack
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef, ast.Lambda)):
                continue
            yield from visit(child, stack + [child])

    yield from visit(node, [])
