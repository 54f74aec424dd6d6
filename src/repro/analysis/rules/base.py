"""Shared plumbing for analysis rules.

Every rule exposes ``name``, ``description`` and
``check(project) -> Iterable[Finding]``; per-file rules loop over
``project.files`` themselves.  The helpers here cover the AST idioms
several rules share: resolving ``self.attr`` references, walking
functions with their enclosing class, and finding the lock held around
a statement.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from ..engine import Project
from ..findings import Finding
from ..source import SourceFile


class Rule:
    """Base class: subclasses set ``name``/``description``.

    Rules that query the interprocedural
    :class:`~repro.analysis.project_index.ProjectIndex` set
    ``needs_index = True`` so the engine builds (and times) the index
    once before any of them runs, via :meth:`Project.index`.  Rules
    that additionally query the lock-set dataflow
    (:class:`~repro.analysis.lockset.LockSetAnalysis`) set
    ``needs_lockset = True``; the engine pre-builds it under the
    ``lock-set`` timing entry via :meth:`Project.lockset`.
    """

    name = "rule"
    description = ""
    needs_index = False
    needs_lockset = False

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


def self_attr(node: ast.AST) -> str | None:
    """``attr`` when ``node`` is ``self.attr``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


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


def with_lock_names(stack: list[ast.AST]) -> set[str]:
    """Locks held at a point, given the ancestor ``With`` statements.

    A lock is a ``with self.<name>:`` (or ``with self.<name>`` among
    several items) anywhere in the ancestor stack.
    """
    held: set[str] = set()
    for node in stack:
        if isinstance(node, ast.With):
            for item in node.items:
                name = self_attr(item.context_expr)
                if name is not None:
                    held.add(name)
    return held


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


def names_in(node: ast.AST) -> set[str]:
    """Every bare ``Name`` referenced anywhere under ``node``."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
