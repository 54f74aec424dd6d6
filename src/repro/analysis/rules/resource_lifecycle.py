"""resource-lifecycle: opened resources must be closed on every path.

The §4 middleware opens real resources mid-scan: ``StagedFile``
writers, worker pools, shared-memory shippers.  PRs 1–3 each fixed a leak where one of them survived a failing scan.
Two checks encode what those fixes established:

**1. Cleanup handlers must catch BaseException.**  A ``try`` whose
handler cleans resources up (calls ``abandon_file``, ``release``,
``abort``, ...) and re-raises exists precisely so that *nothing* can
leak past it — but ``except Exception:`` lets ``KeyboardInterrupt``
and ``SystemExit`` through with the writers still open.  Any
cleanup-and-reraise handler narrower than ``BaseException`` is a
finding.

**2. Locally opened resources need an exception-path closer.**  When a
function assigns the result of a *known opener* (``StagedFile(...)``,
``ScanWorkerPool(...)``, ``ShmShipper(...)``, ``.open_file(...)``,
builtin ``open(...)``) to a local name, it owns that resource.  Ownership ends when the resource
is used as a context manager, returned, yielded, or stored into an
attribute/container (escape).  An owned resource requires a *closer* call
(``close``/``seal``/``abort``/``stop``/``delete``/``shutdown``/...)
on the name — and at least one closer must sit inside an ``except``
handler or ``finally`` block, because the normal-path closer alone is
exactly the bug class PR 3 fixed.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import Project
from ..findings import Finding
from ..source import SourceFile
from .base import Rule, call_name, iter_functions, walk_with_stack

#: Constructor / method names whose result is an owned resource.
OPENERS = {
    "StagedFile",
    "ScanWorkerPool",
    "ShmShipper",
    "open_file",
    "open",
}

#: Method names that end a resource's lifetime.
CLOSERS = {"close", "seal", "abort", "stop", "delete", "shutdown",
           "retire_broken", "cancel", "terminate", "cleanup", "join"}

#: Method names that count as cleanup work inside an except handler.
CLEANUP_VERBS = {"abandon_file", "cancel_memory_reservation", "release",
                 "close", "abort", "stop", "delete", "drain", "seal",
                 "shutdown", "retire_broken", "rollback_to",
                 "_release_cc_reservations"}


def _handler_catches_only_exception(handler: ast.ExceptHandler) -> bool:
    """True for ``except Exception`` (alone or in a tuple)."""
    node = handler.type
    if node is None:
        return False  # bare except == BaseException
    names = []
    if isinstance(node, ast.Tuple):
        names = [e.id for e in node.elts if isinstance(e, ast.Name)]
    elif isinstance(node, ast.Name):
        names = [node.id]
    return bool(names) and "BaseException" not in names and \
        "Exception" in names


class ResourceLifecycleRule(Rule):
    name = "resource-lifecycle"
    description = (
        "opened writers/pools/producers must be sealed, aborted or "
        "closed on all exit paths, including the raise path"
    )

    def check(self, project: Project) -> Iterable[Finding]:
        for source in project.files:
            for _, function in iter_functions(source.tree):
                yield from self._check_cleanup_handlers(source, function)
                yield from self._check_owned_resources(source, function)

    # -- check 1: except-too-narrow ------------------------------------

    def _check_cleanup_handlers(self, source: SourceFile,
                                function: ast.FunctionDef) -> \
            Iterable[Finding]:
        for node in ast.walk(function):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if not _handler_catches_only_exception(handler):
                    continue
                reraises = any(
                    isinstance(sub, ast.Raise) and sub.exc is None
                    for stmt in handler.body
                    for sub in ast.walk(stmt)
                )
                cleans = any(
                    isinstance(sub, ast.Call)
                    and call_name(sub) in CLEANUP_VERBS
                    for stmt in handler.body
                    for sub in ast.walk(stmt)
                )
                if reraises and cleans:
                    yield self.finding(
                        source, handler,
                        "cleanup-and-reraise handler catches Exception; "
                        "a KeyboardInterrupt here leaks the resources "
                        "it cleans up — catch BaseException",
                    )

    # -- check 2: owned locals -----------------------------------------

    def _check_owned_resources(self, source: SourceFile,
                               function: ast.FunctionDef) -> \
            Iterable[Finding]:
        owned: dict[str, ast.AST] = {}
        for node, stack in walk_with_stack(function):
            if not (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and call_name(node.value) in OPENERS):
                continue
            if len(node.targets) != 1 or \
                    not isinstance(node.targets[0], ast.Name):
                continue
            owned[node.targets[0].id] = node

        for name, node in owned.items():
            if self._escapes(function, name):
                continue
            closers = self._closer_calls(function, name)
            if not closers:
                yield self.finding(
                    source, node,
                    f"resource '{name}' is opened here but no "
                    "close/seal/abort/stop/delete is ever called on it",
                )
                continue
            if not any(self._inside_exception_path(function, call)
                       for call in closers):
                yield self.finding(
                    source, node,
                    f"resource '{name}' is only closed on the normal "
                    "path; an exception between open and close leaks "
                    "it — close it in an except handler or finally "
                    "block too",
                )

    @staticmethod
    def _escapes(function: ast.FunctionDef, name: str) -> bool:
        for node in ast.walk(function):
            if isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = node.value
                if value is not None and any(
                    isinstance(sub, ast.Name) and sub.id == name
                    for sub in ast.walk(value)
                ):
                    return True
            if isinstance(node, ast.Assign) and any(
                isinstance(t, (ast.Attribute, ast.Subscript))
                for t in node.targets
            ):
                if any(isinstance(sub, ast.Name) and sub.id == name
                       for sub in ast.walk(node.value)):
                    return True
            if isinstance(node, ast.Call) and \
                    call_name(node) in {"append", "add", "setdefault"}:
                if any(isinstance(arg, ast.Name) and arg.id == name
                       for arg in node.args):
                    return True
            if isinstance(node, ast.With):
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Name) and expr.id == name:
                        return True
        return False

    @staticmethod
    def _closer_calls(function: ast.FunctionDef, name: str) -> list[ast.Call]:
        out = []
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in CLOSERS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == name
            ):
                out.append(node)
        return out

    @staticmethod
    def _inside_exception_path(function: ast.FunctionDef,
                               call: ast.Call) -> bool:
        """True when ``call`` sits inside an except handler or finally."""
        for node, stack in walk_with_stack(function):
            if node is not call:
                continue
            for ancestor in stack:
                if isinstance(ancestor, ast.Try):
                    for handler in ancestor.handlers:
                        if any(sub is call for stmt in handler.body
                               for sub in ast.walk(stmt)):
                            return True
                    if any(sub is call for stmt in ancestor.finalbody
                           for sub in ast.walk(stmt)):
                        return True
                if isinstance(ancestor, ast.ExceptHandler):
                    return True
        return False
