"""Shared meter-detection helpers for the meter-integrity rule family.

All four rules need the same three observations about a function:

* which of its call expressions are **charge calls** — ``meter.charge
  (category, amount)`` through any receiver whose terminal name
  contains ``meter`` (``meter``, ``self._meter``, ``server.meter``;
  the project never spells a cost meter any other way, and fixtures
  follow suit);
* the **literal category** a charge call names (or ``None`` when the
  category is computed — which ``charge-category`` flags);
* whether the function is **metered** — it can see a cost meter at
  all (a parameter or attribute whose name contains ``meter``), which
  is what makes it an entry point for the reachability rules: a
  function with no meter in scope *cannot* charge, so the obligation
  belongs to its metered callers.

Storage-layer shape discovery also lives here: page classes (define
``live_rows``), heap classes (carry a list-of-pages attribute), the
row-access sinks and the mutation sinks derived from them.  The rules
share one vocabulary for "what is a row" so their findings compose.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from ..project_index import ClassInfo, FunctionInfo, ProjectIndex


def is_charge_call(node: ast.Call) -> bool:
    """True for ``<something metered>.charge(...)``."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "charge"):
        return False
    receiver = func.value
    if isinstance(receiver, ast.Attribute):
        name = receiver.attr
    elif isinstance(receiver, ast.Name):
        name = receiver.id
    else:
        return False
    return "meter" in name.lower()


def charge_calls(node: ast.AST) -> Iterator[ast.Call]:
    """Charge calls lexically under ``node``, nested defs included.

    Nested defs count because closures like the columnar cache's
    ``charge_scan`` execute as part of their enclosing plan function.
    """
    for child in ast.walk(node):
        if isinstance(child, ast.Call) and is_charge_call(child):
            yield child


def category_arg(node: ast.Call) -> Optional[ast.expr]:
    """The category argument expression of a charge call."""
    if node.args:
        return node.args[0]
    for keyword in node.keywords:
        if keyword.arg == "category":
            return keyword.value
    return None


def literal_category(node: ast.Call) -> Optional[str]:
    """The literal category string, or None when it is computed."""
    arg = category_arg(node)
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return arg.value
    return None


def charged_categories(node: ast.AST) -> "list[str]":
    """Literal categories of every charge call under ``node`` (multiset)."""
    out: "list[str]" = []
    for call in charge_calls(node):
        category = literal_category(call)
        if category is not None:
            out.append(category)
    return out


def is_metered(info: FunctionInfo) -> bool:
    """True when the function can see a cost meter at all."""
    args = info.node.args
    for arg in (list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)):
        if "meter" in arg.arg.lower():
            return True
        annotation = arg.annotation
        if isinstance(annotation, ast.Name) and \
                "meter" in annotation.id.lower():
            return True
        if isinstance(annotation, ast.Constant) and \
                isinstance(annotation.value, str) and \
                "meter" in annotation.value.lower():
            return True
    for node in ast.walk(info.node):
        if isinstance(node, ast.Attribute) and \
                "meter" in node.attr.lower():
            return True
        if isinstance(node, ast.Name) and "meter" in node.id.lower():
            return True
    return False


# -- storage shape discovery ------------------------------------------------


def page_classes(index: ProjectIndex) -> "dict[str, ClassInfo]":
    """Classes that define ``live_rows`` — the page layer."""
    return {
        qualname: info for qualname, info in index.classes.items()
        if "live_rows" in info.methods
    }


def heap_classes(index: ProjectIndex,
                 pages: "dict[str, ClassInfo]") -> "dict[str, ClassInfo]":
    """Classes carrying a list-of-pages attribute — the heap layer."""
    out: "dict[str, ClassInfo]" = {}
    for qualname, info in index.classes.items():
        for elem in info.attr_elem_types.values():
            if elem in pages:
                out[qualname] = info
                break
    return out


def _page_list_attrs(info: ClassInfo,
                     pages: "dict[str, ClassInfo]") -> "set[str]":
    return {
        attr for attr, elem in info.attr_elem_types.items()
        if elem in pages
    }


def _touches_page_list(func: ast.FunctionDef,
                       attrs: "set[str]") -> bool:
    """True when the method indexes into or For-loops its page list."""
    for node in ast.walk(func):
        probe: Optional[ast.expr] = None
        if isinstance(node, ast.Subscript):
            probe = node.value
        elif isinstance(node, ast.For):
            probe = node.iter
            if isinstance(probe, ast.Call) and probe.args:
                # ``for i, page in enumerate(self._pages):``
                probe = probe.args[0]
        if (
            isinstance(probe, ast.Attribute)
            and isinstance(probe.value, ast.Name)
            and probe.value.id == "self"
            and probe.attr in attrs
        ):
            return True
    return False


def row_access_sinks(index: ProjectIndex) -> "set[str]":
    """Qualnames whose execution touches heap rows.

    Two layers: every page class's ``live_rows``, and every heap
    method that indexes into or iterates its page list (scan, fetch,
    insert, delete...).  Methods that only *measure* the page list
    (``len(self._pages)``) are excluded on purpose.
    """
    pages = page_classes(index)
    sinks: "set[str]" = set()
    for info in pages.values():
        sinks.add(info.methods["live_rows"])
    for heap_info in heap_classes(index, pages).values():
        attrs = _page_list_attrs(heap_info, pages)
        for name, qualname in heap_info.methods.items():
            method = index.functions.get(qualname)
            if method is not None and \
                    _touches_page_list(method.node, attrs):
                sinks.add(qualname)
    return sinks


def _mutates_rows(func: ast.FunctionDef) -> bool:
    """True for page methods that write ``self.rows``."""
    for node in ast.walk(func):
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in ("append", "insert", "pop"):
            target = node.func.value
            if isinstance(target, ast.Attribute) and \
                    isinstance(target.value, ast.Name) and \
                    target.value.id == "self" and \
                    "rows" in target.attr:
                return True
        if isinstance(node, ast.Assign):
            for assign_target in node.targets:
                if isinstance(assign_target, ast.Subscript):
                    probe = assign_target.value
                    if isinstance(probe, ast.Attribute) and \
                            isinstance(probe.value, ast.Name) and \
                            probe.value.id == "self" and \
                            "rows" in probe.attr:
                        return True
    return False


def mutation_sinks(index: ProjectIndex) -> "set[str]":
    """Page methods that physically write rows (append/tombstone)."""
    sinks: "set[str]" = set()
    for info in page_classes(index).values():
        for qualname in info.methods.values():
            method = index.functions.get(qualname)
            if method is not None and _mutates_rows(method.node):
                sinks.add(qualname)
    return sinks


def charging_functions(index: ProjectIndex,
                       sinks: "set[str]") -> "set[str]":
    """Every function that charges, itself or through a price function.

    A lexical charge call (nested defs count) makes a function a
    charger.  A charger that can reach none of the row-access
    ``sinks`` is a *price function*: it touches no rows, it only
    states what something costs — ``page_scan_charge``,
    ``tid_join_charge``.  Each scan-path
    price is written once in such a function and the paths that owe it
    call it, so a direct call to a price function counts as charging
    too.  One hop only, and only through price functions: calling
    something that merely charges somewhere inside (the executor)
    prices nothing the caller does.
    """
    lexical = {
        qualname for qualname, info in index.functions.items()
        if any(True for _ in charge_calls(info.node))
    }
    prices = {
        qualname for qualname in lexical
        if index.find_path(qualname, sinks) is None
    }
    return lexical | {
        qualname for qualname, callees in index.edges.items()
        if not prices.isdisjoint(callees)
    }
