"""Rule: no metered path may touch heap rows without charging.

The paper's cost claims only hold if *every* row access that happens
on behalf of a metered operation shows up on the meter.  The failure
mode is always the same: an executor or cursor entry point (a function
that can see a :class:`CostMeter`) calls two or three hops down into
the storage layer, each hop looks innocent, and the page iteration at
the bottom is free.

Structurally: a **row-access sink** is a page class's ``live_rows`` or
a heap method that indexes/iterates its page list (discovered by
:mod:`.meter_common`, not hard-coded).  An **entry point** is any
metered function outside the storage layer.  The rule flags an entry
point ``F`` when

* ``F`` itself contains no charge call (a function that charges
  *anything* is trusted to have priced its own row work — granularity
  is per function, documented in docs/static_analysis.md), and
* the call graph contains a path from ``F`` to a sink whose
  intermediate functions all charge nothing either.

Functions that charge act as blockers, so one metered hop sanitises
everything below it.  Findings are deduplicated to the *innermost*
uncharged entry: if every offending path from ``F`` runs through
another flagged function ``G``, only ``G`` is reported — fixing (or
suppressing) the inner function is what actually discharges the path.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..engine import Project
from ..findings import Finding
from ..project_index import FunctionInfo, ProjectIndex
from .base import Rule
from .meter_common import charging_functions, heap_classes, is_metered, \
    page_classes, row_access_sinks


def short_path(path: "list[str]") -> str:
    """A readable call path: last two qualname components per hop."""
    return " -> ".join(".".join(q.split(".")[-2:]) for q in path)


def _storage_qualnames(index: ProjectIndex) -> "set[str]":
    pages = page_classes(index)
    out: "set[str]" = set()
    for info in list(pages.values()) + \
            list(heap_classes(index, pages).values()):
        out.update(info.methods.values())
    return out


class UnmeteredRowAccessRule(Rule):

    name = "unmetered-row-access"
    description = (
        "a metered entry point reaches heap-row access through a call "
        "path carrying no meter.charge on the way"
    )
    needs_index = True

    def check(self, project: Project) -> Iterable[Finding]:
        index = project.index()
        sinks = row_access_sinks(index)
        if not sinks:
            return []
        chargers = charging_functions(index, sinks)
        storage = _storage_qualnames(index)

        candidates: "dict[str, list[str]]" = {}
        for qualname, info in index.functions.items():
            if qualname in storage or qualname in chargers:
                continue
            if not is_metered(info):
                continue
            path = index.find_path(qualname, sinks, blocked=chargers)
            if path is not None:
                candidates[qualname] = path

        findings: "list[Finding]" = []
        flagged = set(candidates)
        for qualname, path in sorted(candidates.items()):
            blocked = chargers | (flagged - {qualname})
            inner_path = index.find_path(qualname, sinks,
                                         blocked=blocked)
            if inner_path is None:
                continue  # every path runs through a reported inner fn
            info = index.functions[qualname]
            findings.append(self._finding_at(index, info, inner_path))
        return findings

    def _finding_at(self, index: ProjectIndex, info: FunctionInfo,
                    path: "list[str]") -> Finding:
        anchor: ast.AST = info.node
        if len(path) > 1:
            sites = index.call_sites_into(info.qualname, path[1])
            if sites:
                anchor = sites[0].node
        return self.finding(
            info.source, anchor,
            f"metered '{info.qualname.split('.')[-1]}' reaches heap "
            f"rows with no charge on the way: {short_path(path)}",
        )


__all__ = ["UnmeteredRowAccessRule", "short_path"]
