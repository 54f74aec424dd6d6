"""Resource witness and the checked-in lock-order witness file.

Two witnesses live here:

* :class:`ResourceWitness` — runtime create-vs-close tracking for
  executors, futures, staged files and worker threads.  Anything
  created but never closed by report time is a **leak finding** that
  carries the creation stack, so "who forgot to shut this down" is
  answered by the report, not by a debugger.

* the **lock-order witness file** (``lock_order.witness.json`` at the
  repo root) — the blessed set of nested-acquisition edges.
  ``witness_check`` fails CI when a sanitizer run observes an edge
  that is not in it, and ``witness_check --update`` refreshes it from
  a run report, so the file never goes stale by hand-editing.

The witness file format is versioned.  Version 1 stored bare
``[outer, inner]`` pairs; version 2 stores one record per edge with
the names of every thread observed holding the outer lock while
taking the inner one.  :func:`load_witness` reads both;
:func:`save_witness` always writes version 2.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass
from typing import Iterable, Optional

from .findings import RuntimeFinding, capture_stack

#: Name of the checked-in witness file, looked up at the project root.
WITNESS_FILENAME = "lock_order.witness.json"

#: Format version written by :func:`save_witness`.
WITNESS_VERSION = 2


class _LiveResource:
    """One tracked object that has been created and not yet closed."""

    __slots__ = ("kind", "detail", "thread_name", "stack", "seq")

    def __init__(self, kind: str, detail: str, thread_name: str,
                 stack: str, seq: int) -> None:
        self.kind = kind
        self.detail = detail
        self.thread_name = thread_name
        self.stack = stack
        self.seq = seq


class ResourceWitness:
    """Tracks create/close pairs for pool-and-pipeline resources.

    Keys objects by ``id()`` without holding strong references beyond
    the bookkeeping record itself is unnecessary — the witness *does*
    not keep the object, only its identity, so tracking never extends
    a resource's lifetime.
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._live: dict[tuple[str, int], _LiveResource] = {}
        self._seq = 0
        self._created = 0
        self._closed = 0

    def created(self, kind: str, obj: object, detail: str = "") -> None:
        """Record that ``obj`` came into being (captures the stack now)."""
        stack = capture_stack(skip=1)
        record = _LiveResource(
            kind=kind,
            detail=detail,
            thread_name=threading.current_thread().name,
            stack=stack,
            seq=0,
        )
        with self._mutex:
            self._seq += 1
            self._created += 1
            record.seq = self._seq
            self._live[(kind, id(obj))] = record

    def closed(self, kind: str, obj: object) -> None:
        """Record that ``obj`` was shut down / retired."""
        with self._mutex:
            if self._live.pop((kind, id(obj)), None) is not None:
                self._closed += 1

    def live(self) -> list[_LiveResource]:
        """Records still open, in creation order."""
        with self._mutex:
            return sorted(self._live.values(), key=lambda r: r.seq)

    def counts(self) -> dict[str, int]:
        with self._mutex:
            return {
                "created": self._created,
                "closed": self._closed,
                "live": len(self._live),
            }

    def leak_findings(self) -> list[RuntimeFinding]:
        """One finding per still-open resource."""
        findings = []
        for record in self.live():
            what = f"{record.kind} ({record.detail})" if record.detail \
                else record.kind
            findings.append(
                RuntimeFinding(
                    rule="resource-leak",
                    message=(
                        f"{what} was created but never closed "
                        f"(thread {record.thread_name})"
                    ),
                    sites=(("created here", record.stack),),
                )
            )
        return findings


def find_witness_file(start: Optional[str] = None) -> Optional[str]:
    """Locate ``lock_order.witness.json`` walking up from ``start``."""
    current = os.path.abspath(start or os.getcwd())
    while True:
        candidate = os.path.join(current, WITNESS_FILENAME)
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(current)
        if parent == current:
            return None
        current = parent


@dataclass(frozen=True)
class WitnessEdge:
    """One blessed nested-acquisition edge ``outer -> inner``.

    ``threads`` holds the names of every thread the sanitizer has seen
    take ``inner`` while holding ``outer``.
    """

    outer: str
    inner: str
    threads: tuple[str, ...] = ()

    @property
    def pair(self) -> tuple[str, str]:
        return (self.outer, self.inner)


def load_witness(path: str) -> list[WitnessEdge]:
    """Every blessed edge from a witness file, any format version.

    Version is detected from the payload: v2 files carry a ``version``
    key and dict-shaped edge records; v1 files store bare
    ``[outer, inner]`` pairs and still load (with empty thread sets).
    """
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    out: list[WitnessEdge] = []
    for edge in payload.get("edges", []):
        if isinstance(edge, dict):
            out.append(
                WitnessEdge(
                    outer=str(edge["outer"]),
                    inner=str(edge["inner"]),
                    threads=tuple(
                        str(name) for name in edge.get("threads", [])
                    ),
                )
            )
        else:
            outer, inner = edge
            out.append(WitnessEdge(outer=str(outer), inner=str(inner)))
    return out


def load_witness_edges(path: str) -> list[tuple[str, str]]:
    """The blessed ``(outer, inner)`` edges from a witness file."""
    return [edge.pair for edge in load_witness(path)]


def merge_witness_edges(*sources: Iterable[WitnessEdge]) \
        -> list[WitnessEdge]:
    """Union of edges from ``sources``, merged per ``(outer, inner)``.

    Thread sets are unioned.  Sorted by pair, so a save of the result
    is deterministic.
    """
    merged: dict[tuple[str, str], WitnessEdge] = {}
    for source in sources:
        for edge in source:
            previous = merged.get(edge.pair)
            if previous is None:
                merged[edge.pair] = edge
                continue
            merged[edge.pair] = WitnessEdge(
                outer=edge.outer,
                inner=edge.inner,
                threads=tuple(
                    sorted(set(previous.threads) | set(edge.threads))
                ),
            )
    return [merged[pair] for pair in sorted(merged)]


def save_witness(path: str, edges: Iterable[WitnessEdge],
                 description: str = "") -> None:
    """Write a v2 witness file (sorted, deterministic, newline-ended)."""
    records = [
        {
            "outer": edge.outer,
            "inner": edge.inner,
            "threads": sorted(set(edge.threads)),
        }
        for edge in merge_witness_edges(edges)
    ]
    payload = {
        "description": description or (
            "Blessed nested lock-acquisition edges (outer, inner) with "
            "the thread names observed holding them. A sanitizer run "
            "that observes an edge missing here fails CI "
            "(python -m repro.analysis.witness_check); --update "
            "refreshes the file from a run report."
        ),
        "version": WITNESS_VERSION,
        "edges": records,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def save_witness_edges(path: str, edges: Iterable[tuple[str, str]],
                       description: str = "") -> None:
    """Write a witness file from bare pairs (no thread information)."""
    save_witness(
        path,
        [WitnessEdge(outer=outer, inner=inner) for outer, inner in edges],
        description,
    )
