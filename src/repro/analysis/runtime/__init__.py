"""Runtime concurrency sanitizer for the repro middleware.

The project's concurrency contracts are checked here, *while the
code runs*:

* **lock-order** — every nested lock acquisition grows a global graph;
  a cycle is a potential deadlock, reported with the acquisition stack
  of every edge.
* **guarded-by** — the ``#: guarded by self._lock`` declarations (parsed
  once by :mod:`.contracts`) are enforced
  on live objects: writing a declared attribute without its lock held
  is a finding with the writer's stack.
* **resource-leak** — executors, futures, staged files and worker
  threads are witnessed at creation and must be closed; anything still
  open at report time is a finding with its creation stack.

Activation installs a :class:`.sanitizer.Sanitizer` as the
:mod:`repro.common.locks` monitor and patches every contract-bearing
class, so the middleware itself needs no knowledge of this package::

    from repro.analysis import runtime

    sanitizer = runtime.activate()
    try:
        ...  # run the workload
        findings = sanitizer.findings()
    finally:
        runtime.deactivate()

The pytest plugin in ``tests/conftest.py`` does exactly this when
``REPRO_SANITIZE=1`` is set.
"""

from __future__ import annotations

import json
from importlib import import_module
from typing import Any, Optional

from ...common.locks import install_monitor, reset_monitor
from .contracts import (
    GUARD_DECLARATION,
    ClassContract,
    ContractRegistry,
    GuardDecl,
    guards_by_class,
    guards_for_class,
)
from .findings import RuntimeFinding, capture_stack
from .locks import LockOrderGraph, SanitizedLock, SanitizedRLock, find_cycles
from .sanitizer import Sanitizer
from .witness import (
    WITNESS_FILENAME,
    WITNESS_VERSION,
    ResourceWitness,
    WitnessEdge,
    find_witness_file,
    load_witness,
    load_witness_edges,
    merge_witness_edges,
    save_witness,
    save_witness_edges,
)

__all__ = [
    "GUARD_DECLARATION",
    "WITNESS_FILENAME",
    "WITNESS_VERSION",
    "ClassContract",
    "ContractRegistry",
    "GuardDecl",
    "LockOrderGraph",
    "ResourceWitness",
    "RuntimeFinding",
    "SanitizedLock",
    "SanitizedRLock",
    "Sanitizer",
    "WitnessEdge",
    "activate",
    "active",
    "capture_stack",
    "deactivate",
    "find_cycles",
    "find_witness_file",
    "guards_by_class",
    "guards_for_class",
    "load_witness",
    "load_witness_edges",
    "merge_witness_edges",
    "save_witness",
    "save_witness_edges",
    "write_report",
]

_active: Optional[Sanitizer] = None


def active() -> Optional[Sanitizer]:
    """The currently activated sanitizer, if any."""
    return _active


def activate(package: str = "repro") -> Sanitizer:
    """Install the sanitizer process-wide and return it.

    Scans ``package`` for guarded-by contracts, installs the sanitizer
    as the :mod:`repro.common.locks` monitor (so locks built *from now
    on* are instrumented) and patches every contract-bearing class for
    guarded-by enforcement.  Idempotent: a second call returns the
    already-active sanitizer.
    """
    global _active
    if _active is not None:
        return _active
    registry = ContractRegistry()
    registry.scan_package(package)
    sanitizer = Sanitizer(registry)
    install_monitor(sanitizer)
    for contract in registry:
        if not contract.module:
            continue
        module = import_module(contract.module)
        sanitizer.instrument_module(module)
    _active = sanitizer
    return sanitizer


def deactivate() -> Optional[Sanitizer]:
    """Undo :func:`activate`: restore classes and the no-op monitor.

    Returns the sanitizer that was active (its findings remain
    readable after deactivation), or None.
    """
    global _active
    sanitizer = _active
    if sanitizer is not None:
        sanitizer.uninstrument()
        reset_monitor()
        _active = None
    return sanitizer


def write_report(sanitizer: Sanitizer, path: str) -> dict[str, Any]:
    """Write the sanitizer's JSON report to ``path``; returns the dict."""
    report = sanitizer.report()
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return report
