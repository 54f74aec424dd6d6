"""The concurrency sanitizer: a :class:`~repro.common.locks.LockMonitor`.

When installed (see :func:`repro.analysis.runtime.activate`) every lock
built through the :mod:`repro.common.locks` factory becomes a
:class:`~repro.analysis.runtime.locks.SanitizedLock` feeding the global
lock-order graph, every ``resource_created``/``resource_closed`` call
lands in the :class:`~repro.analysis.runtime.witness.ResourceWitness`,
and classes with guarded-by contracts get an instrumented
``__setattr__`` that verifies the declared lock is actually held by the
writing thread.

Writes inside ``__init__`` are exempt from the guarded-by check (an
object under construction is not shared),
which the runtime layer implements with an *armed* sentinel set when
the wrapped ``__init__`` returns.
"""

from __future__ import annotations

import threading
from types import ModuleType
from typing import Any, Callable, Optional

from ...common.locks import LockMonitor
from .contracts import ClassContract, ContractRegistry
from .findings import RuntimeFinding, capture_frame, format_frame_stack
from .locks import LockOrderGraph, SanitizedLock, SanitizedRLock
from .witness import ResourceWitness

#: Attribute set (via ``object.__setattr__``) once ``__init__`` returns;
#: guarded-by enforcement only applies to armed instances.
_ARMED = "_repro_sanitizer_armed"


class _PatchedClass:
    """Bookkeeping for one instrumented class (restores on deactivate)."""

    __slots__ = ("cls", "original_init", "original_setattr",
                 "original_delattr", "contract")

    def __init__(self, cls: type, original_init: Callable[..., None],
                 original_setattr: Callable[..., None],
                 original_delattr: Callable[..., None],
                 contract: ClassContract) -> None:
        self.cls = cls
        self.original_init = original_init
        self.original_setattr = original_setattr
        self.original_delattr = original_delattr
        self.contract = contract


class Sanitizer(LockMonitor):
    """Runtime concurrency checker behind the ``repro.common`` lock hook."""

    def __init__(self, registry: Optional[ContractRegistry] = None) -> None:
        self.graph = LockOrderGraph()
        self.witness = ResourceWitness()
        self.registry = registry if registry is not None else \
            ContractRegistry()
        self._mutex = threading.Lock()
        self._locks: dict[str, list[SanitizedLock]] = {}
        self._violations: list[RuntimeFinding] = []
        self._violation_keys: set[tuple[str, str, str, int]] = set()
        self._patched: list[_PatchedClass] = []

    # -- LockMonitor hooks --------------------------------------------------

    def make_lock(self, name: str) -> Any:
        lock = SanitizedLock(name, self.graph)
        with self._mutex:
            self._locks.setdefault(name, []).append(lock)
        return lock

    def make_rlock(self, name: str) -> Any:
        lock = SanitizedRLock(name, self.graph)
        with self._mutex:
            self._locks.setdefault(name, []).append(lock)
        return lock

    def resource_created(self, kind: str, obj: object,
                         detail: str = "") -> None:
        self.witness.created(kind, obj, detail)

    def resource_closed(self, kind: str, obj: object) -> None:
        self.witness.closed(kind, obj)

    # -- guarded-by instrumentation ----------------------------------------

    def instrument_class(self, cls: type, contract: ClassContract) -> None:
        """Patch ``cls`` so guarded attribute writes verify their lock."""
        sanitizer = self
        original_init = cls.__init__
        original_setattr = cls.__setattr__
        original_delattr = cls.__delattr__

        def patched_init(instance: Any, *args: Any, **kwargs: Any) -> None:
            original_init(instance, *args, **kwargs)
            object.__setattr__(instance, _ARMED, True)

        def patched_setattr(instance: Any, attr: str, value: Any) -> None:
            sanitizer._check_guarded_write(instance, attr, contract)
            original_setattr(instance, attr, value)

        def patched_delattr(instance: Any, attr: str) -> None:
            sanitizer._check_guarded_write(instance, attr, contract)
            original_delattr(instance, attr)

        cls.__init__ = patched_init  # type: ignore[method-assign]
        cls.__setattr__ = patched_setattr  # type: ignore[method-assign]
        cls.__delattr__ = patched_delattr  # type: ignore[method-assign]
        self._patched.append(
            _PatchedClass(cls, original_init, original_setattr,
                          original_delattr, contract)
        )

    def instrument_module(self, module: ModuleType) -> int:
        """Instrument every contract-bearing class found in ``module``.

        Contracts for the module must already be in the registry (via
        ``registry.scan_package``/``scan_file``).  Returns how many
        classes were patched.
        """
        count = 0
        patched = {p.cls for p in self._patched}
        for contract in self.registry.for_module(module.__name__):
            cls = getattr(module, contract.class_name, None)
            if not isinstance(cls, type) or cls in patched:
                continue
            self.instrument_class(cls, contract)
            count += 1
        return count

    def uninstrument(self) -> None:
        """Restore every patched class to its original methods."""
        while self._patched:
            patch = self._patched.pop()
            patch.cls.__init__ = patch.original_init  # type: ignore[method-assign]
            patch.cls.__setattr__ = patch.original_setattr  # type: ignore[method-assign]
            patch.cls.__delattr__ = patch.original_delattr  # type: ignore[method-assign]

    def _check_guarded_write(self, instance: Any, attr: str,
                             contract: ClassContract) -> None:
        decl = contract.guards.get(attr)
        if decl is None:
            return
        if getattr(instance, _ARMED, False) is not True:
            return  # still inside __init__ — construction is exempt
        lock = getattr(instance, decl.lock, None)
        if not isinstance(lock, SanitizedLock):
            return  # plain lock: the runtime layer cannot observe it
        if lock.held_by_current_thread():
            return
        frame = capture_frame(skip=2)
        key = (
            contract.class_name,
            attr,
            frame.f_code.co_filename if frame is not None else "?",
            frame.f_lineno if frame is not None else 0,
        )
        with self._mutex:
            if key in self._violation_keys:
                return
            self._violation_keys.add(key)
        held = self.graph.held_names()
        held_note = f" (holding: {', '.join(held)})" if held else ""
        finding = RuntimeFinding(
            rule="guarded-by",
            message=(
                f"{contract.class_name}.{attr} is declared "
                f"'guarded by self.{decl.lock}' "
                f"({contract.path}:{decl.line}) but was written by "
                f"thread {threading.current_thread().name} without "
                f"holding it{held_note}"
            ),
            sites=(
                ("unguarded write", format_frame_stack(frame)),
            ),
        )
        with self._mutex:
            self._violations.append(finding)

    # -- reporting ----------------------------------------------------------

    def guard_findings(self) -> list[RuntimeFinding]:
        with self._mutex:
            return list(self._violations)

    def findings(self) -> list[RuntimeFinding]:
        """All current findings: guard violations, cycles, leaks."""
        return (
            self.guard_findings()
            + self.graph.cycle_findings()
            + self.witness.leak_findings()
        )

    def observed_edges(self) -> list[list[str]]:
        """Sorted lock-order edges seen so far (witness-file refresh)."""
        return self.graph.edge_list()

    def report(self) -> dict[str, Any]:
        """JSON-serialisable run report (the CI artifact)."""
        findings = self.findings()
        return {
            "findings": [f.to_dict() for f in findings],
            "lock_order_edges": self.observed_edges(),
            # v2 witness material: the same edges with every thread
            # name observed holding them (witness_check --update
            # merges these into the blessed file).
            "lock_order_edge_records": self.graph.edge_records(),
            "resources": self.witness.counts(),
            "clean": not findings,
        }

    def render_findings(self) -> str:
        """Human-readable rendering of every finding."""
        findings = self.findings()
        if not findings:
            return "sanitizer: no findings"
        return "\n\n".join(f.render() for f in findings)
