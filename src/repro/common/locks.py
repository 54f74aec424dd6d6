"""Lock and resource-lifecycle factory with a pluggable monitor.

Every lock protecting shared middleware state is created through
:func:`new_lock` / :func:`new_rlock` instead of calling
``threading.Lock()`` directly, and every scan-lifetime resource
(executor, submitted future, staged file, writer/producer thread)
announces its creation and retirement through :func:`resource_created`
/ :func:`resource_closed`.

In production both surfaces are free: the default
:class:`LockMonitor` hands back plain ``threading`` primitives and the
resource hooks are no-ops.  The runtime concurrency sanitizer
(:mod:`repro.analysis.runtime`) installs its own monitor via
:func:`install_monitor`, swapping in instrumented locks that record
per-thread acquisition stacks and a global lock-order graph, and a
resource witness that turns create-without-close into a reported leak.

The dependency points one way only: ``repro.core`` imports this
module, never ``repro.analysis`` — the sanitizer reaches *in* through
the monitor hook, so the core carries no analysis imports.

The ``name`` passed to the factories is the lock's *contract name*,
``"ClassName.attr"`` (e.g. ``"ScanWorkerPool._lock"``).  The
sanitizer's lock-order graph and the checked-in lock-order witness
file use the same naming, so observed edges, blessed edges and
guarded-by contracts all speak about the same lock.
"""

from __future__ import annotations

import threading
from typing import Any


class LockMonitor:
    """The no-op default monitor; the sanitizer subclasses this.

    ``make_lock``/``make_rlock`` return objects honouring the
    ``threading.Lock`` context-manager protocol (the return type is
    ``Any`` so instrumented wrappers can stand in for the real thing).
    """

    def make_lock(self, name: str) -> Any:
        return threading.Lock()

    def make_rlock(self, name: str) -> Any:
        return threading.RLock()

    def resource_created(self, kind: str, obj: object,
                         detail: str = "") -> None:
        """``obj`` (an executor, future, staged file, ...) came alive."""

    def resource_closed(self, kind: str, obj: object) -> None:
        """``obj`` was retired cleanly (close/seal/delete/resolve)."""


#: The active monitor.  Swapped atomically (module attribute rebind) by
#: install_monitor/reset_monitor; readers take one reference and use it.
_monitor: LockMonitor = LockMonitor()


def new_lock(name: str) -> Any:
    """A mutex for ``name`` (``"ClassName.attr"``) via the monitor."""
    return _monitor.make_lock(name)


def new_rlock(name: str) -> Any:
    """A reentrant mutex for ``name`` via the active monitor."""
    return _monitor.make_rlock(name)


def resource_created(kind: str, obj: object, detail: str = "") -> None:
    """Announce a tracked resource's birth to the active monitor."""
    _monitor.resource_created(kind, obj, detail)


def resource_closed(kind: str, obj: object) -> None:
    """Announce a tracked resource's clean retirement."""
    _monitor.resource_closed(kind, obj)


def install_monitor(monitor: LockMonitor) -> LockMonitor:
    """Install ``monitor``; returns the one it replaced.

    Locks already handed out by the previous monitor keep working —
    only *new* factory calls see the replacement, which is why the
    sanitizer activates before building the objects under test.
    """
    global _monitor
    previous = _monitor
    _monitor = monitor
    return previous


def reset_monitor() -> None:
    """Restore the no-op default monitor."""
    global _monitor
    _monitor = LockMonitor()


def current_monitor() -> LockMonitor:
    """The monitor currently receiving factory calls and hooks."""
    return _monitor
