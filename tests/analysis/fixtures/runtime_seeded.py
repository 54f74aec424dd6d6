"""Seeded runtime-sanitizer violations (loaded by test_runtime_sanitizer).

Each class here trips one runtime checker when driven by the tests:
lock-order cycles (an AB/BA pair, two classes whose locks meet two
calls deep, a three-lock ring) and guarded-by writes without the lock
(direct, through a helper, through a decorator, through a lock handed
in by an owner); ``Reentrant`` shows what a reentrant lock does not
report.  (Leak seeding uses the real
:class:`repro.core.staging.StagedFile` and
:class:`repro.core.scan_pool.ScanWorkerPool` directly in the tests.)
The classes build their locks through the :mod:`repro.common.locks`
factory, so under an installed sanitizer they get instrumented locks
without knowing it.
"""

import functools

from repro.common.locks import new_lock, new_rlock


class CrossedPair:
    """forward() takes _a then _b; backward() takes _b then _a."""

    def __init__(self):
        self._a = new_lock("CrossedPair._a")
        self._b = new_lock("CrossedPair._b")
        self.items = []

    def forward(self, item):
        with self._a:
            with self._b:
                self.items.append(item)

    def backward(self):
        with self._b:
            with self._a:
                return list(self.items)


class GuardedCounter:
    """_count is declared guarded; bump_racy() writes it bare."""

    def __init__(self):
        self._lock = new_lock("GuardedCounter._lock")
        #: guarded by self._lock
        self._count = 0

    def bump_locked(self):
        with self._lock:
            self._count += 1

    def bump_racy(self):
        self._count += 1

    @property
    def count(self):
        return self._count


class Ledger:
    """_total is written by a helper that relies on its caller's lock:
    deposit() holds it, deposit_forgetful() does not."""

    def __init__(self):
        self._lock = new_lock("Ledger._lock")
        #: guarded by self._lock
        self._total = 0

    def _add(self, amount):
        self._total += amount

    def deposit(self, amount):
        with self._lock:
            self._add(amount)

    def deposit_forgetful(self, amount):
        self._add(amount)


class SharedOwner:
    """Hands its own lock to the child it builds."""

    def __init__(self):
        self._lock = new_lock("SharedOwner._lock")
        self.child = SharedChild(self._lock)

    def update(self, value):
        with self._lock:
            self.child.set(value)


class SharedChild:
    """Its guard is a lock passed into the constructor (the owner's)."""

    def __init__(self, lock):
        self._lock = lock
        #: guarded by self._lock
        self._value = None

    def set(self, value):
        self._value = value


def logged(method):
    """A pass-through decorator: the write happens one frame deeper."""

    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        return method(*args, **kwargs)

    return wrapper


class Decorated:
    """Guarded writes made from decorated methods."""

    def __init__(self):
        self._lock = new_lock("Decorated._lock")
        #: guarded by self._lock
        self._state = 0

    @logged
    def reset_locked(self):
        with self._lock:
            self._state = 0

    @logged
    def reset_racy(self):
        self._state = 0


class Catalog:
    """register() holds Catalog._lock two calls above Index._lock."""

    def __init__(self):
        self._lock = new_lock("Catalog._lock")
        self.index = Index(self)
        self.names = []

    def register(self, name):
        with self._lock:
            self._store(name)

    def _store(self, name):
        self.names.append(name)
        self.index.note(name)

    def lookup(self):
        with self._lock:
            return list(self.names)


class Index:
    """rebuild() holds Index._lock two calls above Catalog._lock."""

    def __init__(self, catalog):
        self._lock = new_lock("Index._lock")
        self.catalog = catalog
        self.seen = []

    def note(self, name):
        with self._lock:
            self.seen.append(name)

    def rebuild(self):
        with self._lock:
            self._refresh()

    def _refresh(self):
        self.seen = self.catalog.lookup()


class Reentrant:
    """_lock is reentrant; nested() re-takes it under _other."""

    def __init__(self):
        self._lock = new_rlock("Reentrant._lock")
        self._other = new_lock("Reentrant._other")
        #: guarded by self._lock
        self._depth = 0

    def outer(self):
        with self._lock:
            self.inner()

    def inner(self):
        with self._lock:
            self._depth += 1

    def nested(self):
        with self._lock:
            with self._other:
                with self._lock:
                    self._depth += 1


class Ring:
    """Three locks; step(i) takes lock i then lock i+1 (mod 3)."""

    def __init__(self):
        self.locks = [new_lock(f"Ring.lock{i}") for i in range(3)]

    def step(self, i):
        with self.locks[i]:
            with self.locks[(i + 1) % 3]:
                pass
