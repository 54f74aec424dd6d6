"""Facade half: reaches storage only through import aliases.

``count_free`` reaches the heap rows across a module boundary through
an aliased class import and a return type; ``count_paid`` through an
aliased module import.
"""

from .storage import XHeap as Store

from . import storage as st


def build_store() -> Store:
    return Store()


def count_free(meter) -> int:
    # Receiver typed by build_store()'s return annotation.
    store = build_store()
    return sum(1 for _row in store.scan_rows())


def count_paid(meter, model) -> int:
    # Callee resolved through the module alias.
    meter.charge("scan", model.scan_page)
    heap = st.make_heap()
    return sum(1 for _row in heap.scan_rows())
