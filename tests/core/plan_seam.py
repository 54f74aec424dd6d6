"""The test seam of a SERVER scan: its plan's row supply.

Every SERVER scan is run from ``strategy.plan_columnar(...)``; a
*transient* scan (one that stages everything it reads, or that the
columnar cache may not keep) takes the plan's ``rows()`` a partition
at a time.  Fault-injection tests plant their exploding, poisoned,
interrupting or close-tracking iterators there.
"""

import dataclasses


def record_plan_requests(middleware):
    """The ``(predicate, relevant_rows)`` every SERVER scan of the
    session asks its access strategy's plan with, as a growing list."""
    strategy = middleware.execution._strategy
    plan_columnar = strategy.plan_columnar
    asked = []

    def recording(predicate, relevant_rows):
        asked.append((predicate, relevant_rows))
        return plan_columnar(predicate, relevant_rows)

    strategy.plan_columnar = recording
    return asked


def wrap_plan_rows(middleware, wrap):
    """Hand every SERVER plan of the session's rows through ``wrap``.

    ``wrap(rows)`` gets the plan's own (unmetered) row iterable and
    returns what the scan iterates instead.  A resident scan of a plain
    table counts over ``HeapTable.columnar()`` and never reads the
    supply, so plant faults under a configuration whose scan is
    transient.  Returns the function that removes the wrapper.
    """
    strategy = middleware.execution._strategy
    original = strategy.plan_columnar

    def plan_columnar(predicate, relevant_rows):
        plan = original(predicate, relevant_rows)
        rows = plan.rows
        return dataclasses.replace(plan, rows=lambda: wrap(rows()))

    strategy.plan_columnar = plan_columnar

    def restore():
        del strategy.plan_columnar

    return restore
