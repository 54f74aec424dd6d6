"""The test seam of a SERVER scan: its slice loop.

Every SERVER scan is run from ``strategy.plan_columnar(...)`` and
counts over slices of the plan's encoding — resident or transient
alike — handing the scan loop one ``(encoding, start, stop)`` slice
per partition.  Fault-injection tests plant their exploding, poisoned,
interrupting or close-tracking iterators there.
"""

from repro.core.staging import DataLocation


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


def wrap_plan_slices(middleware, wrap):
    """Hand every SERVER scan's slices through ``wrap``.

    ``wrap(slices)`` gets the iterator of the scan's ``(encoding,
    start, stop)`` slices (row ranges of the plan's encoding, one per
    partition) and returns the iterator the scan loop pulls instead; a
    failing scan closes it if it has a ``close``.  Returns the function
    that removes the wrapper.
    """
    execution = middleware.execution
    build = execution._partition_source

    def partition_source(schedule, *args):
        source = build(schedule, *args)
        if schedule.mode is DataLocation.SERVER:
            slices = source._slices
            source._slices = lambda: wrap(slices())
        return source

    execution._partition_source = partition_source

    def restore():
        del execution._partition_source

    return restore
