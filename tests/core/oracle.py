"""The per-row counting oracle the kernel and executors are checked
against: ``PathCondition.matches`` selects a slot's rows one at a time
and ``client.baselines.build_cc_from_rows`` (``CCTable.count_row``)
counts them — no routing kernel, no arrays, no partitions.
:func:`route_row` is the routing kernel's dispatch tables read one row
at a time, the scalar form both routes of the vector kernel must
agree with."""

from types import SimpleNamespace

from repro.client.baselines import build_cc_from_rows


def oracle_counts(rows, condition_sets, attribute_lists, attribute_names,
                  n_classes):
    """Per slot: ``(CC table, indexes of the rows it counted)``."""
    spec = SimpleNamespace(
        attribute_names=tuple(attribute_names),
        n_attributes=len(attribute_names),
        n_classes=n_classes,
    )
    position = {name: i for i, name in enumerate(attribute_names)}
    counted = []
    for conditions, attributes in zip(condition_sets, attribute_lists):
        selected = [
            index for index, row in enumerate(rows)
            if all(condition.matches(row[position[condition.attribute]])
                   for condition in conditions)
        ]
        counted.append((
            build_cc_from_rows(
                [rows[index] for index in selected], spec, attributes
            ),
            selected,
        ))
    return counted


def route_row(kernel, row):
    """Mask of the slots of a ``RoutingKernel`` whose path conjunction
    matches ``row``: one dict probe per constrained attribute."""
    mask = kernel.full_mask
    for index, table, default in kernel.probes:
        mask &= table.get(row[index], default)
        if not mask:
            return 0
    return mask
