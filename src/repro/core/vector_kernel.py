"""Vectorized CC counting over columnar partitions.

The row-at-a-time kernel pays a dict probe per constrained attribute
per row plus a ``count_row_at`` call per (row, slot).  This module
replaces both loops with array passes:

* :func:`route_masks` evaluates the compiled :class:`RoutingKernel`
  once per *column* — each probe becomes one LUT fancy-index over the
  column's codes (or over the unique values of a raw column) — yielding
  the per-row candidate bitmask as an int64 array.
* :func:`count_partition_columnar` turns each slot's selected rows into
  CC count *blocks* via ``np.bincount`` over ``code * n_classes +
  class``: one flat histogram per attribute instead of one dict update
  per (row, attribute).

``np.bincount``/``np.unique`` release the GIL, so even the thread pool
gets real parallelism out of this path.  The result payload per slot is
``(records, class_totals, blocks)`` where each block is
``(attribute, values, counts)`` with zero-count values filtered out —
exactly the keys the serial kernel would have created, so the folded
tables compare equal (``CCTable.__eq__``) to a serial count.

Capacity: candidate masks are int64, so batches are limited to
:data:`MAX_SLOTS` nodes; the executor falls back to the row kernel for
wider batches (which the scheduler's memory bound makes rare).
"""

from __future__ import annotations

import time
from typing import Any, Iterable, Optional

from ..sqlengine.columnar import (
    DICT,
    ColumnarPartition,
    filter_supported,
    np,
    predicate_mask,
)

#: Widest batch the int64 candidate masks can route.
MAX_SLOTS = 62


def route_masks(kernel: Any, partition: ColumnarPartition) -> Any:
    """Per-row candidate bitmasks (int64 array) for ``partition``.

    Column-at-a-time evaluation of the kernel's dispatch tables:
    dictionary columns index a LUT built over their (few) distinct
    values; raw integer columns build the LUT over ``np.unique`` of the
    column, with null positions patched to the table's ``None`` entry.
    """
    masks = np.full(partition.n_rows, kernel.full_mask, dtype=np.int64)
    for index, table, default in kernel.probes:
        column = partition.columns[index]
        if column.kind == DICT:
            assert column.values is not None
            lut = np.fromiter(
                (table.get(value, default) for value in column.values),
                dtype=np.int64, count=len(column.values),
            )
            masks &= lut[column.data]
        else:
            uniq, inverse = np.unique(column.data, return_inverse=True)
            lut = np.fromiter(
                (table.get(value, default) for value in uniq.tolist()),
                dtype=np.int64, count=uniq.size,
            )
            column_masks = lut[inverse]
            if column.nulls is not None:
                column_masks[column.nulls] = table.get(None, default)
            masks &= column_masks
        if not masks.any():
            break
    return masks


def _count_raw(data: Any, cls: Any,
               n_classes: int) -> tuple[list[Any], list[list[int]]]:
    """Histogram a raw integer column slice against class labels."""
    if data.size == 0:
        return [], []
    uniq, inverse = np.unique(data, return_inverse=True)
    counts = np.bincount(
        inverse.astype(np.int64) * n_classes + cls,
        minlength=uniq.size * n_classes,
    ).reshape(-1, n_classes)
    return uniq.tolist(), counts.tolist()


def _count_column(attribute: str, column: Any, sel: Any, cls_sel: Any,
                  n_classes: int) -> tuple[str, list[Any], list[list[int]]]:
    """One CC block ``(attribute, values, count vectors)`` for a slot.

    Values whose count vector would be all-zero are omitted — the
    serial kernel never creates those keys, and ``CCTable.__eq__``
    compares key sets.
    """
    if column.kind == DICT:
        assert column.values is not None
        codes = column.data[sel].astype(np.int64)
        counts = np.bincount(
            codes * n_classes + cls_sel,
            minlength=len(column.values) * n_classes,
        ).reshape(-1, n_classes)
        present = np.flatnonzero(counts.sum(axis=1))
        return (
            attribute,
            [column.values[i] for i in present.tolist()],
            counts[present].tolist(),
        )
    data_sel = column.data[sel]
    if column.nulls is not None:
        null_sel = column.nulls[sel]
        live = ~null_sel
        values, counts_list = _count_raw(
            data_sel[live], cls_sel[live], n_classes
        )
        if null_sel.any():
            values.append(None)
            counts_list.append(
                np.bincount(cls_sel[null_sel], minlength=n_classes).tolist()
            )
        return (attribute, values, counts_list)
    values, counts_list = _count_raw(data_sel, cls_sel, n_classes)
    return (attribute, values, counts_list)


def _class_codes(column: Any) -> tuple[Any, Any]:
    """Class column as int64 codes plus an optional null mask.

    Dictionary-encoded class columns decode through ``int(value)`` so a
    non-integer label raises the same ``TypeError`` the serial kernel's
    list indexing would.
    """
    if column.kind == DICT:
        assert column.values is not None
        nulls = None
        codes: list[int] = []
        for value in column.values:
            if value is None or isinstance(value, bool) or not isinstance(
                value, int
            ):
                raise TypeError(
                    f"class label {value!r} is not a plain integer"
                )
            codes.append(value)
        lut = np.asarray(codes, dtype=np.int64)
        return lut[column.data], nulls
    return column.data.astype(np.int64, copy=False), column.nulls


def count_partition_columnar(
    ctx: Any,
    seq: int,
    partition: ColumnarPartition,
    stage_nodes: Iterable[Any],
    capture_nodes: Iterable[Any],
    keep: Optional[Any] = None,
) -> tuple[int, list[tuple[int, list[int], list[Any]]], int,
           dict[Any, Any], dict[Any, Any], float]:
    """Count one columnar partition against a routing context.

    Mirrors ``scan_pool._count_partition`` but returns per-slot count
    *blocks* instead of CCTable partials, and staging/capture output as
    selected-row *index arrays* (the coordinator decodes them back to
    row tuples from its pinned copy of the partition, so no row tuples
    cross the worker boundary at all).

    ``keep`` (optional boolean mask) restricts counting to qualifying
    rows: the cached scan path hands workers full-table partitions and
    applies the batch filter here instead of at the cursor, so routing
    masks are zeroed wherever ``keep`` is False before any counting.
    """
    kernel, slots, class_index, n_classes = ctx
    started = time.perf_counter()
    masks = route_masks(kernel, partition)
    if keep is not None:
        masks = np.where(keep, masks, 0)
    routed = int(np.count_nonzero(masks))
    cls_codes, cls_nulls = _class_codes(partition.columns[class_index])
    stage_set = set(stage_nodes)
    capture_set = set(capture_nodes)
    payloads: list[tuple[int, list[int], list[Any]]] = []
    writes: dict[Any, Any] = {}
    captures: dict[Any, Any] = {}
    for slot, (node_id, _attributes, attr_positions) in enumerate(slots):
        sel = np.flatnonzero(masks & (1 << slot))
        records = int(sel.size)
        if records:
            if cls_nulls is not None and cls_nulls[sel].any():
                raise TypeError("NULL class label in routed row")
            cls_sel = cls_codes[sel]
            totals = np.bincount(cls_sel, minlength=n_classes)
            if totals.size > n_classes:
                raise IndexError(
                    f"class label out of range (n_classes={n_classes})"
                )
            class_totals = totals.tolist()
            blocks = [
                _count_column(
                    attribute, partition.columns[position], sel, cls_sel,
                    n_classes,
                )
                for attribute, position in attr_positions
            ]
        else:
            class_totals = [0] * n_classes
            blocks = [
                (attribute, [], []) for attribute, _ in attr_positions
            ]
        payloads.append((records, class_totals, blocks))
        if node_id in stage_set:
            writes[node_id] = sel
        if node_id in capture_set:
            captures[node_id] = sel
    return seq, payloads, routed, writes, captures, \
        time.perf_counter() - started


def count_partition_slice(
    ctx: Any,
    seq: int,
    partition: ColumnarPartition,
    start: int,
    stop: int,
    keep_spec: Optional[tuple[Any, dict[str, int]]],
    stage_nodes: Iterable[Any],
    capture_nodes: Iterable[Any],
) -> tuple[int, list[tuple[int, list[int], list[Any]]], int,
           dict[Any, Any], dict[Any, Any], float, int]:
    """Count rows ``[start, stop)`` of a cached full-table partition.

    The cached scan path's worker entry: slices the shared encoding
    (zero-copy views), evaluates the batch filter as a keep mask
    (``keep_spec`` is ``(expr, attr_index)``, or None for an
    unfiltered scan), and counts the qualifying rows.  Returns the
    :func:`count_partition_columnar` tuple with the number of
    *qualifying* rows appended — the coordinator charges transfer for
    exactly those, matching what a streaming cursor would have
    shipped.  Staging/capture index arrays are relative to the slice;
    the coordinator re-bases them with ``start``.
    """
    started = time.perf_counter()
    piece = partition.slice(start, stop)
    if keep_spec is None:
        keep = None
        seen = piece.n_rows
    else:
        expr, attr_index = keep_spec
        keep = predicate_mask(piece, expr, attr_index)
        seen = int(np.count_nonzero(keep))
    if seen == 0:
        _kernel, slots, _class_index, n_classes = ctx
        stage_set = set(stage_nodes)
        capture_set = set(capture_nodes)
        empty = np.zeros(0, dtype=np.int64)
        payloads = [
            (0, [0] * n_classes,
             [(attribute, [], []) for attribute, _ in attr_positions])
            for _node_id, _attributes, attr_positions in slots
        ]
        writes = {
            node_id: empty for node_id, _, _ in slots if node_id in stage_set
        }
        captures = {
            node_id: empty
            for node_id, _, _ in slots if node_id in capture_set
        }
        return (seq, payloads, 0, writes, captures,
                time.perf_counter() - started, 0)
    out_seq, payloads, routed, writes, captures, _ = (
        count_partition_columnar(
            ctx, seq, piece, stage_nodes, capture_nodes, keep=keep
        )
    )
    return (out_seq, payloads, routed, writes, captures,
            time.perf_counter() - started, seen)


def fold_payload(cc: Any, payload: tuple[int, list[int], list[Any]]) -> None:
    """Fold one slot payload into a CC table (coordinator side)."""
    records, class_totals, blocks = payload
    cc.merge_block(records, class_totals, blocks)


__all__ = [
    "MAX_SLOTS",
    "count_partition_columnar",
    "count_partition_slice",
    "filter_supported",
    "fold_payload",
    "predicate_mask",
    "route_masks",
]
