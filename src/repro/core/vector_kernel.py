"""The counting kernel: slot-indexed vector counting over columnar
partitions.

Every scan counts here, whatever its source, executor or batch width.
A partition is counted in two array passes:

* **route** — :func:`route_masks` evaluates the compiled
  :class:`~repro.core.filters.RoutingKernel` once per *column*: each
  dispatch table becomes one LUT fancy-index over the column's codes,
  in :data:`LIMB_BITS`-bit limbs so a batch may hold any number of
  slots.  :func:`routed_pairs` turns the masks into ``(row, slot)``
  pairs grouped by slot with rows ascending — one pair per routed row
  when the batch is an antichain (a tree frontier always is), every
  matching slot otherwise.
* **count** — one composite key per attribute per partition:
  ``(slot, value code) x class`` folded into a single ``np.bincount``,
  value codes coming from the same range-shift-or-rank coding
  ``group_counts`` uses, so working memory follows the routed rows,
  never the value range or the batch width.

The counts leave as arrays: per partition one payload of six objects —
per-slot records and class totals, then every counted ``(slot,
attribute, value)`` pair of the partition as a key-prefix array, a
value-index array and one 2-D ``int64`` count array, zero-count pairs
left out, plus each attribute's *distinct* values once as Python
objects (:func:`count_partition_columnar`).  The number of arrays does
not depend on the batch width and no count vector becomes a Python
list here: ``CCTable.merge_block`` folds a payload into the scan's
``BatchCounts`` with one sort and one ``searchsorted``, and every
node's table is cut from that as views.  The pairs are exactly the keys
a row-at-a-time count would have created, so the tables compare equal
(``CCTable.__eq__``) to ``client.baselines.build_cc_from_rows`` over
the rows ``PathCondition.matches`` selects.  ``np.bincount`` and fancy
indexing release the GIL, so a thread pool gets real parallelism out
of this.

Class labels are checked on *routed* rows only, like a row loop would
meet them: NULL and non-integer labels raise ``TypeError``, labels
outside ``[0, n_classes)`` raise ``IndexError`` naming the label.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, NamedTuple, Optional, Sequence

from ..sqlengine.columnar import (
    DICT,
    Column,
    ColumnarPartition,
    _ordered_codes,
    filter_supported,
    np,
    predicate_mask,
)

#: Slots per int64 limb of a candidate mask (the sign bit and one
#: guard bit stay clear, so ``mask - 1`` and float conversion are safe).
LIMB_BITS = 62
_LIMB_MASK = (1 << LIMB_BITS) - 1


def _row_codes(column: Column, rows: Any) -> tuple[Any, int]:
    """The selected rows of a column as integer codes in ``[0, width)``.

    Dictionary columns are their own codes; raw integers are coded in
    value order (shifted, or ranked when the range is sparse) with NULL
    as one extra top code — so a block lists its values ascending, NULL
    last, on any partition.
    """
    data = column.data[rows]
    if column.kind == DICT:
        assert column.values is not None
        return data, len(column.values)
    codes, width = _ordered_codes(data, 4 * data.size + 64)
    if column.nulls is not None:
        codes = np.where(column.nulls[rows], width, codes)
        width += 1
    return codes, width


def _witness(codes: Any, present: Any, span: int) -> Any:
    """For each code in ``present``, the index of one element of
    ``codes`` holding it (any one: they all spell the same key)."""
    witness = np.empty(span, dtype=np.intp)
    witness[codes] = np.arange(codes.size)
    return witness[present]


def route_masks(kernel: Any, partition: ColumnarPartition,
                keep: Optional[Any] = None) -> Any:
    """Per-row candidate masks: an ``(n_limbs, n_rows)`` int64 array.

    Slot ``s`` is bit ``s % LIMB_BITS`` of limb ``s // LIMB_BITS``.
    Column-at-a-time evaluation of the kernel's dispatch tables: the
    distinct values a column holds in this partition are looked up once
    each (Python dict semantics, as ``RoutingKernel.route`` has them),
    then every row takes its value's mask through one fancy index per
    limb.  Rows outside ``keep`` (a boolean mask) route nowhere.
    """
    n_limbs = max(1, -(-kernel.n_slots // LIMB_BITS))
    masks = np.empty((n_limbs, partition.n_rows), dtype=np.int64)
    for limb in range(n_limbs):
        masks[limb] = (kernel.full_mask >> (LIMB_BITS * limb)) & _LIMB_MASK
    if keep is not None:
        masks[:, ~keep] = 0
    for index, table, default in kernel.probes:
        if not masks.any():
            break  # nothing left to route (or an empty partition)
        column = partition.columns[index]
        codes, width = _row_codes(column, slice(None))
        if column.kind == DICT:
            present: Any = slice(None)
            values: Any = column.values
        else:
            present = np.flatnonzero(np.bincount(codes, minlength=width))
            values = column.values_at(_witness(codes, present, width))
        hits = [table.get(value, default) for value in values]
        lut = np.zeros(width, dtype=np.int64)
        for limb in range(n_limbs):
            shift = LIMB_BITS * limb
            lut[present] = [(hit >> shift) & _LIMB_MASK for hit in hits]
            masks[limb] &= lut[codes]
    return masks


def routed_pairs(masks: Any, n_slots: int) -> tuple[Any, Any, int]:
    """``(rows, bounds, routed)``: the ``(row, slot)`` pairs of a
    partition, grouped by slot.

    ``rows[bounds[s]:bounds[s + 1]]`` are the rows slot ``s`` counts,
    ascending — which is what keeps staged files bit-identical however
    the source was partitioned.  ``routed`` counts rows matching *any*
    slot.  A row matching several slots (overlapping request sets)
    appears once under each.
    """
    n_limbs = masks.shape[0]
    any_slot = masks[0] if n_limbs == 1 else np.bitwise_or.reduce(masks, 0)
    routed_rows = np.flatnonzero(any_slot)
    routed = int(routed_rows.size)
    if routed == 0:
        return routed_rows, np.zeros(n_slots + 1, dtype=np.intp), 0
    hit = masks[:, routed_rows]
    if not (hit & (hit - 1)).any() and np.count_nonzero(hit) == routed:
        # The antichain fast path: one bit per routed row.  frexp reads
        # a power of two's exponent exactly; the stable sort keeps each
        # slot's rows ascending.
        limb = np.argmax(hit != 0, axis=0)
        bits = hit[limb, np.arange(routed)]
        slot_of_row = (
            limb * LIMB_BITS + np.frexp(bits.astype(np.float64))[1] - 1
        )
        rows = routed_rows[np.argsort(slot_of_row, kind="stable")]
        sizes = np.bincount(slot_of_row, minlength=n_slots)
    else:
        per_slot = [
            routed_rows[np.flatnonzero(
                hit[slot // LIMB_BITS] & (1 << (slot % LIMB_BITS))
            )]
            for slot in range(n_slots)
        ]
        rows = np.concatenate(per_slot)
        sizes = np.fromiter(
            (part.size for part in per_slot), dtype=np.intp, count=n_slots
        )
    bounds = np.zeros(n_slots + 1, dtype=np.intp)
    np.cumsum(sizes, out=bounds[1:])
    return rows, bounds, routed


def _out_of_range(label: int, n_classes: int) -> IndexError:
    return IndexError(
        f"class label {label} out of range (n_classes={n_classes})"
    )


def _class_labels(column: Column, rows: Any, n_classes: int) -> Any:
    """The class labels of ``rows`` as int64, checked.

    Only the given (routed) rows are looked at, so a bad label in a row
    no slot counts raises nothing — as in a row-at-a-time count.
    """
    labels = column.data[rows]
    if column.kind == DICT:
        # A dictionary-encoded class column holds something that is not
        # an int64: validate the (few) distinct labels one by one.
        assert column.values is not None
        lut = np.zeros(len(column.values), dtype=np.int64)
        used = np.flatnonzero(np.bincount(labels, minlength=lut.size))
        for code in used.tolist():
            label = column.values[code]
            if isinstance(label, bool) or not isinstance(label, int):
                raise TypeError(
                    f"class label {label!r} is not a plain integer"
                )
            if not 0 <= label < n_classes:
                raise _out_of_range(label, n_classes)
            lut[code] = label
        return lut[labels]
    if column.nulls is not None and column.nulls[rows].any():
        raise TypeError("NULL class label in routed row")
    bad = labels[(labels < 0) | (labels >= n_classes)]
    if bad.size:
        raise _out_of_range(int(bad[0]), n_classes)
    return labels


class SlotLayout(NamedTuple):
    """What the slots of one batch count (built by :func:`slot_layout`)."""

    node_ids: tuple[Any, ...]
    #: ``(position, listed)`` per column some slot lists, ascending:
    #: ``listed`` is the boolean per-slot mask of the slots that list
    #: it, or None when every slot does.
    columns: tuple[tuple[int, Any], ...]
    #: Attribute columns of the source: a counted pair's key prefix is
    #: ``slot * stride + position``.
    stride: int


def slot_layout(node_ids: Sequence[Any],
                positions: Sequence[Sequence[int]],
                stride: int) -> SlotLayout:
    """The layout of a batch whose slot ``s`` is node ``node_ids[s]``
    counting the columns ``positions[s]`` (each below ``stride``)."""
    listed = np.zeros((len(positions), stride), dtype=bool)
    for slot, columns in enumerate(positions):
        listed[slot, columns] = True
    return SlotLayout(
        tuple(node_ids),
        tuple(
            (position, None if listed[:, position].all()
             else listed[:, position].copy())
            for position in np.flatnonzero(listed.any(axis=0)).tolist()
        ),
        stride,
    )


def _count_attribute(column: Column, rows: Any, slot_of_pair: Any,
                     labels: Any, n_slots: int, n_classes: int,
                     listed: Any) -> tuple[Any, Any, list[Any], Any]:
    """One attribute's counts for every slot at once:
    ``(slots, value_index, values, counts)``.

    Row ``i`` of ``counts`` is the class-count vector of slot
    ``slots[i]`` with the value ``values[value_index[i]]``, rows in
    (slot, value code) order, zero vectors and slots outside ``listed``
    left out.  ``values`` holds each distinct value of the partition
    once, as the Python object the column decodes to — everything else
    is an array, whatever the batch width.

    The ``(slot, value)`` key is re-ranked when its span outgrows a
    small multiple of the pairs counted, so a sparse value range or a
    wide batch costs no more memory than the pairs themselves.
    """
    codes, width = _row_codes(column, rows)
    key = slot_of_pair * width + codes
    span = n_slots * width
    ranked = None
    if span > 4 * key.size + 64:
        ranked, key = np.unique(key, return_inverse=True)
        span = int(ranked.size)
    counts = np.bincount(
        key * n_classes + labels, minlength=span * n_classes
    ).reshape(span, n_classes)
    present = np.flatnonzero(counts.any(axis=1))
    slots, code_of_pair = np.divmod(
        present if ranked is None else ranked[present], width
    )
    if listed is not None:
        wanted = listed[slots]
        present = present[wanted]
        slots, code_of_pair = slots[wanted], code_of_pair[wanted]
    seen = np.zeros(width, dtype=bool)
    seen[code_of_pair] = True
    used = np.flatnonzero(seen)
    value_index = (np.cumsum(seen) - 1)[code_of_pair]
    if column.kind == DICT:
        assert column.values is not None
        values = [column.values[code] for code in used.tolist()]
    else:
        values = column.values_at(rows[_witness(codes, used, width)])
    return slots, value_index, values, counts[present]


def count_partition_columnar(
    ctx: Any,
    seq: int,
    partition: ColumnarPartition,
    stage_nodes: Iterable[Any],
    capture_nodes: Iterable[Any],
    keep: Optional[Any] = None,
) -> tuple[int, tuple[Any, ...], int, dict[Any, Any], dict[Any, Any],
           float]:
    """Count one columnar partition against a routing context.

    Returns ``(seq, payload, routed, writes, captures, seconds)``;
    ``seconds`` is the CPU time of the counting thread
    (``time.thread_time``), not wall time: the partition sizer steers
    on it, and a pool thread's wall time also holds however long it
    waited for the coordinator to let go of the GIL — which says
    nothing about the partition and differs from run to run.
    The payload is what ``CCTable.merge_block`` folds into the scan's
    :class:`~repro.core.cc_table.BatchCounts`:
    ``(records, totals, prefix, value_index, counts, values)`` —
    ``records[n_slots]`` and ``totals[n_slots, n_classes]`` per slot,
    then every counted pair of the partition, all attributes end to
    end: pair ``i`` belongs to key prefix ``prefix[i]``
    (``slot * stride + position``), spells the value
    ``value_index[i]`` indexes in the flattened ``values`` lists
    (``[(position, distinct values), ...]``) and has the class counts
    ``counts[i]``.  Six objects and one short list per attribute,
    whatever the number of slots.  Staging/capture output is ascending
    selected-row *index arrays* — the coordinator gathers the pieces
    out of its own copy of the partition (``take``), so no row crosses
    the worker boundary.

    ``keep`` (optional boolean mask) restricts counting to qualifying
    rows: a SERVER scan hands workers partitions of its access path's
    whole superset and applies the batch filter here, not at a cursor.
    """
    kernel, layout, class_index, n_classes = ctx
    started = time.thread_time()
    n_slots = len(layout.node_ids)
    rows, bounds, routed = routed_pairs(
        route_masks(kernel, partition, keep), n_slots
    )
    records = np.diff(bounds)
    totals = np.zeros((n_slots, n_classes), dtype=np.int64)
    prefixes = [np.zeros(0, dtype=np.int64)]
    indexes = [np.zeros(0, dtype=np.int64)]
    blocks = [totals[:0]]
    values: list[tuple[int, list[Any]]] = []
    if routed:
        slot_of_pair = np.repeat(np.arange(n_slots), records)
        labels = _class_labels(
            partition.columns[class_index], rows, n_classes
        )
        totals = np.bincount(
            slot_of_pair * n_classes + labels,
            minlength=n_slots * n_classes,
        ).reshape(n_slots, n_classes)
        # Every attribute some slot lists is counted over all the
        # pairs (one vector pass); the slots that do not list it are
        # dropped from the few counted pairs, not from the rows.
        n_values = 0
        for position, listed in layout.columns:
            slots, value_index, distinct, counts = _count_attribute(
                partition.columns[position], rows, slot_of_pair, labels,
                n_slots, n_classes, listed,
            )
            prefixes.append(slots * layout.stride + position)
            indexes.append(value_index + n_values)
            blocks.append(counts)
            values.append((position, distinct))
            n_values += len(distinct)
    payload = (records, totals, np.concatenate(prefixes),
               np.concatenate(indexes), np.concatenate(blocks), values)
    stage_set = set(stage_nodes)
    capture_set = set(capture_nodes)
    writes: dict[Any, Any] = {}
    captures: dict[Any, Any] = {}
    if stage_set or capture_set:
        bounds_list = bounds.tolist()
        for slot, node_id in enumerate(layout.node_ids):
            selection = rows[bounds_list[slot]:bounds_list[slot + 1]]
            if node_id in stage_set:
                writes[node_id] = selection
            if node_id in capture_set:
                captures[node_id] = selection
    return seq, payload, routed, writes, captures, \
        time.thread_time() - started


def count_partition_slice(
    ctx: Any,
    seq: int,
    partition: ColumnarPartition,
    start: int,
    stop: int,
    keep_spec: Optional[tuple[Any, dict[str, int]]],
    stage_nodes: Iterable[Any],
    capture_nodes: Iterable[Any],
) -> tuple[int, tuple[Any, ...], int, dict[Any, Any], dict[Any, Any],
           float, int]:
    """Count rows ``[start, stop)`` of a partition under a keep mask.

    The worker entry of every plan-run scan, over the plan's encoding
    (or a slice of it a process worker was sent pickled): slices
    (zero-copy views), evaluates the batch filter as a keep mask
    (``keep_spec`` is ``(expr, attr_index)``, or None for an
    unfiltered scan), and counts the qualifying rows.  Returns the
    :func:`count_partition_columnar` tuple with the number of
    *qualifying* rows appended — the coordinator charges transfer for
    exactly those, matching what a streaming cursor would have
    shipped.  Staging/capture index arrays are relative to the slice;
    the coordinator re-bases them with ``start``.
    """
    started = time.thread_time()
    piece = partition.slice(start, stop)
    keep = None
    seen = piece.n_rows
    if keep_spec is not None:
        expr, attr_index = keep_spec
        keep = predicate_mask(piece, expr, attr_index)
        seen = int(np.count_nonzero(keep))
    out_seq, payload, routed, writes, captures, _ = (
        count_partition_columnar(
            ctx, seq, piece, stage_nodes, capture_nodes, keep=keep
        )
    )
    return (out_seq, payload, routed, writes, captures,
            time.thread_time() - started, seen)


__all__ = [
    "LIMB_BITS",
    "SlotLayout",
    "count_partition_columnar",
    "count_partition_slice",
    "filter_supported",
    "predicate_mask",
    "route_masks",
    "routed_pairs",
    "slot_layout",
]
