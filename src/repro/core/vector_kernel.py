"""The counting kernel: slot-indexed vector counting over columnar
partitions.

Every scan counts here, whatever its source, executor or batch width.
A partition is counted in two array passes:

* **route** — :func:`route_partition`, by one of two routes.  The
  *path* route: :func:`route_masks` evaluates the compiled
  :class:`~repro.core.filters.RoutingKernel` once per *column*: each
  dispatch table becomes one LUT fancy-index over the column's codes,
  in :data:`LIMB_BITS`-bit limbs so a batch may hold any number of
  slots, built once per scan for a declared column (:func:`route_tables`).
  A SERVER scan's pushed filter is the OR of the batch's paths, so the
  rows it keeps are the rows the route takes.  :func:`routed_pairs`
  turns the masks into ``(row, slot)`` pairs grouped by slot with rows
  ascending — one pair per routed row when the batch is an antichain (a
  tree frontier always is), every matching slot otherwise.  The *tag*
  route: the coordinator hands each slice its rows' slots.  Either way
  an antichain ends in :func:`by_slot`.
* **count** — one key space for the whole batch, ``(cell * slots +
  slot) * classes + label``, one ``np.bincount`` for every attribute:
  the cells are the column domains the scan's source declared once
  (:class:`~repro.sqlengine.columnar.Domain`), carried by the
  :class:`SlotLayout` the pool installs.  A column declared too wide,
  or not at all, takes the *ranked* form of the key (``np.unique``),
  whose memory follows the pairs counted, never the value range.

A slot in the layout's ``derived_slots`` (``BatchCounts.derive`` fills
it) is not counted: dropped from the route unless the scan stages or
captures its rows, its pairs dropped before counting if it does.

The counts leave as arrays: per partition one payload of seven
objects — per-slot records and class totals, the ranked columns'
``(slot, attribute, value)`` pairs (key prefixes, value indexes, a 2-D
``int64`` count array, each attribute's *distinct* values once as
Python objects) and the dense ``int64[slots, width, classes]`` block
(:func:`count_partition_slice`).  The number of objects does
not depend on the batch width and no count vector becomes a Python
list here: ``CCTable.merge_block`` folds a payload into the scan's
``BatchCounts`` (the dense block by ``+=``), and every node's table is
cut from that as views.  The tables compare equal (``CCTable.__eq__``)
to ``client.baselines.build_cc_from_rows`` over the rows
``PathCondition.matches`` selects.  ``np.bincount`` and fancy
indexing release the GIL, so a thread pool gets real parallelism out
of this.

Class labels are checked on *routed* rows only, like a row loop would
meet them: NULL and non-integer labels raise ``TypeError``, labels
outside ``[0, n_classes)`` raise ``IndexError`` naming the label, a
value outside its declared domain ``MiddlewareError``.
"""

from __future__ import annotations

import time
from typing import Any, Iterable, NamedTuple, Optional, Sequence

from ..common.errors import MiddlewareError
from ..sqlengine.columnar import (
    DICT,
    Column,
    ColumnarPartition,
    Domain,
    _ordered_codes,
    integral,
    np,
)

#: Slots per int64 limb of a candidate mask (the sign bit and one
#: guard bit stay clear, so ``mask - 1`` and float conversion are safe).
LIMB_BITS = 62
_LIMB_MASK = (1 << LIMB_BITS) - 1


def _limbs(masks: Sequence[int], n_limbs: int) -> Any:
    """Slot masks as an ``int64[n_limbs, len(masks)]`` array."""
    return np.array([[(mask >> (LIMB_BITS * limb)) & _LIMB_MASK
                      for mask in masks] for limb in range(n_limbs)],
                    dtype=np.int64).reshape(n_limbs, len(masks))


def _fits(cells: int, source_rows: int) -> bool:
    """Whether a per-scan array of ``cells`` stays within a small
    multiple of the source's rows: the dense/ranked rule."""
    return cells <= 4 * source_rows + 64


def _row_codes(column: Column) -> tuple[Any, int]:
    """A raw column as integer codes in ``[0, width)``, for routing: its
    values shifted, or ranked when the range is sparse, with NULL as
    one extra top code."""
    codes, width = _ordered_codes(column.data, 4 * column.data.size + 64)
    if column.nulls is not None:
        codes = np.where(column.nulls, width, codes)
        width += 1
    return codes, width


def _witness(codes: Any, present: Any, span: int) -> Any:
    """For each code in ``present``, the index of one element of
    ``codes`` holding it (any one: they all spell the same key)."""
    witness = np.empty(span, dtype=np.intp)
    witness[codes] = np.arange(codes.size)
    return witness[present]


def _declared_code(value: Any, domain: Domain) -> Optional[int]:
    """The code a dict probe finds ``value`` under in a RAW domain."""
    if value is None:
        return domain.size if domain.nullable else None
    code = integral(value)
    if code is None or not 0 <= code - domain.low < domain.size:
        return None
    return code - domain.low


def route_tables(kernel: Any, domains: Sequence[Optional[Domain]],
                 source_rows: int) -> tuple[Optional[tuple[Domain, Any]], ...]:
    """Per probe of ``kernel`` (None: the tag route), ``(domain, lut)``
    built once per scan from its column's declared RAW domain:
    ``lut[:, code]`` holds the limbs of ``table.get(value, default)``
    for the value behind the code (``Domain.decoded()``).  None where a
    partition looks its values up itself: a DICT column (its own
    codes), an undeclared one, one too wide (:func:`_fits`)."""
    if kernel is None:
        return ()
    n_limbs = max(1, -(-kernel.n_slots // LIMB_BITS))
    tables: list[Optional[tuple[Domain, Any]]] = []
    for index, table, default in kernel.probes:
        domain = domains[index] if index < len(domains) else None
        if (domain is None or domain.values is not None
                or not _fits(n_limbs * domain.width, source_rows)):
            tables.append(None)
            continue
        lut = np.repeat(_limbs([default], n_limbs), domain.width, axis=1)
        for value, hit in table.items():
            code = _declared_code(value, domain)
            if code is not None:
                lut[:, code] = _limbs([hit], n_limbs)[:, 0]
        tables.append((domain, lut))
    return tuple(tables)


def _declared_codes(column: Column, domain: Domain, index: int) -> Any:
    """A raw column's codes in its declared domain, NULL the one above;
    a value outside it, or a NULL it does not declare, raises — never
    wraps to another code."""
    codes = np.subtract(column.data, np.int64(domain.low), dtype=np.int64)
    nulls = column.nulls
    live = codes if nulls is None else codes[~nulls]
    if (nulls is not None and not domain.nullable
            or live.size and int(live.view(np.uint64).max()) >= domain.size):
        raise _undeclared(f"a value of column {index}")
    if nulls is not None:
        codes[nulls] = domain.size
    return codes


def route_masks(kernel: Any, partition: ColumnarPartition,
                tables: Sequence[Optional[tuple[Domain, Any]]] = ()) -> Any:
    """Per-row candidate masks: an ``(n_limbs, n_rows)`` int64 array.

    Slot ``s`` is bit ``s % LIMB_BITS`` of limb ``s // LIMB_BITS``.
    Column-at-a-time evaluation of the kernel's dispatch tables (Python
    dict semantics, as ``RoutingKernel.route`` has them): a column with
    a route table (:func:`route_tables`) indexes it with its codes; any
    other looks the distinct values it holds in this partition up once
    each.  A ``filtered`` kernel routes only the rows its pushed filter
    keeps (SQL's: a NULL cell fails the slots constrained on its column,
    a None literal its own), each to every slot the dict route gives it.
    """
    n_limbs = max(1, -(-kernel.n_slots // LIMB_BITS))
    masks = np.repeat(_limbs([kernel.full_mask], n_limbs), partition.n_rows,
                      axis=1)
    nulls: list[tuple[Any, int]] = []
    for (index, table, default), constrained, declared in zip(
            kernel.probes, kernel.constrained,
            tables or (None,) * kernel.n_probes):
        if not masks.any():
            break  # nothing left to route (or an empty partition)
        column = partition.columns[index]
        if column.kind == DICT:
            assert column.values is not None
            codes: Any = column.data
            lut = _limbs([table.get(value, default) for value in column.values],
                         n_limbs)
        elif declared is not None:
            codes, lut = _declared_codes(column, declared[0], index), declared[1]
        else:
            codes, width = _row_codes(column)
            present = np.flatnonzero(np.bincount(codes, minlength=width))
            lut = np.zeros((n_limbs, width), dtype=np.int64)
            lut[:, present] = _limbs([
                table.get(value, default) for value in
                column.values_at(_witness(codes, present, width))
            ], n_limbs)
        masks &= lut[:, codes]
        if kernel.filtered:
            null = column.nulls
            if column.values is not None and None in column.values:
                null = column.data == column.values.index(None)
            if null is not None:
                nulls.append((null, constrained))
    if kernel.filtered and (kernel.none_slots or nulls):
        sql = masks & ~_limbs([kernel.none_slots], n_limbs)
        for null, constrained in nulls:
            sql[:, null] &= ~_limbs([constrained], n_limbs)
        masks[:, ~sql.any(axis=0)] = 0
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
    if n_limbs == 1:
        # One limb (at most LIMB_BITS slots): a routed row's one mask is
        # its hit, never zero.
        hit = any_slot[routed_rows][None, :]
        limb: Any = 0
        antichain = not (hit & (hit - 1)).any()
    else:
        hit = masks[:, routed_rows]
        antichain = (not (hit & (hit - 1)).any()
                     and np.count_nonzero(hit) == routed)
        if antichain:
            limb = np.argmax(hit != 0, axis=0)
    if antichain:
        # The antichain fast path: one bit per routed row, whose
        # exponent frexp reads exactly.
        bits = hit[0] if n_limbs == 1 else hit[limb, np.arange(routed)]
        return by_slot(routed_rows, limb * LIMB_BITS
                       + np.frexp(bits.astype(np.float64))[1] - 1, n_slots)
    per_slot = [
        routed_rows[np.flatnonzero(
            hit[slot // LIMB_BITS] & (1 << (slot % LIMB_BITS))
        )]
        for slot in range(n_slots)
    ]
    bounds = np.zeros(n_slots + 1, dtype=np.intp)
    np.cumsum([part.size for part in per_slot], out=bounds[1:])
    return np.concatenate(per_slot), bounds, routed


def by_slot(routed_rows: Any, slot_of_row: Any,
            n_slots: int) -> tuple[Any, Any, int]:
    """``(rows, bounds, routed)`` from each routed row's one slot, by a
    stable (on the narrowest dtype, radix) sort: both routes end here."""
    rows = routed_rows[np.argsort(
        slot_of_row.astype(np.min_scalar_type(n_slots)), kind="stable"
    )]
    bounds = np.zeros(n_slots + 1, dtype=np.intp)
    np.cumsum(np.bincount(slot_of_row, minlength=n_slots), out=bounds[1:])
    return rows, bounds, int(routed_rows.size)


def route_partition(kernel: Any, layout: "SlotLayout",
                    partition: ColumnarPartition, dropped: Sequence[int],
                    routes: Optional[Any]) -> tuple[Any, Any, int, int]:
    """The partition's ``(rows, bounds, routed, seen)`` by the kernel
    (the path route) or the tag route's ``routes`` (each row's slot,
    ``n_slots`` none); the ``dropped`` slots route nowhere.  ``seen``:
    every row, a filtered kernel's kept ones (dropped slots too)."""
    n_slots, seen = len(layout.node_ids), partition.n_rows
    if routes is None:
        masks = route_masks(kernel, partition, layout.route)
        if kernel.filtered:
            seen = int(np.count_nonzero(masks.any(axis=0)))
        if dropped:
            masks &= ~_limbs([sum(1 << slot for slot in dropped)],
                             masks.shape[0])
        return (*routed_pairs(masks, n_slots), seen)
    live = routes < n_slots
    if dropped:
        live &= np.isin(routes, dropped, invert=True)
    routed_rows = np.flatnonzero(live)
    return (*by_slot(routed_rows, routes[routed_rows], n_slots), seen)


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
    #: ``(position, listed)`` per *ranked* column some slot lists,
    #: ascending: ``listed`` is the boolean per-slot mask of the slots
    #: that list it, or None when every slot does.
    ranked: tuple[tuple[int, Any], ...]
    #: Attribute columns of the source: a counted pair's key prefix is
    #: ``slot * stride + position``.
    stride: int
    #: ``(position, offset, domain)`` per *dense* column: its codes are
    #: cells ``offset ..`` of ``width``; per cell its column and code,
    #: and the ``[slots, width]`` listed mask (None: all listed).
    dense: tuple[tuple[int, int, Domain], ...] = ()
    width: int = 0
    cell_position: Any = None
    cell_code: Any = None
    cell_listed: Any = None
    #: Slots ``BatchCounts.derive`` fills: never counted.
    derived_slots: tuple[int, ...] = ()
    #: Per probe of the scan's path route, the table its declared
    #: domain's codes index (:func:`route_tables`), or None.
    route: tuple[Optional[tuple[Domain, Any]], ...] = ()


def slot_layout(node_ids: Sequence[Any],
                positions: Sequence[Sequence[int]],
                stride: int,
                domains: Sequence[Optional[Domain]] = (),
                n_classes: int = 1,
                source_rows: int = 0) -> SlotLayout:
    """The layout of a batch whose slot ``s`` is node ``node_ids[s]``
    counting the columns ``positions[s]`` (each below ``stride``).

    ``domains`` are the source's declared column domains: a column is
    *dense* when its ``slots x width x classes`` cells stay within a
    small multiple of the source's rows, else — or undeclared — ranked.
    """
    listed = np.zeros((len(positions), stride), dtype=bool)
    for slot, columns in enumerate(positions):
        listed[slot, columns] = True
    ranked: list[tuple[int, Any]] = []
    dense: list[tuple[int, int, Domain]] = []
    width = 0
    for position in np.flatnonzero(listed.any(axis=0)).tolist():
        domain = domains[position] if position < len(domains) else None
        if domain is not None and _fits(
                len(positions) * domain.width * n_classes, source_rows):
            dense.append((position, width, domain))
            width += domain.width
        else:
            mask = listed[:, position]
            ranked.append((position, None if mask.all() else mask.copy()))
    widths = [domain.width for _, _, domain in dense]
    cell_position = np.repeat([p for p, _, _ in dense], widths).astype(int)
    cell_code = np.arange(width) - np.repeat(
        [offset for _, offset, _ in dense], widths
    ).astype(int)
    cell_listed = listed[:, cell_position]
    return SlotLayout(
        tuple(node_ids), tuple(ranked), stride, tuple(dense), width,
        cell_position, cell_code, None if cell_listed.all() else cell_listed,
    )


def _undeclared(what: str) -> MiddlewareError:
    return MiddlewareError(
        f"a partition holds {what} outside the domain its source declared"
    )


#: Keys per ``np.bincount`` call (1 MiB): a longer partition is counted
#: a block of columns at a time.  int64, as ``np.bincount`` converts
#: anything narrower to it (a copy).
KEY_BLOCK = 1 << 17


def _dense_counts(layout: SlotLayout, partition: ColumnarPartition,
                  rows: Any, base: Any, records: Any,
                  n_classes: int) -> Any:
    """The dense columns' counts, ``int64[slots, width, classes]``:
    ``np.bincount`` over ``(cell * slots + slot) * classes + label``
    (``base`` is the pairs' ``slot * classes + label``).

    Stored cell-major (the result is a transposed view), so each block
    of columns counts into its own contiguous range.  A code outside its
    domain raises: below zero or past its block's range it fails the
    length check, inside another column's cells it leaves a column
    whose cells do not sum to each slot's records.
    """
    n_slots, width = len(layout.node_ids), layout.width
    stride = n_slots * n_classes
    blocks: list[Any] = []
    per_block = max(1, KEY_BLOCK // rows.size)
    for first in range(0, len(layout.dense), per_block):
        block = layout.dense[first:first + per_block]
        low, end = block[0][1], block[-1][1] + block[-1][2].width
        keys = np.empty((len(block), rows.size), dtype=np.int64)
        for row, (position, offset, domain) in zip(keys, block):
            column = partition.columns[position]
            if (column.values != domain.values
                    or column.nulls is not None and not domain.nullable):
                raise _undeclared(f"a value of column {position}")
            # Wrapped to int64 as the subtraction wraps: in-domain codes
            # come out exact whatever the column's range.
            shift = (domain.low - offset + low + (1 << 63)) % (1 << 64)
            np.subtract(column.data[rows], shift - (1 << 63), out=row,
                        dtype=np.int64)
            if column.nulls is not None:
                row[column.nulls[rows]] = offset - low + domain.size
        keys *= stride
        keys += base
        try:
            counted = np.bincount(keys.reshape(-1),
                                  minlength=(end - low) * stride)
        except ValueError:  # a negative key
            counted = None
        if counted is None or counted.size != (end - low) * stride:
            raise _undeclared("a count key")
        blocks.append(counted)
    cells = np.concatenate(blocks).reshape(width, n_slots, n_classes)
    sums = np.zeros((width + 1, n_slots), dtype=np.int64)
    np.cumsum(cells.sum(axis=2), axis=0, out=sums[1:])
    edges = [offset for _, offset, _ in layout.dense] + [width]
    wrong = (sums[edges[1:]] - sums[edges[:-1]] != records).any(axis=1)
    if wrong.any():
        position = layout.dense[int(np.argmax(wrong))][0]
        raise _undeclared(f"a value of column {position}")
    return cells.transpose(1, 0, 2)


def _ranked_counts(layout: SlotLayout, partition: ColumnarPartition,
                   rows: Any, slot_of_pair: Any, labels: Any,
                   n_classes: int) -> tuple[Any, ...]:
    """The ranked columns' pairs ``(prefix, value_index, counts,
    values)``: the dense key over cells ranked by ``np.unique`` — each
    distinct ``(column, value, NULL)`` of the partition one cell — and
    the ``(cell, slot)`` pairs ranked again, so memory follows the
    pairs whatever the value range.  Slots outside a column's
    ``listed`` mask are dropped from the pairs, not the rows."""
    n_slots, columns = len(layout.node_ids), [
        partition.columns[position] for position, _ in layout.ranked
    ]
    key = np.zeros((3, len(columns), rows.size), dtype=np.int64)
    key[0] = np.arange(len(columns))[:, None]
    for j, column in enumerate(columns):
        key[1, j] = column.data[rows]
        if column.nulls is not None:
            key[2, j] = column.nulls[rows]
    cells, cell = np.unique(key.reshape(3, -1), axis=1, return_inverse=True)
    pairs, pair = np.unique(
        cell.reshape(-1) * n_slots + np.tile(slot_of_pair, len(columns)),
        return_inverse=True,
    )
    counts = np.bincount(
        pair.reshape(-1) * n_classes + np.tile(labels, len(columns)),
        minlength=pairs.size * n_classes,
    ).reshape(pairs.size, n_classes)
    value_index, slots = np.divmod(pairs, n_slots)
    listed = np.array([np.ones(n_slots, bool) if mask is None else mask
                       for _, mask in layout.ranked])
    wanted = listed[cells[0, value_index], slots]
    values: dict[int, list[Any]] = {}
    for j, value, null in cells.T.tolist():
        if columns[j].values is not None:
            value = columns[j].values[value]
        values.setdefault(layout.ranked[j][0], []).append(
            None if null else value
        )
    positions = np.array([position for position, _ in layout.ranked])
    prefix = slots * layout.stride + positions[cells[0, value_index]]
    return (prefix[wanted], value_index[wanted], counts[wanted],
            list(values.items()))


def count_partition_slice(
    ctx: Any,
    seq: int,
    partition: ColumnarPartition,
    start: int,
    stop: int,
    stage_nodes: Iterable[Any],
    capture_nodes: Iterable[Any],
    routes: Optional[Any] = None,
) -> tuple[int, tuple[Any, ...], int, dict[Any, Any], dict[Any, Any],
           float, int]:
    """Count rows ``[start, stop)`` of a partition against a routing
    context: the worker entry of every scan, over the source's encoding
    (or the slice of it a process worker was sent pickled).

    Returns ``(seq, payload, routed, writes, captures, seconds, seen)``;
    ``seconds`` is the CPU time of the counting thread
    (``time.thread_time``), not wall time: the scan's
    ``worker_seconds`` report it, and a pool thread's wall time also
    holds however long it waited for the coordinator to let go of the
    GIL — which says nothing about the partition and differs from run
    to run.  ``seen`` is the rows the scan saw (:func:`route_partition`):
    for a filtered SERVER scan the rows its pushed filter kept, which
    the coordinator charges transfer for, as a streaming cursor would
    have shipped them.
    The payload is what ``CCTable.merge_block`` folds into the scan's
    :class:`~repro.core.cc_table.BatchCounts`:
    ``(records, totals, prefix, value_index, counts, values, dense)`` —
    ``records[n_slots]`` and ``totals[n_slots, n_classes]`` per slot,
    then every counted pair of the ranked columns: pair ``i`` belongs
    to key prefix ``prefix[i]`` (``slot * stride + position``), spells
    the value ``value_index[i]`` indexes in the flattened ``values``
    lists (``[(position, distinct values), ...]``) and has the class
    counts ``counts[i]``; last the dense block.  Seven objects,
    whatever the number of slots.  Staging/capture output is ascending
    selected-row *index arrays*, relative to the slice (the coordinator
    re-bases them with ``start`` and gathers the pieces out of its own
    copy of the encoding, so no row crosses the worker boundary).
    ``routes``, the slice's tag-route slots, stand in for the context's
    kernel.
    """
    kernel, layout, class_index, n_classes = ctx
    started = time.thread_time()
    piece = partition.slice(start, stop)
    n_slots = len(layout.node_ids)
    stage_set = set(stage_nodes)
    capture_set = set(capture_nodes)
    # A derived slot is routed only for a write, and never counted.
    dropped = [slot for slot in layout.derived_slots
               if layout.node_ids[slot] not in stage_set | capture_set]
    rows, bounds, routed, seen = route_partition(
        kernel, layout, piece, dropped, routes
    )
    records = np.diff(bounds)
    derived, counted = list(layout.derived_slots), rows
    if records[derived].any():  # a target's rows, routed for its write
        counted = rows[np.repeat(np.isin(np.arange(n_slots), derived,
                                         invert=True), records)]
    records[derived] = 0
    slot_of_pair = np.repeat(np.arange(n_slots), records)
    labels = counted  # none counted: as empty as the pairs
    if counted.size:
        labels = _class_labels(
            piece.columns[class_index], counted, n_classes
        )
    base = slot_of_pair * n_classes + labels
    totals = np.bincount(
        base, minlength=n_slots * n_classes
    ).reshape(n_slots, n_classes)
    none = np.zeros(0, dtype=np.int64)
    ranked: Any = (none, none, totals[:0], [])
    dense = np.zeros((n_slots, layout.width, n_classes), dtype=np.int64)
    if counted.size and layout.ranked:
        ranked = _ranked_counts(
            layout, piece, counted, slot_of_pair, labels, n_classes
        )
    if counted.size and layout.dense:
        dense = _dense_counts(
            layout, piece, counted, base, records, n_classes
        )
    payload = (records, totals, *ranked, dense)
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
    return (seq, payload, routed, writes, captures,
            time.thread_time() - started, seen)


def count_partition_columnar(ctx: Any, seq: int, partition: ColumnarPartition,
                             stage_nodes: Iterable[Any],
                             capture_nodes: Iterable[Any],
                             routes: Optional[Any] = None) -> tuple[Any, ...]:
    """Count a whole partition: :func:`count_partition_slice`'s tuple
    without ``seen``."""
    return count_partition_slice(ctx, seq, partition, 0, partition.n_rows,
                                 stage_nodes, capture_nodes, routes)[:6]


__all__ = [
    "LIMB_BITS",
    "SlotLayout",
    "by_slot",
    "count_partition_columnar",
    "count_partition_slice",
    "route_masks",
    "route_partition",
    "route_tables",
    "routed_pairs",
    "slot_layout",
]
