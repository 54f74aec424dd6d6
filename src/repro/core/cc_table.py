"""The CC (counts) table — the paper's sufficient statistic.

For one tree node, the CC table holds, for every attribute ``A`` still
present at the node and every value ``v`` it takes in the node's data,
the vector of co-occurrence counts with each class value
(Section 2.2's 4-column ``(attr_name, value, class, count)`` table).

The paper stores CC tables as binary trees sorted so that "retrieving a
vector of counts for the states of a class correlated with a particular
attribute and its state is efficient".  Here the counts *are* vectors:
a table is one 2-D ``int64`` array, one row per ``(attribute, value)``
pair, the pairs of an attribute adjacent, and the values kept beside it
as the Python objects they are (``None``, ``str``, ``int``, mixed).
Every read goes through that form:

* a scan counts a whole batch at once: the kernel's per-partition
  arrays fold into one :class:`BatchCounts`
  (:meth:`CCTable.merge_block`: a dense block by ``+=``, ranked pairs
  by key) and each node's table is *cut* from it after the last
  partition as views — no per-node, per-pair work — once
  :meth:`BatchCounts.derive` has filled the slots it did not count;
* the row-at-a-time writers (:meth:`CCTable.count_row`,
  :meth:`CCTable.add_counts`, :meth:`CCTable.merge`) buffer into a
  ``{(attribute, value): counts}`` dict that the next read turns into
  the arrays; a write to a table in array form copies it back into a
  buffer first, so a table cut from a batch never writes through to
  its siblings.

Memory accounting: one ``(attribute, value)`` pair costs
``PAIR_KEY_BYTES + BYTES_PER_COUNT * n_classes`` simulated bytes, and
every size the scheduler reasons about is expressed in *pairs*.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Iterable, Mapping, Sequence

from ..common.errors import MiddlewareError
from ..sqlengine.columnar import np

#: Simulated bytes for one (attribute, value) key.
PAIR_KEY_BYTES = 8
#: Simulated bytes for one class counter.
BYTES_PER_COUNT = 4

#: A batch key is ``(slot * stride + column) << CODE_BITS | value code``.
CODE_BITS = 32
_CODE_MASK = (1 << CODE_BITS) - 1


def bytes_for_pairs(n_pairs: int, n_classes: int) -> int:
    """Simulated size of a CC table with ``n_pairs`` (attr, value) pairs."""
    return n_pairs * (PAIR_KEY_BYTES + BYTES_PER_COUNT * n_classes)


def value_sort_key(value: Any) -> tuple[bool, str, Any]:
    """Deterministic ordering for possibly-None attribute values.

    NULL sorts first, then values grouped by type, so NULL and
    mixed-type values are never compared with each other directly.
    """
    return (value is not None, str(type(value)), value)


class CCTable:
    """Co-occurrence counts of (attribute, value) with the class."""

    __slots__ = ("attributes", "n_classes", "_records", "_class_totals",
                 "_pending", "_counts", "_codes", "_bounds", "_names",
                 "_columns", "_domains", "_row_of")

    def __init__(self, attributes: Iterable[str], n_classes: int) -> None:
        if n_classes < 1:
            raise MiddlewareError("CC table needs at least one class")
        self.attributes = tuple(attributes)
        self.n_classes = n_classes
        self._records = 0
        self._class_totals: list[int] = [0] * n_classes
        #: The writers' buffer, (attribute, value) -> list of class
        #: counts; None while the table is in array form.
        self._pending: dict[tuple[str, Any], list[int]] | None = {}
        # The array form (see :meth:`_adopt`), valid while ``_pending``
        # is None.
        self._counts: Any = None
        self._codes: Any = None
        self._bounds: Sequence[int] = ()
        self._names: Sequence[str] = ()
        self._columns: Mapping[str, int] = {}
        self._domains: Sequence[Sequence[Any]] = ()
        #: (attribute, value) -> pair row, built by the first lookup.
        self._row_of: dict[tuple[str, Any], int] | None = None

    @classmethod
    def _cut(cls, attributes: tuple[str, ...], n_classes: int,
             records: int, class_totals: list[int],
             *arrays: Any) -> CCTable:
        """A table in array form over ``arrays`` (see :meth:`_adopt`),
        which it does not copy."""
        table = cls.__new__(cls)
        table.attributes = attributes
        table.n_classes = n_classes
        table._records = records
        table._class_totals = class_totals
        table._adopt(*arrays)
        return table

    # -- the two forms -----------------------------------------------------

    def _buffer(self) -> dict[tuple[str, Any], list[int]]:
        """The writers' buffer; a table in array form is copied into
        one first (its arrays may be views of a whole batch)."""
        if self._pending is None:
            self._pending = self._pairs()
            self._counts = self._codes = self._row_of = None
        return self._pending

    def _freeze(self) -> None:
        """Turn the writers' buffer into the array form (every read)."""
        pending = self._pending
        if pending is None:
            return
        if np is None:
            raise MiddlewareError(
                "CC tables are read as numpy arrays and numpy is not "
                "importable; install numpy (a declared dependency)"
            )
        names = self.attributes
        columns = {attribute: i for i, attribute in enumerate(names)}
        domains: list[list[Any]] = [[] for _ in names]
        vectors: list[list[list[int]]] = [[] for _ in names]
        for (attribute, value), vector in pending.items():
            column = columns[attribute]
            domains[column].append(value)
            vectors[column].append(vector)
        bounds = [0]
        for domain in domains:
            bounds.append(bounds[-1] + len(domain))
        counts = np.array(
            [vector for block in vectors for vector in block],
            dtype=np.int64,
        ).reshape(bounds[-1], self.n_classes)
        codes = np.fromiter(
            (code for domain in domains for code in range(len(domain))),
            dtype=np.int64, count=bounds[-1],
        )
        counts.flags.writeable = codes.flags.writeable = False
        self._adopt(counts, codes, bounds, names, columns, domains)

    def _adopt(self, counts: Any, codes: Any, bounds: Sequence[int],
               names: Sequence[str], columns: Mapping[str, int],
               domains: Sequence[Sequence[Any]]) -> None:
        """Take the array form: pair ``i`` has the class counts
        ``counts[i]`` (2-D ``int64``) and the value
        ``domains[c][codes[i]]``, ``c`` being the column whose pairs are
        rows ``bounds[c]:bounds[c + 1]``; ``names[c]`` is the column's
        attribute and ``columns`` the inverse mapping.  A column outside
        :attr:`attributes` has no rows."""
        self._pending = None
        self._counts, self._codes, self._bounds = counts, codes, bounds
        self._names, self._columns, self._domains = names, columns, domains
        self._row_of = None

    def _column_values(self, column: int) -> list[Any]:
        """The values of one column's pairs, in row order."""
        first, last = self._bounds[column], self._bounds[column + 1]
        if first == last:
            return []
        domain = self._domains[column]
        return [domain[code] for code in self._codes[first:last].tolist()]

    def _keys(self) -> list[tuple[str, Any]]:
        """``(attribute, value)`` of every pair, in row order."""
        self._freeze()
        return [
            (attribute, value)
            for column, attribute in enumerate(self._names)
            for value in self._column_values(column)
        ]

    def _pairs(self) -> dict[tuple[str, Any], list[int]]:
        """Every pair with a fresh copy of its counts."""
        return dict(zip(self._keys(), self._counts.tolist()))

    # -- updates ---------------------------------------------------------

    def count_row(self, values_by_attribute: Mapping[str, Any],
                  class_label: int) -> int:
        """Count one record.

        ``values_by_attribute`` maps attribute name -> value for (at
        least) every attribute in :attr:`attributes`.  Returns the
        number of *new* (attribute, value) pairs this record created,
        which callers use to grow their memory reservation.
        """
        if not 0 <= class_label < self.n_classes:
            # Unchecked, a label of -1 would count as the last class.
            raise MiddlewareError(f"class label {class_label} out of range")
        vectors = self._buffer()
        new_pairs = 0
        for attribute in self.attributes:
            key = (attribute, values_by_attribute[attribute])
            vector = vectors.get(key)
            if vector is None:
                vector = [0] * self.n_classes
                vectors[key] = vector
                new_pairs += 1
            vector[class_label] += 1
        self._records += 1
        self._class_totals[class_label] += 1
        return new_pairs

    def would_add_pairs(
        self, values_by_attribute: Mapping[str, Any]
    ) -> int:
        """How many new pairs counting this record would create."""
        vectors = self._buffer()
        return sum(
            1
            for attribute in self.attributes
            if (attribute, values_by_attribute[attribute]) not in vectors
        )

    def add_counts(self, attribute: str, value: Any, class_label: int,
                   count: int) -> None:
        """Bulk-add ``count`` co-occurrences (SQL result ingestion).

        Does *not* touch the record total — callers deriving a CC table
        from a SQL result set must call :meth:`set_records` (the record
        count equals the per-attribute sum, validated there).
        """
        if attribute not in self.attributes:
            raise MiddlewareError(f"unexpected attribute {attribute!r}")
        if not 0 <= class_label < self.n_classes:
            raise MiddlewareError(f"class label {class_label} out of range")
        vectors = self._buffer()
        key = (attribute, value)
        vector = vectors.get(key)
        if vector is None:
            vector = [0] * self.n_classes
            vectors[key] = vector
        vector[class_label] += count
        self._class_totals[class_label] += count

    def set_records(self, n_records: int) -> None:
        """Declare the record total after bulk ingestion.

        Class totals were accumulated once per attribute during
        ingestion; this rescales them back to per-record counts and
        validates consistency.
        """
        n_attributes = len(self.attributes)
        if n_attributes and self._records == 0:
            rescaled: list[int] = []
            for total in self._class_totals:
                if total % n_attributes:
                    raise MiddlewareError(
                        "inconsistent bulk counts: class total "
                        f"{total} not divisible by {n_attributes} attributes"
                    )
                rescaled.append(total // n_attributes)
            if sum(rescaled) != n_records:
                raise MiddlewareError(
                    f"bulk counts sum to {sum(rescaled)} records, "
                    f"expected {n_records}"
                )
            self._class_totals = rescaled
        self._records = n_records

    # -- reads ------------------------------------------------------------

    @property
    def records(self) -> int:
        """Number of records counted (|S| at the node)."""
        return self._records

    @property
    def n_pairs(self) -> int:
        """Number of distinct (attribute, value) pairs."""
        self._freeze()
        return len(self._codes)

    @property
    def size_bytes(self) -> int:
        """Simulated memory footprint."""
        return bytes_for_pairs(self.n_pairs, self.n_classes)

    def class_totals(self) -> list[int]:
        """Per-class record counts at this node (a copy)."""
        return list(self._class_totals)

    @property
    def counts(self) -> Any:
        """Every pair's class counts: a read-only ``int64`` array of
        shape ``(n_pairs, n_classes)``, an attribute's pairs adjacent.
        :meth:`pair` names the pair behind a row."""
        self._freeze()
        return self._counts

    def pair(self, row: int) -> tuple[str, Any]:
        """``(attribute, value)`` of row ``row`` of :attr:`counts`."""
        self._freeze()
        if not 0 <= row < len(self._codes):
            raise IndexError(f"no pair at row {row}")
        column = bisect_right(self._bounds, row) - 1
        return (self._names[column],
                self._domains[column][int(self._codes[row])])

    def pair_columns(self) -> tuple[Sequence[str], Sequence[int]]:
        """``(names, bounds)``: rows ``bounds[c]:bounds[c + 1]`` of
        :attr:`counts` are attribute ``names[c]``'s pairs."""
        self._freeze()
        return self._names, self._bounds

    def vector(self, attribute: str, value: Any) -> list[int]:
        """Class-count vector for ``(attribute, value)`` (a copy).

        Unseen pairs return a zero vector — a value absent from the
        node's data simply never co-occurred.
        """
        row_of = self._row_of
        if row_of is None:
            row_of = self._row_of = {
                pair: row for row, pair in enumerate(self._keys())
            }
        row = row_of.get((attribute, value))
        if row is None:
            return [0] * self.n_classes
        vector: list[int] = self._counts[row].tolist()
        return vector

    def values_of(self, attribute: str) -> list[Any]:
        """Sorted values ``attribute`` takes in the node's data.

        NULL-safe: a None value (possible when mining tables loaded
        with validation off) sorts first.
        """
        self._freeze()
        column = self._columns.get(attribute)
        if column is None:
            return []
        return sorted(self._column_values(column), key=value_sort_key)

    def vectors_of(self, attribute: str) -> list[list[int]]:
        """The class-count vectors of ``attribute``'s pairs, one per
        value of :meth:`values_of` and in its order (copies)."""
        self._freeze()
        column = self._columns.get(attribute)
        if column is None:
            return []
        first, last = self._bounds[column], self._bounds[column + 1]
        ordered = sorted(
            zip(self._column_values(column), self._counts[first:last].tolist()),
            key=lambda pair: value_sort_key(pair[0]),
        )
        return [vector for _, vector in ordered]

    def cardinality(self, attribute: str) -> int:
        """``card(n, A)`` — distinct values of ``attribute`` at the node."""
        self._freeze()
        column = self._columns.get(attribute)
        if column is None:
            return 0
        return self._bounds[column + 1] - self._bounds[column]

    def pair_count_by_attribute(self) -> dict[str, int]:
        """Mapping attribute -> cardinality (for estimators)."""
        self._freeze()
        bounds, columns = self._bounds, self._columns
        return {
            attribute: bounds[columns[attribute] + 1]
            - bounds[columns[attribute]]
            for attribute in self.attributes
        }

    def rows(self) -> list[tuple[str, Any, int, int]]:
        """The 4-column table, sorted: (attr_name, value, class, count).

        Zero counts are omitted, as a SQL GROUP BY would.
        """
        out: list[tuple[str, Any, int, int]] = []
        ordered = sorted(
            self._pairs().items(),
            key=lambda item: (item[0][0], value_sort_key(item[0][1])),
        )
        for (attribute, value), vector in ordered:
            for class_label, count in enumerate(vector):
                if count:
                    out.append((attribute, value, class_label, count))
        return out

    def merge(self, other: CCTable) -> CCTable:
        """Fold ``other``'s counts into this table (same shape required).

        CC tables are purely additive: counts built over disjoint row
        partitions merge *exactly*, and merging is commutative and
        associative, so partial tables can be absorbed in any order and
        still equal the serial count (:meth:`merged` relies on it; a
        scan's partitions fold through :meth:`merge_block`, the same
        addition for a whole batch at once).  Returns ``self``.
        """
        if (other.attributes != self.attributes
                or other.n_classes != self.n_classes):
            raise MiddlewareError("cannot merge CC tables of different shape")
        vectors = self._buffer()
        for key, vector in other._pairs().items():
            mine = vectors.get(key)
            if mine is None:
                vectors[key] = vector
            else:
                for class_label, count in enumerate(vector):
                    mine[class_label] += count
        self._records += other._records
        for class_label, count in enumerate(other._class_totals):
            self._class_totals[class_label] += count
        return self

    @staticmethod
    def merge_block(batch: BatchCounts, records: Any, totals: Any,
                    prefix: Any, value_index: Any, counts: Any,
                    values: Iterable[tuple[int, Sequence[Any]]],
                    dense: Any = None) -> None:
        """Fold one partition's kernel payload into a scan's batch.

        The same additive merge as :meth:`merge`, for every node of the
        batch and every attribute in one pass
        (``vector_kernel.count_partition_columnar`` describes the
        payload).  The dense block shares the batch's cells: one
        ``+=``.  The ranked pairs were coded by each partition on its
        own, so their *distinct* values — not their pairs — are looked
        up in the scan's value -> code maps; the pairs then become
        integer keys that one stable sort orders and one
        ``searchsorted`` lines up with the keys already merged.
        ``counts`` and ``dense`` are consumed.
        """
        batch.records += records
        batch.totals += totals
        if dense is not None and dense.size:
            if batch.dense is None:
                batch.dense = dense
            else:
                batch.dense += dense
        if not prefix.size:
            return
        codes: list[int] = []
        for column, distinct in values:
            code_of = batch.codes.setdefault(column, {})
            codes.extend(
                code_of.setdefault(value, len(code_of)) for value in distinct
            )
        keys = (prefix << CODE_BITS) | np.array(codes, dtype=np.int64)[
            value_index
        ]
        order = np.argsort(keys, kind="stable")
        keys, counts = keys[order], counts[order]
        if not batch.keys.size:
            batch.keys, batch.counts = keys, counts
            return
        at = np.searchsorted(batch.keys, keys)
        known = batch.keys[np.minimum(at, batch.keys.size - 1)] == keys
        # A partition holds each key once, so the fancy add is exact.
        if known.all():
            batch.counts[at] += counts
            return
        batch.counts[at[known]] += counts[known]
        new = ~known
        batch.keys = np.insert(batch.keys, at[new], keys[new])
        batch.counts = np.insert(batch.counts, at[new], counts[new], axis=0)

    @classmethod
    def merged(cls, attributes: Iterable[str], n_classes: int,
               partials: Iterable[CCTable]) -> CCTable:
        """Sum of additive partial tables.

        Builds one table of the given shape and folds every partial
        in; by the :meth:`merge` contract the result is independent of
        the order of ``partials``.
        """
        total = cls(attributes, n_classes)
        for partial in partials:
            total.merge(partial)
        return total

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CCTable)
            and self.attributes == other.attributes
            and self.n_classes == other.n_classes
            and self._records == other._records
            and self._pairs() == other._pairs()
        )

    def __repr__(self) -> str:
        return (
            f"CCTable(records={self._records}, pairs={self.n_pairs}, "
            f"attributes={len(self.attributes)})"
        )


class BatchCounts:
    """One scan's counts, for every node of its batch at once.

    The accumulator :meth:`CCTable.merge_block` folds partitions into:
    the dense columns of the scan's ``layout`` into ``dense``, an
    ``int64[slots, width, classes]`` array over their declared cells;
    the ranked ones into ``keys`` (sorted, unique) spelling ``(slot,
    column, value code)``, ``counts[i]`` the class-count vector of
    ``keys[i]`` and ``codes`` mapping, per column, each value the scan
    has met to its code, in first-met order.  After the last partition
    :meth:`tables` cuts every node's :class:`CCTable` out as views.
    """

    __slots__ = ("n_slots", "stride", "n_classes", "records", "totals",
                 "keys", "counts", "codes", "layout", "dense")

    def __init__(self, n_slots: int, stride: int, n_classes: int,
                 layout: Any = None) -> None:
        if n_slots * stride >= 1 << (62 - CODE_BITS):
            raise MiddlewareError(
                f"a batch of {n_slots} nodes x {stride} columns does not "
                "fit the count key"
            )
        self.n_slots = n_slots
        self.stride = stride
        self.n_classes = n_classes
        self.records = np.zeros(n_slots, dtype=np.int64)
        self.totals = np.zeros((n_slots, n_classes), dtype=np.int64)
        self.keys = np.zeros(0, dtype=np.int64)
        self.counts = np.zeros((0, n_classes), dtype=np.int64)
        #: column -> {value: code}; a dict hands out at most one code
        #: per key, far fewer than ``2 ** CODE_BITS`` in any memory.
        self.codes: dict[int, dict[Any, int]] = {}
        self.layout = layout  # None: every column is ranked
        self.dense: Any = None  # until a partition brings its block

    def _pairs(self) -> tuple[Any, ...]:
        """``(prefix, code, counts)`` of every counted pair, ordered by
        prefix: one ``nonzero`` over the listed dense cells, beside the
        ranked keys."""
        prefix, codes = self.keys >> CODE_BITS, self.keys & _CODE_MASK
        if self.dense is None:
            return prefix, codes, self.counts
        layout = self.layout
        present = self.dense.any(axis=2)
        if layout.cell_listed is not None:
            present &= layout.cell_listed
        slots, cells = np.nonzero(present)
        dense = (slots * self.stride + layout.cell_position[cells],
                 layout.cell_code[cells], self.dense[slots, cells])
        if not prefix.size:
            return dense
        order = np.argsort(np.concatenate([prefix, dense[0]]), kind="stable")
        return tuple(
            np.concatenate(parts)[order]
            for parts in zip((prefix, codes, self.counts), dense)
        )

    def tables(self, attribute_lists: Iterable[Iterable[str]],
               names: Sequence[str]) -> list[CCTable]:
        """One table per slot, slot ``s`` listing ``attribute_lists[s]``.

        ``names[c]`` is the attribute counted from column ``c``.  A
        table is two slices and one bounds row of arrays computed for
        the whole batch: no work per pair, none per (node, attribute).
        The tables share those arrays read-only, each over its own
        rows (a dense column's pairs in code order).
        """
        stride = self.stride
        columns = {name: column for column, name in enumerate(names)}
        prefix, codes, counts = self._pairs()
        edges = np.searchsorted(prefix, np.arange(self.n_slots * stride + 1))
        cuts = edges[::stride]
        bounds = np.empty((self.n_slots, stride + 1), dtype=np.int64)
        bounds[:, :-1] = edges[:-1].reshape(self.n_slots, stride)
        bounds[:, -1] = cuts[1:]
        bounds -= cuts[:-1, None]
        counts.flags.writeable = codes.flags.writeable = False
        domains = [list(self.codes.get(column, ())) for column in range(stride)]
        for position, _, domain in (
                () if self.layout is None else self.layout.dense):
            domains[position] = domain.decoded()
        return [
            CCTable._cut(
                tuple(attributes), self.n_classes, records, totals,
                counts[first:last], codes[first:last], offsets, names,
                columns, domains,
            )
            for attributes, records, totals, offsets, first, last in zip(
                attribute_lists, self.records.tolist(), self.totals.tolist(),
                bounds.tolist(), cuts.tolist(), cuts[1:].tolist(),
            )
        ]

    def derive(self, families: Sequence[tuple[int, CCTable, list[int], int]],
               positions: Mapping[str, int]) -> None:
        """Fill the slots the scan did not count, before :meth:`tables`:
        per family ``(slot, parent, siblings, n_rows)``, the ``parent``
        table's pairs in this layout's cells by value (``positions``
        maps an attribute to its column) minus the counted ``siblings``'
        dense rows, which hold every dense column, listed or not.  A
        negative count, cells not holding each class total once per
        listed column, or records other than ``n_rows`` raise
        ``MiddlewareError`` naming the node."""
        if not families:
            return
        layout, n_classes = self.layout, self.n_classes
        if self.dense is None:  # no partition: nothing counted
            self.dense = np.zeros((self.n_slots, layout.width, n_classes), np.int64)
        slots, parents, siblings, n_rows = map(list, zip(*families))
        maps: dict[int, Any] = {}  # a batch's tables share their domains
        cells = []  # each parent pair's cell here, or -1
        for parent in parents:
            parent._freeze()
            key = id(parent._domains)
            starts, moved = maps[key] = (
                maps.get(key) or _cell_map(parent, layout, positions)
            )
            cells.append(moved[
                np.repeat(starts, np.diff(parent._bounds)) + parent._codes
            ])
        member = np.repeat(np.arange(len(slots)), [len(c) for c in cells])
        found = np.concatenate(cells)
        kept = found >= 0
        dense = np.zeros((len(slots), layout.width, n_classes), dtype=np.int64)
        dense[member[kept], found[kept]] = np.concatenate(
            [parent._counts for parent in parents])[kept]
        # Each family's counted siblings summed (every family has one).
        first = np.cumsum([0] + [len(group) for group in siblings[:-1]])
        counted = [slot for group in siblings for slot in group]
        dense -= np.add.reduceat(self.dense[counted], first)
        records = np.array([parent.records for parent in parents])
        records -= np.add.reduceat(self.records[counted], first)
        totals = np.array([parent._class_totals for parent in parents])
        totals -= np.add.reduceat(self.totals[counted], first)
        columns = [offset for _, offset, dom in layout.dense if dom.width]
        listed: Any = len(columns)
        if layout.cell_listed is not None:
            cell_listed = layout.cell_listed[slots]
            dense[~cell_listed] = 0
            listed = cell_listed[:, columns].sum(axis=1)[:, None]
        wrong = (
            (dense.reshape(len(slots), -1).min(axis=1, initial=0) < 0)
            | (np.einsum("kwc->kc", dense) != totals * listed).any(axis=1)
            | (records != n_rows)
        )
        if wrong.any():
            raise MiddlewareError(
                f"node {layout.node_ids[slots[int(np.argmax(wrong))]]!r}: "
                "its parent's counts minus its siblings' are not a table "
                "(a negative count, a count outside this source's domains "
                "or other records than the parent CC table promised)"
            )
        self.dense[slots] = dense
        self.records[slots] = records
        self.totals[slots] = totals


def _cell_map(table: CCTable, layout: Any,
              positions: Mapping[str, int]) -> tuple[Any, Any]:
    """``(starts, cells)``: the pair of ``table``'s column ``c`` with
    value code ``k`` lies in ``layout``'s cell ``cells[starts[c] + k]``
    (matched by value), or in none where that is -1."""
    ours = {position: (offset, domain)
            for position, offset, domain in layout.dense}
    starts, cells = [], []
    for name, values in zip(table._names, table._domains):
        starts.append(len(cells))
        offset, domain = ours.get(positions.get(name, -1), (0, None))
        cell_of = {} if domain is None else {
            value: offset + code for code, value in enumerate(domain.decoded())
        }
        cells += [cell_of.get(value, -1) for value in values]
    return np.array(starts, dtype=np.intp), np.array(cells, dtype=np.intp)
