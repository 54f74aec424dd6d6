"""Array-backed columnar partitions for the scan paths that count.

The CC-counting hot loop only ever needs *column arrays* — an attribute
column and the class column — never row dicts or row tuples.  This
module provides the columnar partition representation the middleware
ships to scan workers and the SQL executor counts grouped statements
over (:meth:`HeapTable.columnar`):

* :class:`Column` — one attribute's values as a typed buffer.  Integer
  columns are stored raw (data in the narrowest signed dtype holding
  the column's range, + optional null mask); everything else is
  dictionary-encoded (int32 codes into a tuple of distinct original
  values), which preserves arbitrary Python objects — unicode strings,
  ``None`` — bit-for-bit.
* :class:`ColumnarPartition` — a fixed set of columns over ``n_rows``
  rows, supporting zero-copy row slicing (``slice``), gathering
  selected rows into a new partition (``take``) and joining such
  pieces back into one (``concat``) — how staged rows travel, never as
  tuples — decoding rows back to tuples for whoever reads them
  (``rows_at``), and a flat shared-memory buffer layout
  (``buffer_bytes`` / ``write_into`` / ``from_buffer``) so process
  workers can attach without any per-row pickling.
* :func:`filter_supported` / :func:`predicate_mask` — a WHERE clause of
  ``=`` / ``<>`` comparisons as one boolean array pass per leaf, with
  ``compile_predicate``'s semantics.
* :func:`group_counts` — ``COUNT(*) ... GROUP BY`` over integer arrays
  in memory bounded by the rows counted.
* :class:`Domain` / :func:`partition_domains` — the codes each column
  of a source can take, what a scan source declares once.

numpy is a declared dependency, but this module still imports
without it and says so through :func:`columnar_available`: the SQL
executor then keeps its row-at-a-time ``_grouped_select``, and the
middleware — which has no other way to count — refuses to start.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Iterator, NamedTuple, Optional, Sequence

from .expr import And, ColumnRef, Comparison, Literal, Or, TrueExpr

try:  # pragma: no cover - numpy is present in CI; the gate is for safety
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None  # type: ignore[assignment]

#: numpy handle, typed ``Any`` so strict checking doesn't depend on stubs.
np: Any = _numpy

#: Column encodings.  RAW stores integer data (+ optional bool null
#: mask); DICT stores int32 codes into a tuple of distinct original
#: values.
RAW = "raw"
DICT = "dict"

#: Byte alignment of each array inside the flat shared-memory layout.
_ALIGN = 8


def columnar_available() -> bool:
    """True when numpy is importable and columnar scans can run."""
    return np is not None


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


class Column:
    """One column of a partition: raw integers or dict-encoded codes.

    RAW columns hold ``data`` — int8/16/32/64, the narrowest holding
    the column's range (a staged file's: its int32 records), so
    arithmetic upcasts first — plus an optional unpacked bool ``nulls``
    mask (data is 0 at null positions).  DICT columns hold
    ``data`` (int32 codes) plus ``values`` — the tuple of distinct
    original objects the codes index, which may include ``None``.
    """

    __slots__ = ("kind", "data", "values", "nulls")

    def __init__(self, kind: str, data: Any,
                 values: Optional[tuple[Any, ...]] = None,
                 nulls: Any = None) -> None:
        self.kind = kind
        self.data = data
        self.values = values
        self.nulls = nulls

    # __slots__ classes need explicit pickle support (thread pools never
    # pickle columns, but the non-shm process fallback does).
    def __getstate__(self) -> tuple[str, Any, Any, Any]:
        return (self.kind, self.data, self.values, self.nulls)

    def __setstate__(self, state: tuple[str, Any, Any, Any]) -> None:
        self.kind, self.data, self.values, self.nulls = state

    @property
    def n_rows(self) -> int:
        return int(len(self.data))

    def slice(self, start: int, stop: int) -> "Column":
        """Zero-copy view of rows ``[start, stop)``."""
        nulls = self.nulls[start:stop] if self.nulls is not None else None
        return Column(self.kind, self.data[start:stop], self.values, nulls)

    def take(self, indices: Any) -> "Column":
        """The selected rows as a new column: one fancy index, the
        kind, dictionary and null mask kept."""
        nulls = self.nulls[indices] if self.nulls is not None else None
        return Column(self.kind, self.data[indices], self.values, nulls)

    def value_at(self, row: int) -> Any:
        """Decode one row back to its original Python object."""
        if self.kind == DICT:
            assert self.values is not None
            return self.values[int(self.data[row])]
        if self.nulls is not None and bool(self.nulls[row]):
            return None
        return int(self.data[row])

    def values_at(self, indices: Any) -> list[Any]:
        """Decode the selected rows back to plain Python objects
        (through ``.tolist()``: ints and the original dictionary
        values, never numpy scalars)."""
        picked: list[Any] = self.data[indices].tolist()
        if self.kind == DICT:
            assert self.values is not None
            values = self.values
            return [values[code] for code in picked]
        if self.nulls is not None:
            flags = self.nulls[indices].tolist()
            return [
                None if is_null else value
                for value, is_null in zip(picked, flags)
            ]
        return picked

    def __repr__(self) -> str:
        return f"Column({self.kind!r}, n_rows={self.n_rows})"


def _narrowest(data: Any) -> Any:
    """Integer ``data`` in the narrowest signed dtype that holds its
    minimum and maximum, or None when not even int64 does."""
    low, high = (int(data.min()), int(data.max())) if data.size else (0, 0)
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        bounds = np.iinfo(dtype)
        if bounds.min <= low and high <= bounds.max:
            return data.astype(dtype, copy=False)
    return None


class Domain(NamedTuple):
    """The codes one column of a source can take, declared once: a RAW
    value ``v`` is ``v - low`` (``size`` codes; NULL the one above when
    ``nullable``), a DICT code itself, into ``values``."""

    low: int
    size: int
    nullable: bool
    values: Optional[tuple[Any, ...]] = None

    @property
    def width(self) -> int:
        return self.size + self.nullable

    def decoded(self) -> list[Any]:
        """The value behind each code, in code order."""
        if self.values is not None:
            return list(self.values)
        return [*range(self.low, self.low + self.size)] + [None] * self.nullable


def partition_domains(partition: "ColumnarPartition") -> tuple[Domain, ...]:
    """Every column's domain, from its data (one min / max pass)."""
    domains: list[Domain] = []
    for column in partition.columns:
        if column.values is not None:
            domains.append(Domain(0, len(column.values), False, column.values))
            continue
        live = column.data if column.nulls is None else column.data[~column.nulls]
        low = int(live.min()) if live.size else 0
        size = int(live.max()) - low + 1 if live.size else 0
        domains.append(Domain(low, size, column.nulls is not None))
    return tuple(domains)


def _encode_column(values: Sequence[Any]) -> Column:
    """Encode one column, preferring the raw integer representation.

    The probe deliberately converts *without* a target dtype: asking
    numpy for int64 directly would parse numeric strings (``"1"`` →
    ``1``), silently corrupting CC-table keys.  Only a natural integer
    dtype (kind ``i``/``u``) takes the raw path; bools (kind ``b``),
    floats, strings and object arrays all fall through to dictionary
    encoding, which preserves the original objects untouched.  Raw
    data is stored in the narrowest signed dtype holding its range
    (:func:`_narrowest`); a range beyond int64 is dictionary-encoded.
    """
    try:
        probe = np.asarray(values)
    except (ValueError, TypeError):
        probe = None
    if (probe is not None and probe.ndim == 1
            and probe.dtype.kind in ("i", "u")):
        data = _narrowest(probe)
        if data is not None:
            return Column(RAW, data)
    if all(value is None or type(value) is int for value in values):
        nulls = np.fromiter(
            (value is None for value in values), dtype=bool,
            count=len(values),
        )
        try:
            data = np.fromiter(
                (0 if value is None else value for value in values),
                dtype=np.int64, count=len(values),
            )
        except OverflowError:
            pass  # ints beyond int64 → dictionary encoding below
        else:
            return Column(RAW, _narrowest(data), nulls=nulls)
    codes_map: dict[Any, int] = {}
    distinct: list[Any] = []
    codes = np.empty(len(values), dtype=np.int32)
    for i, value in enumerate(values):
        code = codes_map.get(value)
        if code is None:
            code = len(distinct)
            codes_map[value] = code
            distinct.append(value)
        codes[i] = code
    return Column(DICT, codes, values=tuple(distinct))


def _concat_columns(pieces: Sequence[Column]) -> Column:
    """One column holding the pieces' rows end to end.

    Pieces that are all RAW, or all DICT over one dictionary (gathers
    of one encoding), join by concatenating their arrays.  Anything
    else — kinds or dictionaries that differ between pieces — is
    re-encoded from the decoded values, which is what encoding the
    rows in one go would have produced.
    """
    first = pieces[0]
    if all(piece.kind == RAW for piece in pieces):
        nulls = None
        if any(piece.nulls is not None for piece in pieces):
            nulls = np.concatenate([
                piece.nulls if piece.nulls is not None
                else np.zeros(piece.n_rows, dtype=bool)
                for piece in pieces
            ])
        return Column(
            RAW, np.concatenate([piece.data for piece in pieces]),
            nulls=nulls,
        )
    if all(piece.kind == DICT and piece.values is first.values
           for piece in pieces):
        return Column(
            DICT, np.concatenate([piece.data for piece in pieces]),
            values=first.values,
        )
    return _encode_column([
        value for piece in pieces
        for value in piece.values_at(slice(None))
    ])


class ColumnarPartition:
    """A batch of rows stored column-wise.

    Immutable once built; ``slice`` returns zero-copy views so the
    producer can carve worker partitions out of one cached encoding
    without touching row data again.
    """

    __slots__ = ("n_rows", "columns")

    def __init__(self, n_rows: int, columns: tuple[Column, ...]) -> None:
        self.n_rows = n_rows
        self.columns = columns

    def __getstate__(self) -> tuple[int, tuple[Column, ...]]:
        return (self.n_rows, self.columns)

    def __setstate__(self, state: tuple[int, tuple[Column, ...]]) -> None:
        self.n_rows, self.columns = state

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Any]]) -> "ColumnarPartition":
        """Encode a batch of row tuples one column at a time (never a
        transposed copy of all the rows)."""
        if not rows:
            return cls(0, ())
        columns = tuple(
            _encode_column(list(map(itemgetter(i), rows)))
            for i in range(len(rows[0]))
        )
        return cls(len(rows), columns)

    @classmethod
    def from_matrix(cls, matrix: Any) -> "ColumnarPartition":
        """Wrap a 2-D integer array (rows × fields) without null masks.

        This is the staged-file fast path: staged rows are packed
        int32, so one transposed copy makes every column a contiguous
        raw int32 array.
        """
        by_column = np.ascontiguousarray(matrix.T, dtype=np.int32)
        return cls(
            int(matrix.shape[0]),
            tuple(Column(RAW, data) for data in by_column),
        )

    @classmethod
    def concat(cls, pieces: Sequence["ColumnarPartition"],
               ) -> "ColumnarPartition":
        """The pieces' rows, in order, as one partition (empty pieces
        contribute nothing; no pieces make the empty partition)."""
        pieces = [piece for piece in pieces if piece.n_rows]
        if len(pieces) <= 1:
            return pieces[0] if pieces else cls(0, ())
        columns = tuple(
            _concat_columns(columns)
            for columns in zip(*(piece.columns for piece in pieces))
        )
        return cls(sum(piece.n_rows for piece in pieces), columns)

    def slice(self, start: int, stop: int) -> "ColumnarPartition":
        """Zero-copy view of rows ``[start, stop)`` (the partition
        itself when that is all of it)."""
        stop = min(stop, self.n_rows)
        if start == 0 and stop == self.n_rows:
            return self
        columns = tuple(col.slice(start, stop) for col in self.columns)
        return ColumnarPartition(stop - start, columns)

    def take(self, indices: Any) -> "ColumnarPartition":
        """Gather the selected rows into a new partition.

        How a scan hands a node's staged rows on: one fancy index per
        column (a copy, so the piece outlives the partition or segment
        it was cut from), encodings kept as they are.
        """
        columns = tuple(col.take(indices) for col in self.columns)
        return ColumnarPartition(int(len(indices)), columns)

    def rows_at(self, indices: Any) -> list[tuple[Any, ...]]:
        """Decode the selected rows back to Python tuples.

        The decode behind :meth:`rows` and
        ``StagingManager.memory_rows`` — what tests, benchmarks and
        debugging read rows back through; no scan calls it.  Decoding
        goes through ``.tolist()`` so the results are plain Python
        ints / original objects, never numpy scalars.
        """
        decoded = [col.values_at(indices) for col in self.columns]
        return list(zip(*decoded)) if decoded else []

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Decode every row, in order (test/debug convenience)."""
        if self.n_rows:
            yield from self.rows_at(np.arange(self.n_rows))

    @property
    def nbytes(self) -> int:
        """Flat-layout byte size (what one shared-memory segment — or
        one cached resident encoding — costs).  Dictionary value tuples
        ride outside the buffer and are not counted; they are small by
        construction (distinct values only)."""
        total, _ = self.layout()
        return total

    # -- flat buffer layout (shared-memory shipping) -------------------

    def layout(self) -> tuple[int, list[tuple[str, str, int, int,
                                             Optional[tuple[Any, ...]]]]]:
        """Plan the flat layout: total bytes + per-column specs.

        Each spec is ``(kind, dtype, data_offset, null_offset, values)``
        with ``null_offset == -1`` when the column has no null mask.
        Null masks travel bit-packed (``np.packbits``); everything else
        is the array's raw bytes at 8-byte alignment.
        """
        offset = 0
        specs: list[tuple[str, str, int, int, Optional[tuple[Any, ...]]]] = []
        for col in self.columns:
            data_offset = _aligned(offset)
            offset = data_offset + col.data.nbytes
            null_offset = -1
            if col.nulls is not None:
                null_offset = _aligned(offset)
                offset = null_offset + (self.n_rows + 7) // 8
            specs.append((
                col.kind, col.data.dtype.str, data_offset, null_offset,
                col.values,
            ))
        return max(1, offset), specs

    def write_into(self, buf: Any) -> list[tuple[str, str, int, int,
                                                 Optional[tuple[Any, ...]]]]:
        """Copy all column arrays into ``buf``; returns the specs."""
        _, specs = self.layout()
        view = memoryview(buf)
        for col, (kind, dtype, data_offset, null_offset, _values) in zip(
            self.columns, specs
        ):
            data = np.ascontiguousarray(col.data)
            view[data_offset:data_offset + data.nbytes] = data.tobytes()
            if null_offset >= 0:
                packed = np.packbits(
                    np.ascontiguousarray(col.nulls).view(np.uint8)
                )
                view[null_offset:null_offset + packed.nbytes] = (
                    packed.tobytes()
                )
        return specs

    @classmethod
    def from_buffer(
        cls, buf: Any, n_rows: int,
        specs: Sequence[tuple[str, str, int, int,
                              Optional[tuple[Any, ...]]]],
    ) -> "ColumnarPartition":
        """Reattach a partition over a flat buffer, zero-copy.

        The returned columns *view* ``buf`` (only the bit-packed null
        masks are unpacked into fresh arrays), so the buffer must stay
        alive — and all views must be dropped before a shared-memory
        segment backing it is closed.
        """
        columns: list[Column] = []
        for kind, dtype, data_offset, null_offset, values in specs:
            data = np.frombuffer(
                buf, dtype=np.dtype(dtype), count=n_rows,
                offset=data_offset,
            )
            nulls = None
            if null_offset >= 0:
                packed = np.frombuffer(
                    buf, dtype=np.uint8, count=(n_rows + 7) // 8,
                    offset=null_offset,
                )
                nulls = np.unpackbits(packed, count=n_rows).view(bool)
            columns.append(Column(kind, data, values=values, nulls=nulls))
        return cls(n_rows, tuple(columns))

    def __len__(self) -> int:
        return self.n_rows

    def __repr__(self) -> str:
        return (
            f"ColumnarPartition(rows={self.n_rows}, "
            f"columns={len(self.columns)})"
        )


# -- vectorised WHERE evaluation ----------------------------------------


def filter_supported(expr: Any) -> bool:
    """True when :func:`predicate_mask` can evaluate ``expr``.

    Checked at plan time: batch filters are disjunctions of
    path-condition conjunctions (``=`` / ``<>`` on one column against
    one literal), which is exactly the shape supported.  Anything else
    — another operator, a non-literal operand — is refused (the
    execution module raises, the SQL executor groups row by row)
    rather than risking a semantic drift from
    :func:`repro.sqlengine.expr.compile_predicate`.
    """
    if expr is None or isinstance(expr, TrueExpr):
        return True
    if isinstance(expr, (And, Or)):
        return all(filter_supported(part) for part in expr.parts)
    return (
        isinstance(expr, Comparison)
        and expr.op in ("=", "<>")
        and isinstance(expr.left, ColumnRef)
        and isinstance(expr.right, Literal)
    )


def integral(value: Any) -> Optional[int]:
    """The int equal to ``value`` under Python's ``==`` (``1.0`` and
    ``True`` are ``1``), or None when no int is: what a RAW cell must
    hold to equal ``value``."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return number if number == value else None


def _comparison_mask(partition: ColumnarPartition, expr: Any,
                     attr_index: dict[str, int]) -> Any:
    """Boolean qualification mask for one ``column op literal`` leaf.

    Replicates ``compile_predicate`` semantics exactly: a NULL on
    either side never qualifies (``=`` *and* ``<>`` both return False
    for NULL operands), and equality is Python equality — a string
    literal never equals an integer column value, but ``<>`` against a
    differently-typed live value does hold.
    """
    position = attr_index[expr.left.name]
    column = partition.columns[position]
    value = expr.right.value
    n = partition.n_rows
    if value is None:
        return np.zeros(n, dtype=bool)
    if column.kind == DICT:
        assert column.values is not None
        if expr.op == "=":
            flags = [v is not None and v == value for v in column.values]
        else:
            flags = [v is not None and v != value for v in column.values]
        lut = np.asarray(flags, dtype=bool)
        return lut[column.data]
    live = (
        np.ones(n, dtype=bool) if column.nulls is None else ~column.nulls
    )
    number = integral(value)
    eq = np.zeros(n, dtype=bool)
    if number is not None and -(1 << 63) <= number < 1 << 63:
        eq = column.data == np.int64(number)
    if expr.op == "=":
        return eq & live
    return live & ~eq


def predicate_mask(partition: ColumnarPartition, expr: Any,
                   attr_index: dict[str, int]) -> Any:
    """Boolean keep mask: which partition rows satisfy ``expr``.

    The SQL executor's vectorized ``COUNT(*) ... GROUP BY`` applies its
    WHERE clause here, one pass per predicate leaf (a middleware scan's
    route keeps the rows of its pushed filter itself).  Only shapes
    accepted by :func:`filter_supported` are evaluated.
    """
    if expr is None or isinstance(expr, TrueExpr):
        return np.ones(partition.n_rows, dtype=bool)
    if partition.n_rows == 0:
        # An empty encoding has no columns to index into (staged
        # files can legitimately be empty).
        return np.zeros(0, dtype=bool)
    if isinstance(expr, And):
        mask = np.ones(partition.n_rows, dtype=bool)
        for part in expr.parts:
            mask &= predicate_mask(partition, part, attr_index)
        return mask
    if isinstance(expr, Or):
        mask = np.zeros(partition.n_rows, dtype=bool)
        for part in expr.parts:
            mask |= predicate_mask(partition, part, attr_index)
        return mask
    if isinstance(expr, Comparison):
        return _comparison_mask(partition, expr, attr_index)
    raise TypeError(f"unsupported filter expression: {expr!r}")


# -- vectorised COUNT(*) ... GROUP BY --------------------------------------


def _ordered_codes(values: Any, bound: int) -> tuple[Any, int]:
    """Order-preserving codes in ``[0, width)``, ``width <= bound``.

    A value range within ``bound`` is shifted to zero — in int64, so a
    narrow column's ``127 - -128`` does not wrap; anything sparser
    (``{0, 2**40}``) is ranked by sorting, which yields at most one
    code per row.
    """
    low = int(values.min())
    width = int(values.max()) - low + 1
    if width <= bound:
        return np.subtract(values, low, dtype=np.int64), width
    distinct, ranks = np.unique(values, return_inverse=True)
    return ranks, int(distinct.size)


def group_counts(columns: Sequence[Any]) -> tuple[list[list[int]], list[int]]:
    """``COUNT(*) ... GROUP BY`` over equal-length, non-empty integer arrays.

    Returns ``(keys, counts)``: ``keys[i]`` lists column ``i``'s value
    in every distinct key tuple and ``counts`` the rows sharing that
    tuple, ordered by key tuple ascending.  The columns fold into one
    composite code that is re-ranked whenever its span outgrows a
    small multiple of the row count, so memory follows the rows
    counted, never the value range or the number of columns.
    """
    n = int(columns[0].size)
    bound = 4 * n + 64
    codes, span = _ordered_codes(columns[0], bound)
    for values in columns[1:]:
        ranks, width = _ordered_codes(values, bound)
        codes = codes * width + ranks  # < bound ** 2: no int64 overflow
        span *= width
        if span > bound:
            distinct, codes = np.unique(codes, return_inverse=True)
            span = int(distinct.size)
    counts = np.bincount(codes, minlength=span)
    present = np.flatnonzero(counts)
    # Any row of a group spells its key: whichever write wins below,
    # the values read back through it are the same.
    witness = np.empty(span, dtype=np.intp)
    witness[codes] = np.arange(n)
    rows = witness[present]
    return (
        [values[rows].tolist() for values in columns],
        counts[present].tolist(),
    )
