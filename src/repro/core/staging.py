"""Data staging: server → middleware file system → middleware memory.

As the tree grows, the relevant data set shrinks monotonically, so the
middleware copies ("stages") data downwards (Section 4.1.2):

* **FILE** — a node's rows are written to a middleware staging file;
  scanning it is much cheaper than a server scan, but still reads the
  *whole* file.  Files can be *split* (Section 4.3.2): when the active
  nodes being served cover a small fraction of a file, fresh per-node
  files are written so future scans read less.
* **MEMORY** — a node's rows are loaded into middleware memory,
  accounted against the same :class:`~repro.common.memory.MemoryBudget`
  as CC tables; scans become nearly free.

Staging files are real files: fixed-width little-endian int32 records
under a temporary directory, one file per staged node.

Staged rows are column arrays in both directions.  A scan hands a
node's rows on as *pieces* — :class:`ColumnarPartition` gathers of the
partition they were routed in, appended by the scan's coordinator in
partition order on every executor: a file takes each piece as one
int32 record matrix and one ``write``, a memory set is the pieces
concatenated once at :meth:`StagingManager.commit_memory`, which is
the encoding every later scan of the set slices.  A FILE scan reads a
partition's records into one matrix with one read.  Row tuples exist
only for whoever asks for them: :meth:`StagedFile.scan` (the metered
reference reader) and :meth:`StagingManager.memory_rows`.

Each staged source declares its column domains once, for the counting
kernel's dense key space: a file at :meth:`StagedFile.seal` (the
running min / max of the records it wrote), a memory set at commit.

A memory set also tags each row with the node served from it that
holds it (:class:`RowTags`, the tag route): commit narrows its RAW
columns, then tags a set whose tags fit in its charge.  Files are not.
"""

from __future__ import annotations

import enum
import itertools
import operator
import os
import struct
import tempfile

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..common.errors import StagingError
from ..common.locks import resource_closed, resource_created
from ..sqlengine.columnar import (
    RAW,
    Column,
    ColumnarPartition,
    Domain,
    _narrowest,
    columnar_available,
    np,
    partition_domains,
)


class DataLocation(enum.IntEnum):
    """Where a node's data currently lives (ordered worst to best)."""

    SERVER = 0
    FILE = 1
    MEMORY = 2

    @property
    def tag(self) -> str:
        """The paper's single-letter node prefix (Fig. 1): S / I / L."""
        return {self.SERVER: "S", self.FILE: "I", self.MEMORY: "L"}[self]


_INT32_MIN, _INT32_MAX = -(1 << 31), (1 << 31) - 1


def _int32_values(column: Column) -> tuple[Any, Any]:
    """A column as the integers ``struct.pack("<i", v)`` would write,
    plus a mask of the rows it would refuse: NULL, anything without
    ``__index__`` (a string, a float) and integers outside int32."""
    if column.kind == RAW:
        data = column.data
        refused = (data < _INT32_MIN) | (data > _INT32_MAX)
        if column.nulls is not None:
            refused |= column.nulls
        return data, refused
    # Dictionary-encoded: decide once per distinct value.
    assert column.values is not None
    numbers = np.zeros(len(column.values), dtype=np.int64)
    unfit = np.ones(len(column.values), dtype=bool)
    for code, value in enumerate(column.values):
        try:
            number = operator.index(value)
        except TypeError:
            continue
        if _INT32_MIN <= number <= _INT32_MAX:
            numbers[code] = number
            unfit[code] = False
    return numbers[column.data], unfit[column.data]


class StagedFile:
    """One middleware staging file holding a node's rows.

    Records are fixed-width little-endian int32.  A write is one
    record matrix per piece (:meth:`append_rows`), a columnar read one
    matrix per block of the caller's size (:meth:`scan_blocks`);
    :meth:`scan` is the row-at-a-time reference reader, decoding
    :data:`BLOCK_ROWS`-record blocks with ``struct.iter_unpack``.
    Cost metering is by row count: the simulated per-row file I/O
    charges are exactly what a record-at-a-time implementation
    charges.
    """

    #: Records :meth:`scan` fetches per ``read``.
    BLOCK_ROWS = 1024

    #: Process-wide uid source; never reused, so a cache entry keyed
    #: by uid can only ever refer to this file object.
    _UIDS = itertools.count(1)

    def __init__(self, path: str, n_fields: int, owner_node: Any,
                 meter: Any, model: Any,
                 field_names: Sequence[str] = ()) -> None:
        #: Stable identity for scan-side caches.  Paths can be reused
        #: after a drop (the staging dir is shared); uids cannot.
        self.uid = next(StagedFile._UIDS)
        self._path = path
        self._n_fields = n_fields
        self._struct = struct.Struct(f"<{n_fields}i")
        self.owner_node = owner_node
        #: Column names, for error messages (positions when not given).
        self._field_names = tuple(field_names) or tuple(range(n_fields))
        self._meter = meter
        self._model = model
        self._row_count = 0
        #: Per written piece, its fields' minima and maxima.
        self._extremes: list[Any] = []
        #: Each field's Domain, declared at :meth:`seal`.
        self.domains: tuple[Domain, ...] = ()
        self._handle = open(path, "wb")
        self._writing = True
        #: Scans currently iterating this file (guards `delete`).
        self._active_scans = 0
        #: ``append``/``append_rows`` calls that actually added rows
        #: (observability; a zero-row append must never bump this).
        self.write_calls = 0
        # The open write handle is a witnessed resource: it is retired
        # by seal() (clean) or delete() (abandoned); a staged file the
        # scan opened and then forgot is a sanitizer leak finding.
        resource_created("staged-file", self, f"owner={owner_node!r}")

    @property
    def path(self) -> str:
        return self._path

    @property
    def row_count(self) -> int:
        return self._row_count

    def append(self, row: Sequence[int]) -> None:
        """Write one row (a one-row :meth:`append_rows`)."""
        self.append_rows([row])

    def append_rows(
            self, rows: ColumnarPartition | Iterable[Sequence[Any]]) -> None:
        """Write one piece of rows as one block of records.

        ``rows`` is a :class:`ColumnarPartition` (what a scan stages)
        or any iterable of row tuples, which is encoded first — so
        there is one path from values to bytes.  The piece is checked
        as a whole *before* any byte of it is written: a value an
        int32 record cannot hold raises :class:`StagingError` naming
        it and leaves the file as it was.

        An empty piece is a strict no-op: a zero-row split partition
        must not bump the write counter or change what :meth:`seal`
        will meter — so serial and parallel scans (whose partitioning
        can hand a writer empty slices) account identically.
        """
        if not self._writing:
            raise StagingError("staged file is already sealed")
        if not isinstance(rows, ColumnarPartition):
            rows = ColumnarPartition.from_rows(list(rows))
        if not rows.n_rows:
            return
        records, ends = self._records(rows)
        self._handle.write(records)
        self._extremes.append(ends)
        self._row_count += rows.n_rows
        self.write_calls += 1

    def _records(self, piece: ColumnarPartition) -> Any:
        """The piece as a C-ordered ``(rows, n_fields)`` ``<i4`` matrix —
        byte for byte what ``struct.pack`` makes of its rows — and each
        field's minimum and maximum."""
        n_fields = self._n_fields
        if len(piece.columns) != n_fields:
            raise StagingError(
                f"node {self.owner_node!r}: a staged record has "
                f"{n_fields} fields, the rows have {len(piece.columns)}"
            )
        records = np.empty((piece.n_rows, n_fields), dtype="<i4")
        ends = np.empty((2, n_fields), dtype=np.int64)
        for position, column in enumerate(piece.columns):
            values, refused = _int32_values(column)
            if refused.any():
                row = int(np.argmax(refused))
                raise StagingError(
                    f"node {self.owner_node!r}: column "
                    f"{self._field_names[position]!r} holds "
                    f"{column.value_at(row)!r}, which does not fit a "
                    "staged int32 record"
                )
            records[:, position] = values
            ends[:, position] = values.min(), values.max()
        return records, ends

    def seal(self) -> None:
        """Finish writing, declare the file's column domains and charge
        the accumulated write cost."""
        if self._writing:
            self._handle.close()
            self._writing = False
            resource_closed("staged-file", self)
            ends = np.array(self._extremes or [[[0] * self._n_fields,
                                                [-1] * self._n_fields]])
            self.domains = tuple(
                Domain(low, high - low + 1, False) for low, high in zip(
                    ends[:, 0].min(axis=0).tolist(),
                    ends[:, 1].max(axis=0).tolist())
            )
            self._meter.charge(
                "file_write",
                self._model.file_write_row * self._row_count,
                events=self._row_count,
            )

    def _begin_scan(self) -> None:
        """Determinism guard of every read: the file must be sealed
        first, so a scan sees exactly the committed ``row_count`` rows."""
        if self._writing:
            raise StagingError("seal the file before scanning it")
        self._active_scans += 1

    def _torn(self, rows_read: int) -> StagingError:
        return StagingError(
            f"staged file {self._path!r} is torn: it ends after "
            f"{rows_read} of its {self._row_count} committed rows"
        )

    def scan(self) -> Iterator[tuple[int, ...]]:
        """Yield all rows; charges per-row file-read cost.

        The metered reference reader.  Several scans may iterate
        concurrently — each opens its own handle and meters its own
        rows — but the file cannot be deleted while any of them is
        active.  A file that ends before its committed row count is
        refused rather than yielded as a torn row set.
        """
        record = self._struct
        block = record.size * self.BLOCK_ROWS
        rows_read = 0
        self._begin_scan()
        try:
            with open(self._path, "rb") as handle:
                while rows_read < self._row_count:
                    chunk = handle.read(block)
                    usable = len(chunk) - len(chunk) % record.size
                    if not usable:
                        raise self._torn(rows_read)
                    for row in record.iter_unpack(chunk[:usable]):
                        rows_read += 1
                        yield row
        finally:
            self._active_scans -= 1
            self._charge_read(rows_read)

    def scan_blocks(self, block_rows: int | None = None) -> Iterator[Any]:
        """Yield the records as ``(rows, n_fields)`` int32 matrices of
        ``block_rows`` rows (the whole file in one by default), each
        filled by one read — the columnar scan path.

        Same guards, same concurrency accounting and — crucially — the
        same simulated metering as :meth:`scan`: the per-row file-read
        charge accrues in the ``finally`` for exactly the rows read.
        """
        if not columnar_available():
            raise StagingError("columnar scans need numpy")
        n_fields = self._n_fields
        rows_read = 0
        self._begin_scan()
        try:
            with open(self._path, "rb") as handle:
                while rows_read < self._row_count:
                    n_rows = self._row_count - rows_read
                    if block_rows is not None:
                        n_rows = min(n_rows, block_rows)
                    matrix = np.empty((n_rows, n_fields), dtype="<i4")
                    if handle.readinto(matrix) != matrix.nbytes:
                        raise self._torn(rows_read)
                    rows_read += n_rows
                    yield matrix
        finally:
            self._active_scans -= 1
            self._charge_read(rows_read)

    def charge_cached_read(self) -> None:
        """Meter one full scan's read cost without touching the disk.

        A scan served from a cached columnar encoding of this file must
        cost exactly what :meth:`scan` / :meth:`scan_blocks` would have
        charged — the cache is a wall-clock optimisation, never a cost-
        model change (see ``docs/cost_model.md``).
        """
        self._charge_read(self._row_count)

    def _charge_read(self, rows: int) -> None:
        """The one ``file_read`` price: ``rows`` staged rows read."""
        self._meter.charge(
            "file_read", self._model.file_row_io * rows, events=rows
        )

    def delete(self) -> None:
        """Remove the file from disk."""
        if self._active_scans:
            raise StagingError(
                f"cannot delete {self._path!r}: "
                f"{self._active_scans} scan(s) still active"
            )
        if self._writing:
            self._handle.close()
            self._writing = False
            resource_closed("staged-file", self)
        if os.path.exists(self._path):
            os.remove(self._path)

    def __repr__(self) -> str:
        return (
            f"StagedFile(owner={self.owner_node!r}, rows={self._row_count})"
        )


class RowTags:
    """Per row of a memory set, its tag (``rows``): the deepest node
    served from the set holding it (a leaf's or deferred child's rows
    keep their parent's); ``nodes`` maps node ids, ``paths`` tags."""

    __slots__ = ("rows", "nodes", "paths")

    def __init__(self, node_id: Any, path: tuple[Any, ...], n_rows: int) -> None:
        self.rows = np.zeros(n_rows, dtype=np.int32)
        self.nodes = {node_id: 0}
        self.paths = [path]

    def route(self, groups: Mapping[int, Sequence[tuple[int, Any]]],
              partition: ColumnarPartition, domains: Sequence[Domain],
              attr_index: Mapping[str, int], n_slots: int) -> Any:
        """Each row's slot, ``lut[tag, code]`` (``n_slots``: none), or
        None when no LUT can say it: ``groups`` maps a parent's tag to
        its children's ``(slot, last edge condition)``; its LUT row sends
        each code of their attribute (NULL its own) where the routing
        kernel's dict semantics would: ``=`` its value's, ``<>`` others."""
        positions, bases, lut, code_of = [], [], [], {}
        for children in groups.values():
            (attribute, *more) = {c.attribute for _, c in children}
            position = attr_index[attribute]
            domain = domains[position]
            if more or domain.width > 4 * partition.n_rows + 64:
                return None  # two split attributes; a sparse domain
            if position not in code_of:
                code_of[position] = {v: c for c, v in enumerate(domain.decoded())}
            row = [n_slots] * domain.width
            for slot, condition in children:
                code = code_of[position].get(condition.value)
                for c in ({code} - {None} if condition.op == "=" else
                          set(range(domain.width)) - {code}):
                    if row[c] != n_slots:
                        return None  # a value two children claim
                    row[c] = slot
            positions.append(position)
            bases.append(len(lut))
            lut += row
        group = np.full(len(self.paths), len(groups), dtype=np.intp)
        group[list(groups)] = np.arange(len(groups))
        group = group[self.rows]
        live = np.flatnonzero(group < len(groups))
        attr, index = np.array(positions)[group[live]], np.array(bases)[group[live]]
        for position in set(positions):
            picked = np.flatnonzero(attr == position)
            column, rows = partition.columns[position], live[picked]
            code = column.data[rows] - np.intp(domains[position].low)
            if column.nulls is not None:
                code[column.nulls[rows]] = domains[position].size
            index[picked] += code
        routes = np.full(partition.n_rows, n_slots, dtype=np.intp)
        routes[live] = np.array(lut)[index]
        return routes

    def retag(self, routes: Any, states: Sequence[Any]) -> None:
        """Each served (not deferred) slot's rows take its node's tag."""
        tag_of_slot = np.full(len(states) + 1, -1, dtype=np.int32)
        for slot, state in enumerate(states):
            if not state.deferred:
                self.nodes[state.request.node_id] = tag_of_slot[slot] = len(self.paths)
                self.paths.append(state.request.conditions)
        new = tag_of_slot[routes]
        np.copyto(self.rows, new, where=new >= 0)


class StagingManager:
    """Tracks which nodes have staged data and where."""

    def __init__(self, spec: Any, meter: Any, model: Any, budget: Any,
                 staging_dir: str | None = None,
                 file_budget_bytes: int | None = None) -> None:
        self._spec = spec
        self._meter = meter
        self._model = model
        self._budget = budget
        self._file_budget = file_budget_bytes
        self._files: dict[Any, StagedFile] = {}
        #: Each in-memory data set as one columnar encoding, which
        #: every scan of the set slices zero-copy.
        self._memory: dict[Any, ColumnarPartition] = {}
        #: Each set's column domains, computed once at commit.
        self.memory_domains: dict[Any, tuple[Domain, ...]] = {}
        #: Each set's row tags (none for a set without room for them).
        self.memory_tags: dict[Any, RowTags] = {}
        #: Called with each StagedFile as it is dropped/abandoned, so
        #: scan-side caches can evict that file's encoding eagerly.
        self._drop_listeners: list[Callable[[StagedFile], None]] = []
        self._n_fields = spec.n_attributes + 1
        self._row_bytes = spec.row_bytes
        self._file_counter = 0
        self._tempdir: tempfile.TemporaryDirectory[str] | None
        if staging_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="repro-stage-")
            self._dir = self._tempdir.name
        else:
            self._tempdir = None
            self._dir = staging_dir
            os.makedirs(staging_dir, exist_ok=True)

    # -- budgets -----------------------------------------------------------

    @property
    def file_bytes_used(self) -> int:
        """Simulated bytes currently staged in files."""
        return sum(f.row_count * self._row_bytes for f in self._files.values())

    def file_space_for(self, n_rows: int) -> bool:
        """True if a file of ``n_rows`` fits the file-space budget."""
        if self._file_budget is None:
            return True
        needed = n_rows * self._row_bytes
        return self.file_bytes_used + needed <= self._file_budget

    def memory_bytes_for(self, n_rows: int) -> int:
        """Simulated bytes to hold ``n_rows`` in middleware memory."""
        return n_rows * self._row_bytes

    # -- lookup ------------------------------------------------------------

    def resolve(self, request: Any) -> tuple[DataLocation, Any]:
        """Best data source for ``request``: ``(location, source_node)``.

        Rule 1 ordering: an in-memory ancestor beats any file, a file
        beats the server.  Among several staged ancestors of the same
        tier, the *nearest* (deepest) one wins — its data set is the
        smallest superset of the node's.
        """
        for node_id in reversed(request.lineage):
            if node_id in self._memory:
                return DataLocation.MEMORY, node_id
        for node_id in reversed(request.lineage):
            if node_id in self._files:
                return DataLocation.FILE, node_id
        return DataLocation.SERVER, None

    def columnar_memory(self, node_id: Any) -> ColumnarPartition:
        """A node's in-memory data set: the encoding scans count over."""
        try:
            return self._memory[node_id]
        except KeyError:
            raise StagingError(f"no memory data staged for {node_id!r}") from None

    def memory_rows(self, node_id: Any) -> list[Any]:
        """A node's in-memory rows decoded to tuples, in staged order
        (a fresh list per call: for tests and tools, not for scans)."""
        return list(self.columnar_memory(node_id).rows())

    def file_for(self, node_id: Any) -> StagedFile:
        try:
            return self._files[node_id]
        except KeyError:
            raise StagingError(f"no file staged for {node_id!r}") from None

    def memory_nodes(self) -> list[Any]:
        return sorted(self._memory, key=str)

    def file_nodes(self) -> list[Any]:
        return sorted(self._files, key=str)

    # -- staging writes ------------------------------------------------------

    def open_file(self, node_id: Any) -> StagedFile:
        """Create (and register) a staging file for ``node_id``."""
        if node_id in self._files:
            raise StagingError(f"{node_id!r} already has a staged file")
        self._file_counter += 1
        path = os.path.join(self._dir, f"stage_{self._file_counter}.rows")
        staged = StagedFile(
            path, self._n_fields, node_id, self._meter, self._model,
            (*self._spec.attribute_names, self._spec.class_name),
        )
        self._files[node_id] = staged
        return staged

    def add_drop_listener(self,
                          listener: Callable[[StagedFile], None]) -> None:
        """Register a callback fired whenever a staged file is dropped."""
        self._drop_listeners.append(listener)

    def _notify_dropped(self, staged: StagedFile) -> None:
        for listener in self._drop_listeners:
            listener(staged)

    def abandon_file(self, node_id: Any) -> None:
        """Drop a file opened this scan (e.g. budget raced); deletes it."""
        staged = self._files.pop(node_id, None)
        if staged is not None:
            staged.delete()
            self._notify_dropped(staged)

    def reserve_memory(self, node_id: Any, n_rows: int) -> bool:
        """Try to reserve budget for ``n_rows`` of ``node_id``'s data."""
        nbytes = self.memory_bytes_for(n_rows)
        return self._budget.try_reserve(_data_tag(node_id), nbytes)

    def commit_memory(self, node_id: Any,
                      pieces: Sequence[ColumnarPartition],
                      conditions: tuple[Any, ...] = ()) -> None:
        """Install the pieces a scan captured, in order, as the node's
        data set (concatenated once, RAW columns narrowed, its domains
        declared and every row tagged with the node, whose path is
        ``conditions``, here); charges load cost.  An empty set, or one
        whose narrowed columns leave no room in its charge for an int32
        tag a row, is not tagged (its scans take the path route)."""
        if node_id in self._memory:
            raise StagingError(f"{node_id!r} already staged in memory")
        table = ColumnarPartition.concat(pieces)
        table = ColumnarPartition(table.n_rows, tuple(
            Column(RAW, _narrowest(column.data), nulls=column.nulls)
            if column.kind == RAW else column for column in table.columns
        ))
        self._budget.resize(
            _data_tag(node_id), self.memory_bytes_for(table.n_rows)
        )
        self._memory[node_id] = table
        self.memory_domains[node_id] = partition_domains(table)
        held = sum(c.data.nbytes + getattr(c.nulls, "nbytes", 0)
                   for c in table.columns) + 4 * table.n_rows
        if table.n_rows and held <= self.memory_bytes_for(table.n_rows):
            self.memory_tags[node_id] = RowTags(node_id, conditions, table.n_rows)
        self._meter.charge(
            "memory_load",
            self._model.memory_load_row * table.n_rows,
            events=table.n_rows,
        )

    def cancel_memory_reservation(self, node_id: Any) -> None:
        """Release a reservation that was never committed."""
        self._budget.release(_data_tag(node_id))

    def drop_memory(self, node_id: Any) -> None:
        """Evict a node's in-memory data set."""
        self._memory.pop(node_id, None)
        self.memory_domains.pop(node_id, None)
        self.memory_tags.pop(node_id, None)
        self._budget.release(_data_tag(node_id))

    def drop_file(self, node_id: Any) -> None:
        """Delete a node's staging file."""
        staged = self._files.pop(node_id, None)
        if staged is not None:
            staged.delete()
            self._notify_dropped(staged)

    # -- lifecycle ------------------------------------------------------------

    def garbage_collect(self, pending_requests: Iterable[Any]) -> list[Any]:
        """Drop staged data no pending request resolves to.

        Called at scheduling time, when the client has queued every
        child of the nodes it consumed (Fig. 3's loop guarantees this),
        so "no pending request resolves here" means the subtree is
        either finished or better served by a nearer staged set.
        Returns the node ids dropped.
        """
        needed: set[tuple[DataLocation, Any]] = set()
        for request in pending_requests:
            location, source = self.resolve(request)
            if location is not DataLocation.SERVER:
                needed.add((location, source))
        dropped: list[Any] = []
        for node_id in list(self._memory):
            if (DataLocation.MEMORY, node_id) not in needed:
                self.drop_memory(node_id)
                dropped.append(node_id)
        for node_id in list(self._files):
            if (DataLocation.FILE, node_id) not in needed:
                self.drop_file(node_id)
                dropped.append(node_id)
        return dropped

    def evict_memory_except(self, keep_node: Any) -> int:
        """Evict all in-memory data sets except ``keep_node``.

        Last-resort path when CC tables for the next batch cannot be
        reserved at all; returns bytes freed.
        """
        freed = 0
        for node_id in list(self._memory):
            if node_id != keep_node:
                freed += self._budget.reserved(_data_tag(node_id))
                self.drop_memory(node_id)
        return freed

    def close(self) -> None:
        """Delete every staged file and release memory reservations."""
        for node_id in list(self._files):
            self.drop_file(node_id)
        for node_id in list(self._memory):
            self.drop_memory(node_id)
        if self._tempdir is not None:
            self._tempdir.cleanup()
            self._tempdir = None

    def __repr__(self) -> str:
        return (
            f"StagingManager(files={len(self._files)}, "
            f"memory_sets={len(self._memory)})"
        )


def _data_tag(node_id: Any) -> str:
    """Budget reservation tag for a node's staged in-memory data."""
    return f"data:{node_id}"
