"""Server cursors — the middleware's bulk data path.

Two cursor flavours from the paper:

* :class:`ForwardCursor` — a firehose read-only cursor with an optional
  pushed WHERE filter (Section 4.3.1).  The server reads every page of
  the table; only qualifying rows pay transfer cost.  This is how the
  middleware performs its single-scan counting.
* :class:`KeysetCursor` — Section 4.3.3(c): the key set (TID list) is
  captured at open time for an initial predicate; later fetches rescan
  only the keyset, applying a *current* filter server-side before
  transmitting ("stored procedure applies the filters on the results
  obtained by the cursor").

The module-level ``*_charge`` functions are the one place each cursor
price is written.  The streaming methods below charge through them,
and so does the middleware when it serves the same scan from a cached
encoding or quotes it as an estimate (``meter=None`` prices without
charging) — a scan costs the same however it is executed.
"""

from __future__ import annotations

from itertools import islice
from types import TracebackType
from typing import Any, Callable, Iterable, Iterator, Optional

from ..common.cost import CostMeter, CostModel
from ..common.errors import CursorStateError
from .expr import Expr, compile_predicate
from .heap import TID, HeapTable
from .types import Row


def cursor_open_charge(model: CostModel,
                       meter: Optional[CostMeter] = None) -> float:
    """The fixed fee of opening a server cursor."""
    if meter is not None:
        meter.charge("cursor", model.cursor_open)
    return model.cursor_open


def page_scan_charge(model: CostModel, table: HeapTable,
                     meter: Optional[CostMeter] = None) -> float:
    """Reading every page of ``table`` once."""
    pages = table.pages_touched()
    amount = model.server_page_io * pages
    if meter is not None:
        meter.charge("server_io", amount, events=pages)
    return amount


def forward_scan_charge(model: CostModel, table: HeapTable,
                        meter: Optional[CostMeter] = None) -> float:
    """One forward-cursor scan before transfer: open fee + every page."""
    return (cursor_open_charge(model, meter)
            + page_scan_charge(model, table, meter))


def keyset_charge(model: CostModel, n_keys: int,
                  meter: Optional[CostMeter] = None) -> float:
    """One keyset refetch: the stored-proc filter sees every key."""
    amount = model.keyset_row * n_keys
    if meter is not None:
        meter.charge("keyset", amount, events=n_keys)
    return amount


def charge_transfer(meter: CostMeter, model: CostModel,
                    n_rows: int) -> None:
    """Shipping a scan's ``n_rows`` qualifying rows to the middleware."""
    meter.charge("transfer", model.transfer_per_row * n_rows, events=n_rows)


def live_rows(table: HeapTable, tids: Iterable[TID]) -> Iterator[Row]:
    """The live rows behind a TID list, skipping tombstones (unmetered)."""
    for tid in tids:
        row = table.fetch_or_none(tid)
        if row is not None:
            yield row


def transfer_matching(rows: Iterable[Row], predicate: Callable[[Row], Any],
                      meter: CostMeter, model: CostModel) -> Iterator[Row]:
    """Yield the rows satisfying ``predicate``, then charge their transfer.

    Every streaming scan path ends in this loop.  The charge lands
    when the stream is drained; a stream abandoned early ships (and
    pays for) nothing.
    """
    transferred = 0
    for row in rows:
        if predicate(row):
            transferred += 1
            yield row
    charge_transfer(meter, model, transferred)


class ForwardCursor:
    """Streaming scan of one table with a server-applied filter."""

    def __init__(self, table: HeapTable, meter: CostMeter,
                 model: CostModel, predicate: Optional[Expr] = None) -> None:
        self._table = table
        self._meter = meter
        self._model = model
        self._predicate_expr = predicate
        self._open = True
        cursor_open_charge(model, meter)

    @property
    def is_open(self) -> bool:
        return self._open

    def rows(self) -> Iterator[Row]:
        """Yield qualifying rows; charges page I/O and transfer."""
        if not self._open:
            raise CursorStateError("cursor is closed")
        predicate = compile_predicate(
            self._predicate_expr, self._table.schema
        )
        page_scan_charge(self._model, self._table, self._meter)
        yield from transfer_matching(
            self._table.scan_rows(), predicate, self._meter, self._model
        )

    def partitions(self, partition_rows: int) -> Iterator[Any]:
        """Yield qualifying rows as :class:`ColumnarPartition` batches.

        :meth:`rows`, batched.  Only a name: nothing calls it, but
        ``benchmarks/e2e/trace.py``'s frozen patch table still lists
        ``ForwardCursor.partitions``.  The next ``[benchmark]`` PR
        drops both.  Requires numpy.
        """
        from ..common.errors import SQLError
        from .columnar import ColumnarPartition, columnar_available

        if not columnar_available():
            raise SQLError("columnar cursor scans need numpy")
        if partition_rows < 1:
            raise ValueError("partition_rows must be positive")
        rows = self.rows()
        while batch := list(islice(rows, partition_rows)):
            yield ColumnarPartition.from_rows(batch)

    def close(self) -> None:
        self._open = False

    def __enter__(self) -> "ForwardCursor":
        return self

    def __exit__(self, exc_type: Optional[type],
                 exc_value: Optional[BaseException],
                 traceback: Optional[TracebackType]) -> bool:
        self.close()
        return False


class KeysetCursor:
    """TID keyset captured at open; refetches filter server-side.

    ``open_predicate`` defines the keyset (the relevant subset D' of the
    paper).  Each :meth:`fetch` walks the keyset — charging a cheap
    per-key evaluation — and transmits only rows matching the fetch-time
    filter, exactly the stored-procedure trick of Section 4.3.3(c).
    """

    def __init__(self, table: HeapTable, meter: CostMeter,
                 model: CostModel,
                 open_predicate: Optional[Expr] = None) -> None:
        self._table = table
        self._meter = meter
        self._model = model
        self._open = True
        cursor_open_charge(model, meter)

        # Capturing the keyset costs a full scan.
        predicate = compile_predicate(open_predicate, table.schema)
        page_scan_charge(model, table, meter)
        self._tids = [tid for tid, row in table.scan() if predicate(row)]

    @property
    def is_open(self) -> bool:
        return self._open

    @property
    def keyset_size(self) -> int:
        return len(self._tids)

    @property
    def tids(self) -> tuple[Any, ...]:
        """The captured keyset, in capture order (read-only view).

        Exposed for the columnar scan planner, which encodes the
        keyset's live rows once and serves later fetches from cache.
        """
        return tuple(self._tids)

    def fetch(self,
              filter_predicate: Optional[Expr] = None) -> Iterator[Row]:
        """Yield keyset rows matching ``filter_predicate`` (server-side)."""
        if not self._open:
            raise CursorStateError("cursor is closed")
        predicate = compile_predicate(filter_predicate, self._table.schema)
        keyset_charge(self._model, len(self._tids), self._meter)
        yield from transfer_matching(
            live_rows(self._table, self._tids), predicate,
            self._meter, self._model,
        )

    def close(self) -> None:
        self._open = False

    def __enter__(self) -> "KeysetCursor":
        return self

    def __exit__(self, exc_type: Optional[type],
                 exc_value: Optional[BaseException],
                 traceback: Optional[TracebackType]) -> bool:
        self.close()
        return False
