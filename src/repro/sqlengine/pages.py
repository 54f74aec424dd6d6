"""Slotted pages for heap storage.

Pages exist so the cost model can charge server I/O per *page* rather
than per row, exactly as a real scan would: a table of N rows with
``rows_per_page`` slots costs ``ceil(N / rows_per_page)`` page reads to
scan regardless of how selective the pushed filter is.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .types import Row

DEFAULT_PAGE_BYTES = 8192


class Page:
    """A fixed-capacity container of row tuples."""

    __slots__ = ("capacity", "rows")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("page capacity must be at least one row")
        self.capacity = capacity
        # A slot holds None once its row is tombstoned (see HeapTable).
        self.rows: list[Optional[Row]] = []

    @property
    def full(self) -> bool:
        return len(self.rows) >= self.capacity

    def append(self, row: Row) -> int:
        """Add ``row``; returns its slot number. Raises when full."""
        if self.full:
            raise ValueError("page is full")
        self.rows.append(row)
        return len(self.rows) - 1

    def tombstone(self, slot: int) -> Row:
        """Clear ``slot``; returns the row that lived there.

        Raises :class:`LookupError` when the slot is already a
        tombstone (matching :meth:`HeapTable.delete` semantics).
        """
        row = self.rows[slot]
        if row is None:
            raise LookupError(f"slot {slot} is already a tombstone")
        self.rows[slot] = None
        return row

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Optional[Row]]:
        return iter(self.rows)

    def live_rows(self) -> list[Row]:
        """The page's rows with tombstoned slots skipped."""
        return [row for row in self.rows if row is not None]


def rows_per_page(row_bytes: int,
                  page_bytes: int = DEFAULT_PAGE_BYTES) -> int:
    """How many rows of ``row_bytes`` fit on one page (at least one)."""
    if row_bytes < 1:
        raise ValueError("row width must be at least one byte")
    return max(1, page_bytes // row_bytes)
