"""Server-side auxiliary structures from Section 4.3.3 (a) and (b).

The paper evaluates three ways to let the server scan only the relevant
subset D' of the data table D once the decision tree has deactivated
most rows:

(a) copy D' into a new temp table and scan that,
(b) copy only TIDs into a temp table and join back at fetch time,
(c) a keyset cursor + stored-procedure filter
    (implemented in :mod:`repro.sqlengine.cursors`).

These helpers implement (a) and (b) with honest cost accounting so the
index-scan benchmark can reproduce the paper's negative result.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from ..common.cost import CostMeter, CostModel
from .cursors import live_rows, page_scan_charge, transfer_matching
from .expr import Expr, compile_predicate
from .types import Row

if TYPE_CHECKING:
    from .database import SQLServer
    from .heap import TID


def tid_join_charge(model: CostModel, n_tids: int,
                    meter: Optional[CostMeter] = None) -> float:
    """Joining ``n_tids`` stored TIDs back to the data table.

    The one place the §4.3.3(b) join is priced: :meth:`TIDList.fetch`
    charges through it, and the middleware calls it to charge a
    cache-served join or (``meter=None``) to quote one.
    """
    amount = model.tid_join_row * n_tids
    if meter is not None:
        meter.charge("tid_join", amount, events=n_tids)
    return amount


def copy_subset_to_table(
    server: "SQLServer",
    source_name: str,
    predicate: Optional[Expr],
    new_name: Optional[str] = None,
) -> str:
    """Strategy (a): materialise the qualifying subset as a new table.

    Returns the new table's name.  Costs one full scan of the source
    plus a per-row temp-table write for every qualifying row — the
    "unacceptably high overhead" the paper observed.
    """
    source = server.table(source_name)
    new_name = new_name or server.fresh_temp_name("subset")
    meter = server.meter
    model = server.model

    page_scan_charge(model, source, meter)

    check = compile_predicate(predicate, source.schema)
    qualifying = [row for row in source.scan_rows() if check(row)]
    table = server.create_table(new_name, source.schema)
    for row in qualifying:
        table.insert(row, validate=False)
    meter.charge(
        "temp_table",
        model.temp_table_row_write * len(qualifying),
        events=len(qualifying),
    )
    return new_name


class TIDList:
    """Strategy (b): a server-side list of qualifying TIDs."""

    def __init__(self, server: "SQLServer", source_name: str,
                 predicate: Optional[Expr]) -> None:
        self._server = server
        self._source_name = source_name
        meter = server.meter
        model = server.model
        source = server.table(source_name)

        # Building the TID list costs one full scan plus a (cheap)
        # temp-table write per TID.
        page_scan_charge(model, source, meter)
        check = compile_predicate(predicate, source.schema)
        self._tids: list["TID"] = [
            tid for tid, row in source.scan() if check(row)
        ]
        meter.charge(
            "temp_table",
            model.temp_table_row_write * len(self._tids) * 0.25,
            events=len(self._tids),
        )

    def __len__(self) -> int:
        return len(self._tids)

    @property
    def tids(self) -> tuple["TID", ...]:
        """The stored TIDs, in capture order (read-only view)."""
        return tuple(self._tids)

    def fetch(self,
              filter_predicate: Optional[Expr] = None) -> Iterator[Row]:
        """Join the TID list back to the data table, filtered.

        Charges the per-row join cost for every TID (the join overhead
        that "negatively impacts the improvement"), plus transfer for
        qualifying rows.
        """
        server = self._server
        source = server.table(self._source_name)
        check = compile_predicate(filter_predicate, source.schema)
        tid_join_charge(server.model, len(self._tids), server.meter)
        yield from transfer_matching(
            live_rows(source, self._tids), check, server.meter, server.model
        )
