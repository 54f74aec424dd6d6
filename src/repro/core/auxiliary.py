"""Server-access strategies, including Section 4.3.3's auxiliary structures.

When a batch must be serviced by the server, the middleware normally
opens a plain filtered cursor (:class:`PlainScanStrategy`).  The paper
also evaluates three ways to make the server touch only the relevant
subset D' once most of the data has become inactive:

a) copy D' into a temp table (:class:`TempTableStrategy`),
b) copy TIDs and join back (:class:`TIDJoinStrategy`),
c) keyset cursor + stored-procedure filter (:class:`KeysetStrategy`).

Each strategy builds its structure once the relevant fraction drops
below ``build_threshold`` and serves subsequent scans from it.  A
structure only covers the predicate it was built for, so each strategy
remembers that predicate and proves *containment* before reusing it:
the current batch filter (an OR of path conjunctions) is covered when
every disjunct extends some disjunct of the build predicate.  Batches
outside the covered subtree fall back to a plain scan or trigger a
rebuild.  ``free_build`` reproduces the paper's idealised experiment
where construction costs are neglected.

:class:`PlannedScanStrategy` (``aux_strategy="auto"``) replaces the
hard-coded strategy knob with a per-scan decision: it consults the
engine's cost-based access-path planner and picks the cheapest of a
filtered seq scan, a secondary-index probe, and a TID join.

Every strategy makes its build / reuse / fall-back decision in one
method, ``_decide``, which answers with the access path that serves
the scan.  ``plan_columnar()`` wraps that path as the plan the
execution module runs every SERVER scan from; ``rows()`` streams it
through the cursor layer — the metered reference the plans are held to
(``tests/core/test_access_parity.py``), which nothing in the package
calls.  Neither re-decides, and neither knows a price — a path carries
the charge functions of the ``sqlengine`` object that owns it, so the
stream, a resident or transient plan scan and the estimate recorded in
``last_choice`` (which the execution trace reports) all come from the
same definitions.  A plan's rows are the server's one encoding of the
table (``HeapTable.columnar()``), or for a TID-list, keyset or index
path the rows behind its TIDs gathered out of it: no heap row is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterator, Sequence

from ..common.errors import MiddlewareError
from ..sqlengine.cursors import (
    charge_transfer,
    forward_scan_charge,
    keyset_charge,
)
from ..sqlengine.expr import (
    And,
    ColumnRef,
    Comparison,
    Literal,
    Or,
    TrueExpr,
)
from ..sqlengine.planner import (
    AccessPlan,
    index_probe_charge,
    plan_access_path,
    stream_index_fetch,
)
from ..sqlengine.tempstructs import (
    TIDList,
    copy_subset_to_table,
    tid_join_charge,
)
from .columnar_cache import ColumnarScanPlan


@dataclass(frozen=True)
class AccessChoice:
    """The access path one server scan took, for the trace.

    ``path`` is one of ``"seq"``, ``"index"``, ``"temp_table"``,
    ``"tid_join"``, ``"keyset"``; ``est_cost`` is the strategy's
    estimate of the access charges (excluding per-row transfer), which
    for planner-chosen paths equals what the meter is charged.
    """

    path: str
    est_cost: float
    detail: str = ""


def predicate_disjuncts(expr: Any) -> list[frozenset[tuple[str, str, Any]]] | None:
    """Normalise a batch filter into disjuncts of condition sets.

    Returns a list of frozensets of ``(attribute, op, value)`` triples
    — one per disjunct — or ``None`` when the expression is not a
    disjunction of equality/inequality conjunctions (nothing the
    middleware emits, but callers must then assume non-coverage).
    ``None``/TRUE input yields ``[frozenset()]``: the unconditional
    predicate with an empty conjunction.
    """
    if expr is None or isinstance(expr, TrueExpr):
        return [frozenset()]
    disjuncts = expr.parts if isinstance(expr, Or) else (expr,)
    out: list[frozenset[tuple[str, str, Any]]] = []
    for disjunct in disjuncts:
        conjuncts = (
            disjunct.parts if isinstance(disjunct, And) else (disjunct,)
        )
        items: set[tuple[str, str, Any]] = set()
        for conjunct in conjuncts:
            if (
                isinstance(conjunct, Comparison)
                and conjunct.op in ("=", "<>")
                and isinstance(conjunct.left, ColumnRef)
                and isinstance(conjunct.right, Literal)
            ):
                items.add(
                    (conjunct.left.name, conjunct.op, conjunct.right.value)
                )
            else:
                return None
        out.append(frozenset(items))
    return out


def predicate_covers(built: Any, current: Any) -> bool:
    """True when rows matching ``current`` all match ``built``.

    Sound (never claims coverage falsely) for the path predicates tree
    clients emit: a node's predicate is a superset of every ancestor's
    conjunction, so subset containment per disjunct decides coverage.
    """
    built_disjuncts = predicate_disjuncts(built)
    current_disjuncts = predicate_disjuncts(current)
    if built_disjuncts is None or current_disjuncts is None:
        return False
    return all(
        any(b <= c for b in built_disjuncts) for c in current_disjuncts
    )


@dataclass(frozen=True)
class _AccessPath:
    """One decided access path, ready to plan or to stream.

    Every callable comes from the ``sqlengine`` layer that owns the
    path, so the plan, the reference stream and the recorded estimate
    all take the fixed per-scan price from the same function.
    """

    #: :attr:`AccessChoice.path` and ``detail`` for the trace.
    label: str
    detail: str
    #: The owner's per-scan price: called bare it quotes the amount,
    #: called with the meter it charges it (``stream`` does so itself).
    charge: Callable[..., float]
    #: ``predicate -> rows``: the metered stream (the cursor layer).
    stream: Callable[[Any], Iterator[Any]]
    #: Cache identity of the superset the path scans, that superset's
    #: size before encoding (tombstoned TIDs included), and the
    #: superset as one columnar partition, unmetered: the server's own
    #: ``HeapTable.columnar()`` or a gather of it.
    key: tuple[Any, ...]
    n_rows: int
    encode: Callable[[], Any]

    def plan(self, server: Any) -> ColumnarScanPlan:
        """The plan form: the stream's own price functions, bound to
        the meter, so the plan costs what the stream would."""
        return ColumnarScanPlan(
            key=self.key,
            n_rows=self.n_rows,
            encode=self.encode,
            charge_scan=partial(self.charge, server.meter),
            charge_rows=partial(charge_transfer, server.meter, server.model),
        )


def _gathered(table: Any, tids: Sequence[Any]) -> Any:
    """The live rows behind ``tids``, in their order, gathered out of
    the table's one encoding (unmetered, no heap row read)."""
    return table.columnar().take(table.live_ordinals(tids))


def _cursor_path(server: Any, table: Any, label: str = "seq") -> _AccessPath:
    """A filtered forward cursor over ``table`` (data or temp table).

    Keying by (name, version) is safe for temp tables too: a rebuilt
    structure gets a fresh temp name.
    """

    def stream(predicate: Any) -> Iterator[Any]:
        with server.open_cursor(table.name, predicate) as cursor:
            yield from cursor.rows()

    return _AccessPath(
        label, "", partial(forward_scan_charge, server.model, table),
        stream, ("table", table.name, table.version),
        table.row_count, table.columnar,
    )


class ServerAccessStrategy:
    """Produce the rows of one server-side scan.

    A strategy makes one decision per scan — which access path serves
    the batch — in :meth:`_decide`, its only override point.
    :meth:`plan_columnar` (what the executor runs) and :meth:`rows`
    (the metered reference stream) both go through it, so they cannot
    disagree on the build / reuse / fall-back choice, on
    ``last_choice``, or (the path's charges being shared) on cost.
    """

    #: The access path the most recent scan took (None before any scan).
    last_choice: AccessChoice | None = None

    def __init__(self, server: Any, table_name: str) -> None:
        self._server = server
        self._table_name = table_name

    def rows(self, predicate: Any, relevant_rows: int) -> Iterator[Any]:
        """Iterate rows matching ``predicate`` through the cursor layer.

        The reference implementation of a server scan: row-by-row
        filter, charges made by the cursor itself.  The executor runs
        :meth:`plan_columnar` instead; the parity tests hold every plan
        to this stream's rows and charges.

        :param predicate: the pushed batch filter (None = all rows).
        :param relevant_rows: the scheduler's exact count of rows the
            batch needs, used against the build threshold.
        """
        return self._serve(predicate, relevant_rows).stream(predicate)

    def plan_columnar(self, predicate: Any,
                      relevant_rows: int) -> ColumnarScanPlan:
        """The scan as a columnar plan: the superset's encoding
        (unmetered) and the path's charges; the counting kernel's route
        keeps the rows ``predicate`` keeps.

        A decision that (re)builds an auxiliary structure builds it
        *here*, whether the executor then keeps the plan's encoding
        resident or counts its rows a partition at a time.
        """
        return self._serve(predicate, relevant_rows).plan(self._server)

    def _serve(self, predicate: Any, relevant_rows: int) -> _AccessPath:
        """Decide, and record the decision in ``last_choice``."""
        path = self._decide(predicate, relevant_rows)
        self.last_choice = AccessChoice(
            path.label, path.charge(), path.detail
        )
        return path

    def _decide(self, predicate: Any, relevant_rows: int) -> _AccessPath:
        """Choose (building what the choice needs) this scan's path."""
        raise NotImplementedError

    def close(self) -> None:
        """Release any server-side structures."""


class PlainScanStrategy(ServerAccessStrategy):
    """The default: a fresh filtered forward cursor per scan."""

    def _decide(self, predicate: Any, relevant_rows: int) -> _AccessPath:
        return _cursor_path(
            self._server, self._server.table(self._table_name)
        )


class _ThresholdStrategy(ServerAccessStrategy):
    """Shared build-on-threshold behaviour for the aux strategies."""

    def __init__(self, server: Any, table_name: str,
                 build_threshold: float = 0.1,
                 free_build: bool = False) -> None:
        if not 0.0 < build_threshold <= 1.0:
            raise MiddlewareError("build_threshold must be within (0, 1]")
        super().__init__(server, table_name)
        self._threshold = build_threshold
        self._free_build = free_build
        #: The built server-side structure and the predicate it covers.
        self._structure: Any = None
        self._built_predicate: Any = None

    @property
    def has_structure(self) -> bool:
        return self._structure is not None

    def _covers(self, predicate: Any) -> bool:
        return self.has_structure and predicate_covers(
            self._built_predicate, predicate
        )

    def _below_threshold(self, table: Any, relevant_rows: int) -> bool:
        return relevant_rows / max(1, table.row_count) <= self._threshold

    def _decide(self, predicate: Any, relevant_rows: int) -> _AccessPath:
        table = self._server.table(self._table_name)
        if not self._covers(predicate):
            if not self._below_threshold(table, relevant_rows):
                return _cursor_path(self._server, table)
            self._rebuild(predicate)
        return self._structure_path(table)

    def _rebuild(self, predicate: Any) -> None:
        """Replace the structure; ``free_build`` refunds the charges."""
        self.close()
        meter = self._server.meter
        snapshot = meter.snapshot() if self._free_build else None
        self._structure = self._build(predicate)
        if snapshot is not None:
            meter.rollback_to(snapshot)
        self._built_predicate = predicate

    def _build(self, predicate: Any) -> Any:
        raise NotImplementedError

    def _structure_path(self, table: Any) -> _AccessPath:
        raise NotImplementedError

    def close(self) -> None:
        self._structure = None
        self._built_predicate = None


class TempTableStrategy(_ThresholdStrategy):
    """§4.3.3(a): copy the relevant subset into a new temp table."""

    def _build(self, predicate: Any) -> Any:
        return copy_subset_to_table(
            self._server, self._table_name, predicate
        )

    def _structure_path(self, table: Any) -> _AccessPath:
        return _cursor_path(
            self._server, self._server.table(self._structure), "temp_table"
        )

    def close(self) -> None:
        name = self._structure
        if name and self._server.database.has_table(name):
            self._server.drop_table(name)
        super().close()


class TIDJoinStrategy(_ThresholdStrategy):
    """§4.3.3(b): a TID list joined back to the base table."""

    def _build(self, predicate: Any) -> Any:
        return TIDList(self._server, self._table_name, predicate)

    def _structure_path(self, table: Any) -> _AccessPath:
        tids = self._structure.tids
        return _AccessPath(
            "tid_join", f"tids={len(tids)}",
            partial(tid_join_charge, self._server.model, len(tids)),
            self._structure.fetch,
            ("tids", table.name, table.version, self._built_predicate),
            len(tids), partial(_gathered, table, tids),
        )


class KeysetStrategy(_ThresholdStrategy):
    """§4.3.3(c): keyset cursor + stored-procedure filtering."""

    def _build(self, predicate: Any) -> Any:
        return self._server.open_keyset_cursor(self._table_name, predicate)

    def _structure_path(self, table: Any) -> _AccessPath:
        tids = self._structure.tids
        return _AccessPath(
            "keyset", "",
            partial(keyset_charge, self._server.model, len(tids)),
            self._structure.fetch,
            ("keyset", table.name, table.version, self._built_predicate),
            len(tids), partial(_gathered, table, tids),
        )

    def close(self) -> None:
        if self._structure is not None:
            self._structure.close()
        super().close()


class PlannedScanStrategy(TIDJoinStrategy):
    """``aux_strategy="auto"``: per-scan cost-based access-path choice.

    Every scan is costed across three candidate paths and the cheapest
    wins:

    * a plain filtered cursor (cursor open + every page);
    * a planner index probe (:func:`~repro.sqlengine.planner.
      plan_access_path` over the server's secondary indexes) — the
      per-scan, data-dependent version of §4.3.3's "auxiliary
      structures", with exact probe counts so the estimate equals the
      metered charge;
    * a §4.3.3(b) TID join, served when a built list still covers the
      batch, or built when the relevant fraction drops below
      ``build_threshold`` *and* the projected serve cost beats both
      other candidates.

    ``use_planner=False`` removes the index candidate — the blind
    baseline the planner A/B benchmark compares against.  Ties go to
    the earlier candidate (seq first), so the planner never picks a
    path that merely matches the scan it would replace.
    """

    def __init__(self, server: Any, table_name: str,
                 build_threshold: float = 0.1,
                 free_build: bool = False,
                 use_planner: bool = True) -> None:
        super().__init__(server, table_name, build_threshold, free_build)
        self._use_planner = use_planner

    def _decide(self, predicate: Any, relevant_rows: int) -> _AccessPath:
        server = self._server
        table = server.table(self._table_name)
        model = server.model
        seq = _cursor_path(server, table)
        candidates: list[tuple[str, float]] = [("seq", seq.charge())]
        plan: AccessPlan | None = None
        if self._use_planner:
            plan = plan_access_path(
                predicate, table, server.database, model
            )
            if plan.probes:
                candidates.append(("index", plan.index_cost))
        if self._covers(predicate):
            candidates.append(
                ("tid_serve", tid_join_charge(model, len(self._structure)))
            )
        elif self._below_threshold(table, relevant_rows):
            projected = tid_join_charge(model, relevant_rows)
            best = min(cost for _path, cost in candidates)
            if self._free_build or projected < best:
                candidates.append(("tid_build", projected))
        # min() is stable: ties favour the earlier candidate (seq first).
        chosen, _cost = min(candidates, key=lambda c: c[1])
        if chosen == "index":
            assert plan is not None
            return self._index_path(table, plan)
        if chosen in ("tid_serve", "tid_build"):
            if chosen == "tid_build":
                self._rebuild(predicate)
            return self._structure_path(table)
        return seq

    def _index_path(self, table: Any, plan: AccessPlan) -> _AccessPath:
        """A planner index probe: exact planner charges + row transfer.

        The key carries the probe's identity (index name, probed
        values / interval): different probes over one table version
        encode separately, the same split predicate re-probed across
        tree levels shares one encoding.
        """
        server = self._server
        tids = plan.fetch_tids()
        return _AccessPath(
            "index", plan.describe(),
            partial(index_probe_charge, server.model,
                    plan.index_descents, len(tids)),
            lambda predicate: stream_index_fetch(
                plan, table, predicate, server.meter, server.model
            ),
            ("ixfetch", table.name, table.version) + plan.cache_token(),
            len(tids), partial(_gathered, table, tids),
        )


def make_strategy(name: str, server: Any, table_name: str,
                  build_threshold: float = 0.1,
                  free_build: bool = False,
                  use_planner: bool = True) -> ServerAccessStrategy:
    """Instantiate a strategy by config name."""
    if name == "scan":
        return PlainScanStrategy(server, table_name)
    if name == "temp_table":
        return TempTableStrategy(server, table_name, build_threshold,
                                 free_build)
    if name == "tid_join":
        return TIDJoinStrategy(server, table_name, build_threshold,
                               free_build)
    if name == "keyset":
        return KeysetStrategy(server, table_name, build_threshold,
                              free_build)
    if name == "auto":
        return PlannedScanStrategy(server, table_name, build_threshold,
                                   free_build, use_planner)
    raise MiddlewareError(f"unknown server-access strategy: {name!r}")
