"""Statement execution against a :class:`~repro.sqlengine.database.Database`.

Design notes that matter for the reproduction:

* A SELECT without a usable index is a full sequential scan of its
  table: the engine has no shared-scan optimisation, so a UNION ALL of
  m GROUP BY branches is charged m scans of the table.  This is
  deliberate — it is exactly the behaviour of the commercial
  optimizers the paper measured ("optimizers in most database systems
  are not capable of exploiting the commonality").  What the branches
  of one statement compute alike is computed once per distinct
  (table, version, WHERE) — :class:`_WhereScan` — and charged to each.
* What *is* optimised is the per-row work inside one such scan.  A
  single-table ``COUNT(*) ... GROUP BY`` on the sequential path whose
  items are literals, group columns and ``COUNT(*)``, whose WHERE is
  ``=`` / ``<>`` column-vs-literal under AND/OR and whose group
  columns hold only integers — the per-node CC statement — is counted
  as array passes over the table's columnar encoding
  (:func:`_vector_grouped_count`); any other statement is grouped row
  by row (:func:`_grouped_select`, the reference implementation).
  :func:`_select_result` chooses once per SELECT from the statement
  and the data, never from a setting; rows, order and charges are the
  same either way, and m branches remain m metered scans.
* Single-table SELECT and DELETE route through the cost-based
  access-path planner (:mod:`repro.sqlengine.planner`): candidate index
  probes (equality, IN, range intervals) are costed against the page
  scan and the cheaper path wins, charging per-probe and per-row-fetch
  costs — the server-side "auxiliary structure" capability Section
  4.3.3 evaluates, minus its blind always-use-the-index heuristic.
* ``EXPLAIN <statement>`` executes the statement and reports the
  chosen access path with estimated vs actual charges, and which
  aggregate implementation ran (and why not the other).
* All I/O is charged to the :class:`~repro.common.cost.CostMeter` the
  owning server passes in: page reads for scans, index probes, per-row
  GROUP BY evaluation, per-row transfer for rows shipped to the
  client, and per-row writes for SELECT INTO.
* GROUP BY output is sorted by key so results are deterministic.

Supported aggregates: COUNT(*), COUNT(x), SUM, MIN, MAX, AVG — with or
without GROUP BY.  ORDER BY sorts on output columns; LIMIT truncates.
"""

from __future__ import annotations

from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    NamedTuple,
    Optional,
    Sequence,
)

from ..common.cost import CostMeter, CostModel
from ..common.errors import CatalogError, SQLError
from .ast_nodes import (
    Aggregate,
    JoinClause,
    Statement,
    CreateIndex,
    DeleteRows,
    CreateTable,
    DropIndex,
    DropTable,
    Explain,
    InsertValues,
    Select,
    SelectItem,
    Star,
    UnionAll,
)
from .cursors import page_scan_charge
from .expr import (
    And,
    Comparison,
    Expr,
    Or,
    RowFunc,
    ColumnRef,
    Literal,
    compile_predicate,
)
from .planner import AccessPlan, fetch_candidates, plan_access_path
from .schema import Column, TableSchema
from .types import ColumnType, Row, SQLValue

if TYPE_CHECKING:
    from .database import Database
    from .heap import HeapTable

#: Builds output column ``i`` of one group from (group_key, accumulators).
_Builder = Callable[..., Any]


class ResultSet:
    """Column names plus materialised result rows."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: Iterable[str],
                 rows: Iterable[Sequence[Any]]) -> None:
        self.columns = list(columns)
        self.rows = [tuple(r) for r in rows]

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def column_index(self, name: str) -> int:
        try:
            return self.columns.index(name)
        except ValueError:
            raise CatalogError(f"result has no column {name!r}") from None

    def as_dicts(self) -> list[dict[str, Any]]:
        """Rows as dictionaries keyed by column name."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self) -> str:
        return f"ResultSet(columns={self.columns}, rows={len(self.rows)})"


class AggregateChoice(NamedTuple):
    """Which aggregate implementation answered one SELECT, and why."""

    #: "vector" (array passes over the table's columnar encoding) or
    #: "row" (:func:`_grouped_select` / :func:`_global_aggregate`).
    implementation: str
    #: What qualified the statement, or the first obstacle found.
    reason: str

    def describe(self) -> str:
        return f"{self.implementation} ({self.reason})"


def execute_statement(
    statement: Statement, database: "Database", meter: CostMeter,
    model: CostModel, choices: Optional[list[AggregateChoice]] = None,
) -> ResultSet:
    """Execute ``statement``; returns a :class:`ResultSet`.

    ``choices`` (EXPLAIN's) collects one :class:`AggregateChoice` per
    aggregating SELECT the statement runs, appended by the code that
    chose.
    """
    if isinstance(statement, Select):
        return _execute_select(statement, database, meter, model, choices)
    if isinstance(statement, UnionAll):
        return _execute_union(statement, database, meter, model, choices)
    if isinstance(statement, CreateTable):
        return _execute_create(statement, database)
    if isinstance(statement, InsertValues):
        return _execute_insert(statement, database, meter, model)
    if isinstance(statement, DropTable):
        database.drop_table(statement.table)
        return ResultSet([], [])
    if isinstance(statement, DeleteRows):
        return _execute_delete(statement, database, meter, model)
    if isinstance(statement, CreateIndex):
        return _execute_create_index(statement, database, meter, model)
    if isinstance(statement, DropIndex):
        database.indexes.drop(statement.name, database)
        return ResultSet([], [])
    if isinstance(statement, Explain):
        return _execute_explain(statement, database, meter, model)
    raise SQLError(f"cannot execute statement type {type(statement).__name__}")


def _execute_union(
    statement: UnionAll, database: "Database", meter: CostMeter,
    model: CostModel, choices: Optional[list[AggregateChoice]] = None,
) -> ResultSet:
    """Run each branch as its own metered scan and concatenate rows.

    Branch widths are compared before any branch runs, so a malformed
    UNION is rejected without metering scans whose rows it would
    never return.  The branches share one :class:`_WhereScan` memo:
    a WHERE they have in common is planned and masked once.
    """
    widths = {
        _select_width(select, database) for select in statement.selects
    }
    if len(widths) > 1:
        raise SQLError("UNION ALL branches have different widths")
    scans: list[_WhereScan] = []
    results = [
        _execute_select(select, database, meter, model, choices, scans)
        for select in statement.selects
    ]
    rows: list[tuple[Any, ...]] = []
    for result in results:
        rows.extend(result.rows)
    return ResultSet(results[0].columns, rows)


def _select_width(statement: Select, database: "Database") -> int:
    """Number of output columns ``statement`` produces."""
    if not isinstance(statement.items, Star):
        return len(statement.items)
    source = statement.table
    if isinstance(source, JoinClause):
        return (len(database.table(source.left_table).schema)
                + len(database.table(source.right_table).schema))
    return len(database.table(source).schema)


# ---------------------------------------------------------------------------
# SELECT
# ---------------------------------------------------------------------------


class _WhereScan:
    """One table version read under one WHERE, worked out once for
    every branch of a statement that reads it.

    It holds what does not depend on the branch: the access plan, why
    the WHERE or the table rule out the vector count (or None), and
    the positions of the rows the WHERE selects.  Charges are never
    shared: each branch still pays its own page scan and GROUP BY
    rows, so m branches stay m metered scans.
    """

    def __init__(self, table: "HeapTable", where: Optional[Expr],
                 database: "Database", model: CostModel) -> None:
        self.table = table
        self.version = table.version
        self.where = where
        # Statistics (re)collection behind the plan's selectivity is
        # deliberately unmetered metadata upkeep (statistics.py); the
        # chosen path's row work is charged by whoever reads the rows.
        self.plan = plan_access_path(where, table, database, model)

    @cached_property
    def obstacle(self) -> Optional[str]:
        """The first thing about the plan, the WHERE or the table that
        rules out :func:`_vector_grouped_count`, or None."""
        return _where_obstacle(self.where, self.table, self.plan)

    @cached_property
    def selected(self) -> Any:
        """Positions, in the table's encoding, of the rows the WHERE
        keeps (only once :attr:`obstacle` has found nothing)."""
        from .columnar import np, predicate_mask

        schema = self.table.schema
        where = self.where
        attr_index = {
            name: schema.index_of(name)
            for name in (where.columns() if where is not None else ())
        }
        return np.flatnonzero(predicate_mask(
            self.table.columnar(), where, attr_index
        ))


def _where_scan(scans: list[_WhereScan], table: "HeapTable",
                where: Optional[Expr], database: "Database",
                model: CostModel) -> _WhereScan:
    """``scans``' entry for ``table`` at its version under ``where`` —
    the same WHERE object (the parser shares a repeated one) or an
    equal one — made if new."""
    version = table.version
    for scan in scans:
        if (scan.table is table and scan.version == version
                and (scan.where is where or scan.where == where)):
            return scan
    scan = _WhereScan(table, where, database, model)
    scans.append(scan)
    return scan


def _execute_select(
    statement: Select, database: "Database", meter: CostMeter,
    model: CostModel, choices: Optional[list[AggregateChoice]] = None,
    scans: Optional[list[_WhereScan]] = None,
) -> ResultSet:
    result = _select_result(statement, database, meter, model, choices,
                            [] if scans is None else scans)
    result = _order_and_limit(statement, result)

    if statement.into:
        _materialize_into(statement.into, result, database, meter, model)
        return ResultSet(result.columns, [])

    meter.charge(
        "transfer",
        model.transfer_per_row * len(result.rows),
        events=len(result.rows),
    )
    return result


def _select_result(
    statement: Select, database: "Database", meter: CostMeter,
    model: CostModel, choices: Optional[list[AggregateChoice]],
    scans: list[_WhereScan],
) -> ResultSet:
    """The SELECT's rows before ORDER BY / LIMIT / INTO / transfer.

    The aggregate implementation is chosen here, once, from the
    statement's shape and the table's encoding (never by a setting):
    whatever :func:`_vector_count_obstacle` finds nothing against is
    counted by :func:`_vector_grouped_count`, everything else row by
    row.  Both charge the same scan and hand back the same rows.
    """
    source = statement.table
    if isinstance(source, JoinClause):
        schema, source_rows = _join_source(source, database, meter, model)
        obstacle = "the FROM clause is a join"
    else:
        table = database.table(source)
        schema = table.schema
        scan = _where_scan(scans, table, statement.where, database, model)
        vector_obstacle = _vector_count_obstacle(statement, scan)
        if vector_obstacle is None:
            if choices is not None:
                choices.append(AggregateChoice(
                    "vector", "COUNT(*) over the table's columnar encoding"
                ))
            return _vector_grouped_count(statement, scan, meter, model)
        obstacle = vector_obstacle
        # Candidates only: the full WHERE is still applied below (an
        # index probe merely narrows the fetch).
        source_rows = (
            row
            for _tid, row in fetch_candidates(scan.plan, table, meter, model)
        )

    predicate = compile_predicate(statement.where, schema)
    if not statement.group_by and not _has_aggregates(statement):
        return _plain_select(statement, schema, source_rows, predicate)
    if choices is not None:
        choices.append(AggregateChoice("row", obstacle))
    if statement.group_by:
        return _grouped_select(
            statement, schema, source_rows, predicate, meter, model
        )
    return _global_aggregate(statement, schema, source_rows, predicate)


def _join_source(
    join: JoinClause, database: "Database", meter: CostMeter,
    model: CostModel,
) -> tuple[TableSchema, Iterator[Row]]:
    """Hash inner equi-join: joined schema + row iterable.

    The joined schema qualifies every column as ``alias.column``.
    Costs: one full page scan of each side plus a per-probe hash cost
    for every left row.
    """
    left = database.table(join.left_table)
    right = database.table(join.right_table)

    columns = [
        Column(f"{join.left_alias}.{c.name}", c.type)
        for c in left.schema
    ] + [
        Column(f"{join.right_alias}.{c.name}", c.type)
        for c in right.schema
    ]
    try:
        schema = TableSchema(columns)
    except ValueError as exc:
        raise SQLError(f"ambiguous joined schema: {exc}") from None

    left_width = len(left.schema)
    key_positions: list[int] = []
    for qualified in (join.left_column, join.right_column):
        key_positions.append(schema.index_of(qualified))
    left_keys = [p for p in key_positions if p < left_width]
    right_keys = [p - left_width for p in key_positions if p >= left_width]
    if len(left_keys) != 1 or len(right_keys) != 1:
        raise SQLError(
            "join condition must compare one column from each side"
        )
    left_key = left_keys[0]
    right_key = right_keys[0]

    for side in (left, right):
        page_scan_charge(model, side, meter)

    buckets: dict[SQLValue, list[Row]] = {}
    for row in right.scan_rows():
        key = row[right_key]
        if key is None:
            continue  # NULL never joins
        buckets.setdefault(key, []).append(row)

    def rows() -> Iterator[Row]:
        probes = 0
        try:
            for left_row in left.scan_rows():
                probes += 1
                matches = buckets.get(left_row[left_key])
                if not matches:
                    continue
                for right_row in matches:
                    yield left_row + right_row
        finally:
            meter.charge("join", model.hash_join_row * probes, events=probes)

    return schema, rows()


def _has_aggregates(statement: Select) -> bool:
    if isinstance(statement.items, Star):
        return False
    return any(item.is_aggregate for item in statement.items)


def _plain_select(statement: Select, schema: TableSchema,
                  source_rows: Iterable[Row],
                  predicate: RowFunc) -> ResultSet:
    if isinstance(statement.items, Star):
        rows = [row for row in source_rows if predicate(row)]
        return ResultSet(schema.column_names, rows)

    evaluators: list[RowFunc] = []
    names: list[str] = []
    for item in statement.items:
        if item.is_aggregate:
            raise SQLError(
                "cannot mix aggregates and plain columns without GROUP BY"
            )
        evaluators.append(item.expression.compile(schema))
        names.append(item.output_name)
    rows = [
        tuple(evaluate(row) for evaluate in evaluators)
        for row in source_rows
        if predicate(row)
    ]
    return ResultSet(names, rows)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


class _Accumulator:
    """Running state of one aggregate over one group."""

    __slots__ = ("func", "operand", "count", "total", "best")

    def __init__(self, func: str, operand: Optional[RowFunc]) -> None:
        self.func = func
        self.operand = operand  # compiled expr, or None for COUNT(*)
        self.count = 0
        self.total: Any = 0
        self.best: Any = None

    def add(self, row: Row) -> None:
        if self.operand is None:  # COUNT(*)
            self.count += 1
            return
        value = self.operand(row)
        if value is None:
            return
        self.count += 1
        if self.func in ("SUM", "AVG"):
            self.total += value
        elif self.func == "MIN":
            if self.best is None or value < self.best:
                self.best = value
        elif self.func == "MAX":
            if self.best is None or value > self.best:
                self.best = value

    def result(self) -> Any:
        if self.func == "COUNT":
            return self.count
        if self.count == 0:
            return None  # SQL semantics: aggregates over no rows are NULL
        if self.func == "SUM":
            return self.total
        if self.func == "AVG":
            return self.total / self.count
        return self.best


def _aggregate_plan(
    items: list[SelectItem], schema: TableSchema, group_names: list[str]
) -> tuple[list[str], Callable[[], list[_Accumulator]], list[_Builder]]:
    """Compile select items into per-group output builders.

    Returns ``(names, factories, builders)`` where ``factories()``
    creates the accumulator list for a new group and
    ``builders[i](key, accumulators)`` produces output column i.
    """
    names: list[str] = []
    # Aggregate specs in accumulator order.
    specs: list[tuple[str, Optional[RowFunc]]] = []
    builders: list[_Builder] = []
    for item in items:
        names.append(item.output_name)
        expression = item.expression
        if isinstance(expression, Aggregate):
            operand = (
                None
                if isinstance(expression.operand, Star)
                else expression.operand.compile(schema)
            )
            position = len(specs)
            specs.append((expression.func, operand))
            builders.append(
                lambda key, accs, position=position: accs[position].result()
            )
        elif isinstance(expression, ColumnRef):
            if expression.name not in group_names:
                raise SQLError(
                    f"column {expression.name!r} must appear in GROUP BY"
                )
            key_position = group_names.index(expression.name)
            builders.append(
                lambda key, accs, key_position=key_position: key[key_position]
            )
        elif isinstance(expression, Literal):
            value = expression.value
            builders.append(lambda key, accs, value=value: value)
        else:
            raise SQLError(
                "grouped SELECT items must be group columns, literals, "
                "or aggregates"
            )

    def factories() -> list[_Accumulator]:
        return [_Accumulator(func, operand) for func, operand in specs]

    return names, factories, builders


def _grouped_select(statement: Select, schema: TableSchema,
                    source_rows: Iterable[Row], predicate: RowFunc,
                    meter: CostMeter, model: CostModel) -> ResultSet:
    if isinstance(statement.items, Star):
        raise SQLError("SELECT * cannot be combined with GROUP BY")

    group_indices = [schema.index_of(name) for name in statement.group_by]
    names, factories, builders = _aggregate_plan(
        statement.items, schema, list(statement.group_by)
    )

    groups: dict[tuple[SQLValue, ...], list[_Accumulator]] = {}
    qualifying = 0
    for row in source_rows:
        if not predicate(row):
            continue
        qualifying += 1
        key = tuple(row[i] for i in group_indices)
        accumulators = groups.get(key)
        if accumulators is None:
            accumulators = factories()
            groups[key] = accumulators
        for accumulator in accumulators:
            accumulator.add(row)
    meter.charge("groupby", model.groupby_row * qualifying, events=qualifying)

    rows: list[tuple[Any, ...]] = []
    for key in sorted(groups, key=_sort_key):
        accumulators = groups[key]
        rows.append(tuple(build(key, accumulators) for build in builders))
    return ResultSet(names, rows)


def _where_literals(where: Optional[Expr]) -> Iterator[object]:
    """Every literal of a ``filter_supported`` WHERE clause (the lexer
    reads ``5.0`` as a float, which no column type stores)."""
    if isinstance(where, (And, Or)):
        for part in where.parts:
            yield from _where_literals(part)
    elif isinstance(where, Comparison) and isinstance(where.right, Literal):
        yield where.right.value


def _vector_count_obstacle(statement: Select,
                           scan: _WhereScan) -> Optional[str]:
    """Why ``statement`` cannot be counted over its table's columnar
    encoding — the first reason found — or None when it can.

    It can when it is the CC shape: literals, group columns and
    ``COUNT(*)``, read by a sequential scan, filtered by ``=`` / ``<>``
    column-vs-literal comparisons under AND/OR, grouped on columns
    that hold nothing but integers (RAW).  The statement is judged
    before the table, so one that does not qualify never causes an
    encode; what the WHERE and the table rule out is judged once per
    ``scan`` (:func:`_where_obstacle`).
    """
    from .columnar import RAW

    if not statement.group_by:
        return "no GROUP BY"
    if isinstance(statement.items, Star):
        return "SELECT *"
    for item in statement.items:
        expression = item.expression
        if isinstance(expression, Aggregate):
            if not expression.is_count_star:
                return f"{expression.to_sql()} is not COUNT(*)"
        elif isinstance(expression, ColumnRef):
            if expression.name not in statement.group_by:
                return f"column {expression.name!r} is not grouped"
        elif not isinstance(expression, Literal):
            return f"item {expression.to_sql()} is computed per row"
    obstacle = scan.obstacle
    if obstacle is not None:
        return obstacle
    schema = scan.table.schema
    partition = scan.table.columnar()
    for name in statement.group_by:
        if not schema.has_column(name):
            return f"no such column: {name!r}"
        column = partition.columns[schema.index_of(name)]
        if column.kind != RAW:
            return f"group column {name!r} is not all integers"
        if column.nulls is not None:
            return f"group column {name!r} holds NULLs"
    return None


def _where_obstacle(where: Optional[Expr], table: "HeapTable",
                    plan: AccessPlan) -> Optional[str]:
    """The part of :func:`_vector_count_obstacle` that reads only the
    plan, the WHERE and the table, in the order it checks them."""
    from .columnar import columnar_available, filter_supported

    if plan.uses_index:
        return "the planner chose an index probe"
    if not filter_supported(where):
        return "WHERE is more than =/<> column-vs-literal under AND/OR"
    if any(isinstance(v, float) for v in _where_literals(where)):
        # 5 = 5.0 in the row path's Python equality; the int64 mask
        # compares integers only.
        return "WHERE compares against a float literal"
    if not columnar_available():
        return "numpy is not installed"
    if table.columnar().n_rows == 0:
        return "the table has no live rows"
    return None


def _vector_grouped_count(statement: Select, scan: _WhereScan,
                          meter: CostMeter, model: CostModel) -> ResultSet:
    """``COUNT(*) ... GROUP BY`` as array passes over the encoding.

    The per-row work of ``fetch_candidates`` + :func:`_grouped_select`
    — predicate, key tuple, dict probe, accumulator — becomes a
    ``predicate_mask`` and one composite-key histogram; the charges
    are theirs to the unit: every page read once, one GROUP BY
    evaluation per qualifying row.  UNION branches under one WHERE
    share its mask (``scan``) but are charged as m independent scans,
    the optimizer behaviour the paper measured.  Only for statements
    :func:`_vector_count_obstacle` passed.
    """
    from .columnar import group_counts

    assert not isinstance(statement.items, Star)
    table = scan.table
    schema = table.schema
    page_scan_charge(model, table, meter)
    partition = table.columnar()
    selected = scan.selected
    qualifying = int(selected.size)
    meter.charge("groupby", model.groupby_row * qualifying, events=qualifying)

    names = [item.output_name for item in statement.items]
    if not qualifying:
        return ResultSet(names, [])
    keys, counts = group_counts([
        partition.columns[schema.index_of(name)].data[selected]
        for name in statement.group_by
    ])
    output: list[Sequence[Any]] = []
    for item in statement.items:
        expression = item.expression
        if isinstance(expression, Aggregate):
            output.append(counts)
        elif isinstance(expression, ColumnRef):
            output.append(keys[statement.group_by.index(expression.name)])
        else:
            assert isinstance(expression, Literal)
            output.append([expression.value] * len(counts))
    return ResultSet(names, zip(*output))


def _global_aggregate(statement: Select, schema: TableSchema,
                      source_rows: Iterable[Row],
                      predicate: RowFunc) -> ResultSet:
    """Aggregates without GROUP BY: one output row, even over no rows."""
    names, factories, builders = _aggregate_plan(
        statement.items, schema, []
    )
    accumulators = factories()
    for row in source_rows:
        if not predicate(row):
            continue
        for accumulator in accumulators:
            accumulator.add(row)
    row = tuple(build((), accumulators) for build in builders)
    return ResultSet(names, [row])


# ---------------------------------------------------------------------------
# ORDER BY / LIMIT
# ---------------------------------------------------------------------------


def _order_and_limit(statement: Select, result: ResultSet) -> ResultSet:
    rows = result.rows
    if statement.order_by:
        # Stable sorts applied in reverse key order give multi-key sort.
        for name, ascending in reversed(statement.order_by):
            position = result.column_index(name)
            rows = sorted(
                rows,
                key=lambda row: _sort_key((row[position],)),
                reverse=not ascending,
            )
    if statement.limit is not None:
        rows = rows[: statement.limit]
    return ResultSet(result.columns, rows)


def _sort_key(key: Sequence[Any]) -> tuple[tuple[bool, str, Any], ...]:
    """Order heterogeneous values deterministically (NULLs first,
    matching SQL Server's ascending NULL placement)."""
    return tuple(
        (value is not None, str(type(value)), value) for value in key
    )


# ---------------------------------------------------------------------------
# DDL / DML / materialisation
# ---------------------------------------------------------------------------


def _materialize_into(name: str, result: ResultSet,
                      database: "Database", meter: CostMeter,
                      model: CostModel) -> None:
    """Create ``name`` from ``result`` (SELECT INTO semantics)."""
    columns: list[Column] = []
    for i, column_name in enumerate(result.columns):
        column_type = _infer_type(result.rows, i)
        columns.append(Column(column_name, column_type))
    schema = TableSchema(columns)
    table = database.create_table(name, schema)
    for row in result.rows:
        table.insert(row, validate=False)
    meter.charge(
        "temp_table",
        model.temp_table_row_write * len(result.rows),
        events=len(result.rows),
    )


def _infer_type(rows: list[tuple[Any, ...]], index: int) -> ColumnType:
    """Infer a column type from materialised values (INT wins ties)."""
    for row in rows:
        value = row[index]
        if value is None:
            continue
        return ColumnType.VARCHAR if isinstance(value, str) else ColumnType.INT
    return ColumnType.INT


def _execute_create(statement: CreateTable,
                    database: "Database") -> ResultSet:
    schema = TableSchema(
        Column(name, ColumnType.parse(type_name))
        for name, type_name in statement.columns
    )
    database.create_table(statement.table, schema)
    return ResultSet([], [])


def _execute_create_index(statement: CreateIndex, database: "Database",
                          meter: CostMeter,
                          model: CostModel) -> ResultSet:
    table = database.table(statement.table)
    # Building the index scans the table and inserts one entry per row.
    page_scan_charge(model, table, meter)
    meter.charge(
        "index",
        model.index_build_row * table.row_count,
        events=table.row_count,
    )
    database.indexes.create(
        statement.name, table, statement.column, kind=statement.kind
    )
    return ResultSet([], [])


def _execute_delete(statement: DeleteRows, database: "Database",
                    meter: CostMeter, model: CostModel) -> ResultSet:
    """Tombstone qualifying rows; returns the deleted count.

    Victim-finding goes through the same access-path planner as
    SELECT, so an indexed equality/range WHERE probes instead of
    scanning every page.  The in-place tombstoning itself is free in
    the model (the table's page count — hence future scan cost — does
    not shrink, as in a heap without vacuum), but each tombstoned row
    pays ``index_build_row`` per attached index for the entry removals,
    mirroring the per-entry charge CREATE INDEX pays to add them.
    """
    table = database.table(statement.table)
    plan = plan_access_path(statement.where, table, database, model)
    predicate = compile_predicate(statement.where, table.schema)
    victims = [
        tid
        for tid, row in fetch_candidates(plan, table, meter, model)
        if predicate(row)
    ]
    for tid in victims:
        table.delete(tid)
    maintenance = len(victims) * table.index_count
    if maintenance:
        meter.charge(
            "index", model.index_build_row * maintenance, events=maintenance
        )
    return ResultSet(["deleted"], [(len(victims),)])


def _execute_insert(statement: InsertValues, database: "Database",
                    meter: CostMeter, model: CostModel) -> ResultSet:
    table = database.table(statement.table)
    schema = table.schema
    if statement.columns:
        positions = [schema.index_of(name) for name in statement.columns]
        if len(positions) != len(schema):
            raise SQLError(
                "partial-column INSERT is not supported (no defaults)"
            )
        for values in statement.rows:
            row: list[SQLValue] = [None] * len(schema)
            for position, value in zip(positions, values):
                row[position] = value
            table.insert(row)
    else:
        for values in statement.rows:
            table.insert(values)
    # Each inserted row pays one index-maintenance entry per attached
    # index — the same per-entry rate CREATE INDEX charges, so
    # build-now vs build-later strategies meter consistently.
    maintenance = len(statement.rows) * table.index_count
    if maintenance:
        meter.charge(
            "index", model.index_build_row * maintenance, events=maintenance
        )
    return ResultSet([], [])


# ---------------------------------------------------------------------------
# EXPLAIN
# ---------------------------------------------------------------------------


def _execute_explain(statement: Explain, database: "Database",
                     meter: CostMeter, model: CostModel) -> ResultSet:
    """Run the inner statement; report plan plus estimated vs actual cost.

    The inner statement really executes (EXPLAIN ANALYZE style), so the
    "actual" numbers are genuine meter charges, and an EXPLAINed DML
    statement has its usual side effects.
    """
    inner = statement.statement
    # EXPLAIN estimates a plan without executing it; planning must
    # stay free or EXPLAIN would perturb the meter it reports on.
    plan = _planned_access(inner, database, model)
    lines: list[str] = [f"Statement: {inner.to_sql()}"]
    if plan is not None:
        lines.append(f"Plan: {plan.describe()}")
        alternative = plan.describe_alternative()
        if alternative is not None:
            lines.append(f"Rejected: {alternative}")
        table = database.table(_single_table(inner) or "")
        lines.append(
            f"Estimated qualifying rows: {plan.est_rows} of "
            f"{table.row_count} (selectivity {plan.selectivity:.3f})"
        )
        lines.append(f"Estimated access cost: {plan.est_cost:.2f}")
    else:
        lines.append("Plan: (no single-table access path)")
    snapshot = meter.snapshot()
    choices: list[AggregateChoice] = []
    execute_statement(inner, database, meter, model, choices)
    for choice in dict.fromkeys(choices):
        branches = choices.count(choice)
        lines.append(
            f"Aggregate: {choice.describe()}"
            + (f" x{branches} branches" if branches > 1 else "")
        )
    actual = meter.since(snapshot)
    total = meter.total_since(snapshot)
    parts = ", ".join(
        f"{category}={amount:.2f}"
        for category, amount in sorted(actual.items())
        if amount > 0
    )
    lines.append(f"Actual charges: total={total:.2f} ({parts})")
    return ResultSet(["plan"], [(line,) for line in lines])


def _single_table(statement: Statement) -> Optional[str]:
    """The statement's single base table, when the planner applies."""
    if isinstance(statement, Select) and not statement.is_join:
        return statement.table
    if isinstance(statement, DeleteRows):
        return statement.table
    return None


def _planned_access(statement: Statement, database: "Database",
                    model: CostModel) -> Optional[AccessPlan]:
    """The access plan EXPLAIN reports, or None for unplanned shapes."""
    table_name = _single_table(statement)
    if table_name is None or not database.has_table(table_name):
        return None
    where = statement.where if isinstance(
        statement, (Select, DeleteRows)
    ) else None
    return plan_access_path(where, database.table(table_name),
                            database, model)
