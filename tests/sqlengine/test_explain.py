"""EXPLAIN statement: parsing, golden plan output, planner crossover."""

import pytest

from repro.common.errors import SQLSyntaxError
from repro.sqlengine.ast_nodes import Explain, Select
from repro.sqlengine.database import SQLServer
from repro.sqlengine.parser import parse
from repro.sqlengine.schema import TableSchema


@pytest.fixture
def server():
    # 8 KiB pages: 100 rows fit on one page, so only a very narrow
    # probe beats the scan — the crossover both tests below pin.
    server = SQLServer()
    server.create_table("t", TableSchema.of(("a", "int"), ("b", "int")))
    server.bulk_load("t", [(i % 2, i) for i in range(100)])
    server.execute("CREATE INDEX ix_b ON t (b) USING range")
    return server


def plan_lines(server, sql):
    result = server.execute(sql)
    assert result.columns == ["plan"]
    return [row[0] for row in result.rows]


class TestParsing:
    def test_explain_wraps_statement(self):
        statement = parse("EXPLAIN SELECT * FROM t")
        assert isinstance(statement, Explain)
        assert isinstance(statement.statement, Select)
        assert statement.to_sql() == "EXPLAIN SELECT * FROM t"

    def test_nested_explain_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("EXPLAIN EXPLAIN SELECT * FROM t")

    def test_bare_explain_rejected(self):
        with pytest.raises(SQLSyntaxError):
            parse("EXPLAIN")

    def test_create_index_using_kinds(self):
        assert parse("CREATE INDEX i ON t (a) USING range").kind == "range"
        assert parse("CREATE INDEX i ON t (a) USING hash").kind == "hash"
        assert parse("CREATE INDEX i ON t (a)").kind == "hash"
        with pytest.raises(SQLSyntaxError):
            parse("CREATE INDEX i ON t (a) USING btree")


class TestGoldenOutput:
    def test_index_scan_at_high_selectivity(self, server):
        lines = plan_lines(server, "EXPLAIN SELECT * FROM t WHERE b = 7")
        assert lines[0] == "Statement: SELECT * FROM t WHERE b = 7"
        assert lines[1] == "Plan: IndexScan(ix_b range: b = 7) " \
                           "tids=1 cost=0.55"
        assert lines[2] == "Rejected: SeqScan(t) pages=1 cost=1.00"
        assert lines[3] == (
            "Estimated qualifying rows: 1 of 100 (selectivity 0.010)"
        )
        assert lines[4] == "Estimated access cost: 0.55"
        assert lines[5].startswith("Actual charges: total=")
        # Estimated access charge == actual index charge.
        assert "index=0.55" in lines[5]

    def test_seq_scan_at_low_selectivity_same_table(self, server):
        lines = plan_lines(server, "EXPLAIN SELECT * FROM t WHERE b >= 0")
        assert lines[1] == "Plan: SeqScan(t) pages=1 cost=1.00"
        assert lines[2] == "Rejected: IndexScan(ix_b range: " \
                           "0 <= b) tids=100 cost=5.50"
        assert "server_io=1.00" in lines[-1]

    def test_range_interval_rendering(self, server):
        lines = plan_lines(
            server, "EXPLAIN SELECT * FROM t WHERE b >= 3 AND b < 6"
        )
        assert lines[1] == "Plan: IndexScan(ix_b range: 3 <= b < 6) " \
                           "tids=3 cost=0.65"

    def test_aggregate_line_names_the_implementation_that_ran(self, server):
        pytest.importorskip("numpy")
        lines = plan_lines(
            server, "EXPLAIN SELECT a, COUNT(*) FROM t WHERE b <> 7 GROUP BY a"
        )
        assert lines[1] == "Plan: SeqScan(t) pages=1 cost=1.00"
        assert lines[-2] == ("Aggregate: vector (COUNT(*) over the "
                             "table's columnar encoding)")
        assert lines[-1].startswith("Actual charges: total=")
        # Same statement shape, but the planner prefers the index.
        lines = plan_lines(
            server, "EXPLAIN SELECT a, COUNT(*) FROM t WHERE b = 7 GROUP BY a"
        )
        assert lines[-2] == "Aggregate: row (the planner chose an index probe)"

    def test_explain_executes_the_inner_statement(self, server):
        lines = plan_lines(server, "EXPLAIN DELETE FROM t WHERE b = 7")
        assert lines[0] == "Statement: DELETE FROM t WHERE b = 7"
        assert "IndexScan" in lines[1]
        # EXPLAIN ANALYZE semantics: the row really is gone.
        assert len(server.execute("SELECT * FROM t WHERE b = 7")) == 0

    def test_unplanned_statement_reports_gracefully(self, server):
        lines = plan_lines(server, "EXPLAIN INSERT INTO t VALUES (1, 200)")
        assert lines[1] == "Plan: (no single-table access path)"
        assert lines[-1].startswith("Actual charges: total=")
        assert len(server.execute("SELECT * FROM t WHERE b = 200")) == 1

    def test_actual_charges_match_estimate_for_chosen_path(self, server):
        lines = plan_lines(server, "EXPLAIN SELECT * FROM t WHERE b = 7")
        estimated = float(lines[4].split(": ")[1])
        actual = dict(
            part.split("=")
            for part in lines[5].split("(")[1].rstrip(")").split(", ")
        )
        assert float(actual["index"]) == pytest.approx(estimated)


class TestStatisticsEstimates:
    def test_estimates_track_distinct_keys(self, server):
        # a has 2 distinct values: eq selectivity 1/2 -> ~50 rows.
        lines = plan_lines(server, "EXPLAIN SELECT * FROM t WHERE a = 1")
        assert any(
            "Estimated qualifying rows: 50 of 100" in line for line in lines
        )

    def test_estimates_refresh_after_mutation(self, server):
        server.execute("DELETE FROM t WHERE b >= 50")
        lines = plan_lines(server, "EXPLAIN SELECT * FROM t WHERE a = 1")
        assert any("of 50 (" in line for line in lines)
