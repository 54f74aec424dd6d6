"""Unit tests for SQL-based CC construction (§2.3 / §4.1.1)."""

import pytest

from repro.client.baselines import build_cc_from_rows
from repro.core.sql_counting import cc_statement, counts_via_sql
from repro.datagen import (
    AgrawalConfig,
    agrawal_spec,
    generate_agrawal_rows,
)
from repro.datagen.dataset import DatasetSpec
from repro.datagen.loader import load_dataset
from repro.sqlengine.ast_nodes import Select, UnionAll
from repro.sqlengine.expr import eq
from repro.sqlengine.parser import parse
from repro.sqlengine.database import SQLServer

SPEC = DatasetSpec([3, 4], 3)


@pytest.fixture
def server():
    rows = [
        (a1, a2, (a1 + a2) % 3)
        for a1 in range(3)
        for a2 in range(4)
        for _ in range(2)
    ]
    server = SQLServer()
    load_dataset(server, "data", SPEC, rows)
    server._test_rows = rows
    return server


class TestStatementShape:
    def test_one_branch_per_attribute(self):
        statement = cc_statement("data", ["A1", "A2"], "class")
        assert isinstance(statement, UnionAll)
        assert len(statement.selects) == 2

    def test_single_attribute_degenerates_to_select(self):
        statement = cc_statement("data", ["A1"], "class")
        assert isinstance(statement, Select)

    def test_branch_structure_matches_paper(self):
        statement = cc_statement("data", ["A1", "A2"], "class", eq("A1", 1))
        branch = statement.selects[1]
        assert branch.group_by == ["class", "A2"]
        assert branch.items[0].alias == "attr_name"
        assert branch.items[0].expression.value == "A2"
        assert branch.where == eq("A1", 1)

    def test_rendered_sql_parses(self):
        statement = cc_statement("data", ["A1", "A2"], "class", eq("A1", 1))
        parse(statement.to_sql())

    def test_empty_attributes_rejected(self):
        with pytest.raises(ValueError):
            cc_statement("data", [], "class")

    def test_keyword_class_column_is_sent_as_text(self):
        # Agrawal's class column is `group`; the §4.1.1 fallback and
        # the Fig. 7 baseline must be expressible as SQL text.
        spec = agrawal_spec()
        rows = list(generate_agrawal_rows(
            AgrawalConfig(function=2, n_rows=300, seed=3)
        ))
        server = SQLServer()
        load_dataset(server, "data", spec, rows)
        statement = cc_statement(
            "data", ["salary", "age"], spec.class_name, None
        )
        assert spec.class_name == "group"
        text = statement.to_sql()
        assert "[group] AS class_label" in text
        assert "GROUP BY [group], salary" in text
        assert parse(text).to_sql() == text
        assert sorted(server.execute(text)) == sorted(
            server.execute(statement)
        )


class TestCountsViaSQL:
    def test_matches_reference_counts(self, server):
        cc = counts_via_sql(server, "data", SPEC, ("A1", "A2"))
        expected = build_cc_from_rows(server._test_rows, SPEC, ("A1", "A2"))
        assert cc == expected

    def test_with_predicate(self, server):
        cc = counts_via_sql(server, "data", SPEC, ("A2",), eq("A1", 1))
        subset = [r for r in server._test_rows if r[0] == 1]
        assert cc == build_cc_from_rows(subset, SPEC, ("A2",))

    def test_record_total_recovered(self, server):
        cc = counts_via_sql(server, "data", SPEC, ("A1", "A2"))
        assert cc.records == len(server._test_rows)

    def test_charges_one_statement_and_per_branch_scans(self, server):
        server.meter.reset()
        counts_via_sql(server, "data", SPEC, ("A1", "A2"))
        assert server.meter.charges["query_overhead"] == pytest.approx(
            server.model.query_overhead
        )
        pages = server.table("data").pages_touched()
        assert server.meter.charges["server_io"] == pytest.approx(
            2 * pages * server.model.server_page_io
        )

    def test_empty_subset_yields_empty_cc(self, server):
        cc = counts_via_sql(server, "data", SPEC, ("A2",), eq("A1", 99))
        assert cc.records == 0
        assert cc.n_pairs == 0
