"""Unit tests for the reference grower and the §2.3 straw men."""

import pytest

from repro.client.baselines import (
    build_cc_from_rows,
    extract_all_fit,
    grow_in_memory,
    sql_counting_fit,
)
from repro.client.growth import GrowthPolicy
from repro.datagen.census import (
    CensusConfig,
    census_spec,
    generate_census_rows,
)
from repro.datagen.loader import load_dataset
from repro.sqlengine.database import SQLServer
from repro.sqlengine.heap import HeapTable

from ..conftest import tree_signature


class TestBuildCCFromRows:
    def test_counts(self, small_tree_dataset):
        generating, rows = small_tree_dataset
        cc = build_cc_from_rows(rows, generating.spec, ("A1",))
        assert cc.records == len(rows)
        assert sum(cc.class_totals()) == len(rows)


class TestGrowInMemory:
    def test_classifies_training_data_perfectly(self, small_tree_dataset):
        generating, rows = small_tree_dataset
        tree = grow_in_memory(rows, generating.spec, GrowthPolicy())
        assert tree.accuracy(rows) == 1.0

    def test_leaf_support_partitions_data(self, small_tree_dataset):
        generating, rows = small_tree_dataset
        tree = grow_in_memory(rows, generating.spec, GrowthPolicy())
        assert sum(s for _, _, s in tree.rules()) == len(rows)


class TestStrawMen:
    def test_all_strategies_grow_identical_trees(self, loaded_server):
        server, spec, rows = loaded_server
        policy = GrowthPolicy()
        reference = grow_in_memory(rows, spec, policy)
        via_sql = sql_counting_fit(server, "data", spec, policy)
        via_extract = extract_all_fit(server, "data", spec, policy)
        assert tree_signature(via_sql.root) == tree_signature(reference.root)
        assert tree_signature(via_extract.root) == tree_signature(
            reference.root
        )

    def test_sql_counting_pays_per_node_query_overhead(self, loaded_server):
        server, spec, _ = loaded_server
        server.meter.reset()
        tree = sql_counting_fit(server, "data", spec, GrowthPolicy())
        statements = server.meter.charges["query_overhead"] / (
            server.model.query_overhead
        )
        counted_nodes = sum(
            1 for n in tree.walk()
            if not n.is_leaf or n.split_attribute is not None or n.parent is None
        )
        # One statement per node that actually got counted; at minimum
        # one per internal node plus the root.
        internal = sum(1 for n in tree.walk() if not n.is_leaf)
        assert statements >= internal

    def test_sql_counting_reads_the_heap_once_per_table_version(
        self, monkeypatch
    ):
        """A count, not a clock: every branch of every statement is a
        metered scan, but the rows leave the heap once per consumer
        per table version (one encode, one statistics pass per filter
        column) — never once per branch, as the row path would."""
        pytest.importorskip("numpy")
        pulls = {"scan": 0, "scan_rows": 0}
        for name in pulls:
            original = getattr(HeapTable, name)

            def counting(self, _name=name, _original=original):
                pulls[_name] += 1
                return _original(self)

            monkeypatch.setattr(HeapTable, name, counting)

        spec = census_spec()
        rows = list(generate_census_rows(CensusConfig(n_rows=2000, seed=3)))
        server = SQLServer()
        load_dataset(server, "data", spec, rows)
        policy = GrowthPolicy(max_depth=3)

        first = sql_counting_fit(server, "data", spec, policy)
        branch_scans = server.meter.counts["server_io"] // (
            server.table("data").pages_touched()
        )
        assert branch_scans > 20
        assert pulls["scan"] == 0
        assert 1 <= pulls["scan_rows"] <= 1 + spec.n_attributes

        pulls["scan_rows"] = 0
        again = sql_counting_fit(server, "data", spec, policy)
        assert pulls == {"scan": 0, "scan_rows": 0}
        reference = grow_in_memory(rows, spec, policy)
        assert tree_signature(first.root) == tree_signature(reference.root)
        assert tree_signature(again.root) == tree_signature(reference.root)

        server.execute("DELETE FROM data WHERE sex = 0")  # new version
        pulls.update(scan=0, scan_rows=0)
        sql_counting_fit(server, "data", spec, policy)
        assert pulls["scan"] == 0
        assert 1 <= pulls["scan_rows"] <= 1 + spec.n_attributes

    def test_extract_all_transfers_whole_table_once(self, loaded_server):
        server, spec, rows = loaded_server
        server.meter.reset()
        extract_all_fit(server, "data", spec, GrowthPolicy())
        assert server.meter.charges["transfer"] == pytest.approx(
            len(rows) * server.model.transfer_per_row
        )
        # Client-side passes are charged at the local-file rate.
        assert server.meter.charges["file_read"] > 0

    def test_sql_counting_much_more_expensive_than_extract(
        self, loaded_server
    ):
        server, spec, _ = loaded_server
        server.meter.reset()
        sql_counting_fit(server, "data", spec, GrowthPolicy())
        sql_cost = server.meter.total
        server.meter.reset()
        extract_all_fit(server, "data", spec, GrowthPolicy())
        extract_cost = server.meter.total
        assert sql_cost > 2 * extract_cost
