"""The ``auto`` server-access strategy: per-scan cost-based choice."""

import pytest

from repro.core.auxiliary import (
    PlainScanStrategy,
    PlannedScanStrategy,
    make_strategy,
)
from repro.common.errors import MiddlewareError
from repro.sqlengine.database import SQLServer
from repro.sqlengine.expr import all_of, eq
from repro.sqlengine.schema import TableSchema


@pytest.fixture
def server():
    # 1000 rows on several pages; a in 0..9 (10% each), b unique.
    server = SQLServer(page_bytes=1024)
    server.create_table("t", TableSchema.of(("a", "int"), ("b", "int")))
    server.bulk_load("t", [(i % 10, i) for i in range(1000)])
    server.execute("CREATE INDEX ix_b ON t (b) USING range")
    return server


def plain_rows(server, predicate, relevant):
    return sorted(PlainScanStrategy(server, "t").rows(predicate, relevant))


class TestFactory:
    def test_auto_maps_to_planned_strategy(self, server):
        strategy = make_strategy("auto", server, "t")
        assert isinstance(strategy, PlannedScanStrategy)

    def test_bad_threshold_rejected(self, server):
        with pytest.raises(MiddlewareError):
            PlannedScanStrategy(server, "t", build_threshold=0.0)


class TestPathChoice:
    def test_narrow_predicate_takes_the_index(self, server):
        strategy = make_strategy("auto", server, "t",
                                 build_threshold=0.0001)
        predicate = eq("b", 63)
        rows = sorted(strategy.rows(predicate, 1))
        assert rows == plain_rows(server, predicate, 1)
        assert strategy.last_choice.path == "index"
        assert "ix_b" in strategy.last_choice.detail
        strategy.close()

    def test_unindexed_predicate_scans(self, server):
        strategy = make_strategy("auto", server, "t",
                                 build_threshold=0.0001)
        predicate = eq("a", 3)  # no index on a, fraction above threshold
        rows = sorted(strategy.rows(predicate, 100))
        assert rows == plain_rows(server, predicate, 100)
        assert strategy.last_choice.path == "seq"
        strategy.close()

    def test_blind_baseline_never_probes(self, server):
        strategy = make_strategy("auto", server, "t",
                                 build_threshold=0.0001,
                                 use_planner=False)
        predicate = eq("b", 63)
        rows = sorted(strategy.rows(predicate, 1))
        assert rows == plain_rows(server, predicate, 1)
        assert strategy.last_choice.path == "seq"
        strategy.close()

    def test_planner_meters_no_worse_than_blind(self, server):
        predicate = eq("b", 63)
        meter = server.meter

        planner = make_strategy("auto", server, "t",
                                build_threshold=0.0001)
        snapshot = meter.snapshot()
        list(planner.rows(predicate, 1))
        planner_cost = meter.total_since(snapshot)

        blind = make_strategy("auto", server, "t",
                              build_threshold=0.0001, use_planner=False)
        snapshot = meter.snapshot()
        list(blind.rows(predicate, 1))
        blind_cost = meter.total_since(snapshot)
        assert planner_cost <= blind_cost
        planner.close()
        blind.close()

    def test_tid_list_built_and_served_when_cheapest(self, server):
        # 1 relevant row of 1000 and no usable index: building the TID
        # list projects cheaper than the scan, later batches serve it.
        server.execute("DROP INDEX ix_b")
        strategy = make_strategy("auto", server, "t")
        wide = eq("a", 3)
        rows = sorted(strategy.rows(wide, 100))
        assert rows == plain_rows(server, wide, 100)
        assert strategy.last_choice.path == "tid_join"
        assert strategy.has_structure
        narrow = all_of([eq("a", 3), eq("b", 63)])
        assert list(strategy.rows(narrow, 1)) == [(3, 63)]
        assert strategy.last_choice.path == "tid_join"
        strategy.close()

    def test_choice_estimate_equals_metered_charge(self, server):
        strategy = make_strategy("auto", server, "t",
                                 build_threshold=0.0001)
        predicate = eq("b", 63)
        snapshot = server.meter.snapshot()
        matched = list(strategy.rows(predicate, 1))
        charged = server.meter.since(snapshot)
        assert charged["index"] == pytest.approx(
            strategy.last_choice.est_cost
        )
        assert charged["transfer"] == pytest.approx(
            server.model.transfer_per_row * len(matched)
        )
        strategy.close()


class TestMiddlewareIntegration:
    def fit(self, config, index_sql=None):
        from repro.client.decision_tree import DecisionTreeClassifier
        from repro.core.middleware import Middleware
        from repro.datagen.loader import load_dataset
        from repro.datagen.random_tree import (
            RandomTreeConfig,
            build_random_tree,
        )

        generating = build_random_tree(
            RandomTreeConfig(
                n_attributes=6,
                values_per_attribute=3,
                n_classes=3,
                n_leaves=10,
                cases_per_leaf=20,
                seed=13,
            )
        )
        server = SQLServer()
        load_dataset(server, "data", generating.spec, generating.materialize())
        if index_sql:
            server.execute(index_sql)
        with Middleware(server, "data", generating.spec, config) as mw:
            tree = DecisionTreeClassifier().fit(mw)
            return server, mw, tree

    def test_trace_records_access_path(self):
        from repro.core.config import MiddlewareConfig

        _, mw, _ = self.fit(
            MiddlewareConfig.no_staging(500_000, aux_strategy="auto"),
            index_sql="CREATE INDEX ix_a1 ON data (A1)",
        )
        server_records = mw.trace.by_mode("SERVER")
        assert server_records
        assert all(r.access_path for r in server_records)
        # The root scan has no filter: nothing to probe, seq it is.
        assert server_records[0].access_path == "seq"
        assert "via=seq" in str(server_records[0])

    def test_planner_fit_no_costlier_than_blind(self):
        from repro.core.config import MiddlewareConfig
        from tests.conftest import tree_signature

        index_sql = "CREATE INDEX ix_a1 ON data (A1)"
        planner_server, _, planner_tree = self.fit(
            MiddlewareConfig.no_staging(500_000, aux_strategy="auto"),
            index_sql=index_sql,
        )
        blind_server, _, blind_tree = self.fit(
            MiddlewareConfig.no_staging(
                500_000, aux_strategy="auto", scan_use_planner=False
            ),
            index_sql=index_sql,
        )
        assert tree_signature(planner_tree.tree.root) == \
            tree_signature(blind_tree.tree.root)
        assert planner_server.meter.total <= blind_server.meter.total
