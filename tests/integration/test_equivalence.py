"""Integration: every data-access strategy grows the identical tree.

The paper's architecture promises that scheduling, staging, filter
push-down, auxiliary structures and the SQL fallback are pure
performance decisions — "this approach does not affect the decision
tree that is finally produced by the classifier."  These tests pin that
guarantee across every configuration on two workloads.
"""

import pytest

from repro.client.baselines import (
    extract_all_fit,
    grow_in_memory,
    sql_counting_fit,
)
from repro.client.decision_tree import DecisionTreeClassifier
from repro.client.growth import GrowthPolicy
from repro.core.config import MiddlewareConfig
from repro.core.middleware import Middleware
from repro.datagen.census import CensusConfig, census_spec, generate_census_rows
from repro.datagen.loader import load_dataset
from repro.sqlengine.database import SQLServer

from ..conftest import tree_signature

CONFIGS = {
    "no_staging": MiddlewareConfig.no_staging(500_000),
    "memory_only": MiddlewareConfig.memory_only(500_000),
    "file_only_singleton": MiddlewareConfig.file_only(
        500_000, split_threshold=0.0
    ),
    "file_only_per_node": MiddlewareConfig.file_only(
        500_000, split_threshold=1.0
    ),
    "full_hybrid": MiddlewareConfig(memory_bytes=500_000),
    "tiny_memory_sql_fallback": MiddlewareConfig.no_staging(600),
    "no_filter_pushdown": MiddlewareConfig(
        memory_bytes=500_000, push_filters=False
    ),
    "aux_temp_table": MiddlewareConfig.no_staging(
        500_000, aux_strategy="temp_table"
    ),
    "aux_tid_join": MiddlewareConfig.no_staging(
        500_000, aux_strategy="tid_join"
    ),
    "aux_keyset": MiddlewareConfig.no_staging(500_000, aux_strategy="keyset"),
    "aux_auto": MiddlewareConfig.no_staging(500_000, aux_strategy="auto"),
    "aux_auto_blind": MiddlewareConfig.no_staging(
        500_000, aux_strategy="auto", scan_use_planner=False
    ),
    "tight_file_budget": MiddlewareConfig(
        memory_bytes=500_000, file_budget_bytes=500
    ),
    # One worker, 8-row chunks: every scan is several partitions
    # long on the inline executor (merge, in-place staging, admission
    # after the last partition).
    "inline_full_hybrid": MiddlewareConfig(
        memory_bytes=500_000, scan_workers=1, scan_chunk_rows=8
    ),
    "inline_file_only_per_node": MiddlewareConfig.file_only(
        500_000, split_threshold=1.0, scan_workers=1, scan_chunk_rows=8,
    ),
    "inline_tiny_memory_sql_fallback": MiddlewareConfig.no_staging(
        600, scan_workers=1, scan_chunk_rows=8
    ),
}


def fit_with(server, spec, config):
    with Middleware(server, "data", spec, config) as mw:
        return DecisionTreeClassifier().fit(mw)


class TestRandomTreeWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        from repro.datagen.random_tree import (
            RandomTreeConfig,
            build_random_tree,
        )

        generating = build_random_tree(
            RandomTreeConfig(
                n_attributes=10,
                values_per_attribute=3,
                n_classes=5,
                n_leaves=25,
                cases_per_leaf=20,
                seed=21,
            )
        )
        rows = generating.materialize()
        server = SQLServer()
        load_dataset(server, "data", generating.spec, rows)
        reference = grow_in_memory(rows, generating.spec, GrowthPolicy())
        return server, generating.spec, rows, tree_signature(reference.root)

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_middleware_config_equivalence(self, workload, name):
        server, spec, _, reference = workload
        model = fit_with(server, spec, CONFIGS[name])
        assert tree_signature(model.tree.root) == reference

    def test_sql_counting_equivalence(self, workload):
        server, spec, _, reference = workload
        tree = sql_counting_fit(server, "data", spec, GrowthPolicy())
        assert tree_signature(tree.root) == reference

    def test_extract_all_equivalence(self, workload):
        server, spec, _, reference = workload
        tree = extract_all_fit(server, "data", spec, GrowthPolicy())
        assert tree_signature(tree.root) == reference

    def test_fallback_actually_happened(self, workload):
        server, spec, _, __ = workload
        with Middleware(
            server, "data", spec, CONFIGS["tiny_memory_sql_fallback"]
        ) as mw:
            DecisionTreeClassifier().fit(mw)
            assert mw.stats.sql_fallbacks > 0


class TestEveryCriterionOnWideBatches:
    """The client searches a scan's whole batch at once; the reference
    grower one node at a time.  Both must grow the same tree for every
    criterion and both split families, on batches of 60+ nodes."""

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.datagen.random_tree import (
            RandomTreeConfig,
            build_random_tree,
        )

        generating = build_random_tree(RandomTreeConfig(
            n_attributes=10, values_per_attribute=3, n_classes=4,
            n_leaves=300, cases_per_leaf=10, seed=5,
        ))
        rows = generating.materialize()
        server = SQLServer()
        load_dataset(server, "data", generating.spec, rows)
        return server, generating.spec, rows

    @pytest.mark.parametrize("binary", [True, False],
                             ids=["binary", "multiway"])
    @pytest.mark.parametrize("criterion",
                             ["entropy", "gini", "gain_ratio", "chi2"])
    def test_batched_search_grows_the_one_node_tree(self, workload,
                                                    criterion, binary):
        server, spec, rows = workload
        # Everything staged in memory after the root scan: each later
        # scan serves as much of the frontier as memory admits.
        config = MiddlewareConfig(
            memory_bytes=2 * server.table("data").size_bytes, scan_workers=1
        )
        with Middleware(server, "data", spec, config) as mw:
            model = DecisionTreeClassifier(
                criterion=criterion, binary_splits=binary
            ).fit(mw)
            widest = max(len(record.batch) for record in mw.trace)
        assert widest >= 60
        reference = grow_in_memory(
            rows, spec, GrowthPolicy(criterion=criterion, binary_splits=binary)
        )
        assert tree_signature(model.tree.root) == tree_signature(
            reference.root
        )


class TestCensusWorkload:
    @pytest.fixture(scope="class")
    def workload(self):
        spec = census_spec()
        rows = list(generate_census_rows(CensusConfig(n_rows=1200, seed=3)))
        server = SQLServer()
        load_dataset(server, "data", spec, rows)
        policy = GrowthPolicy(max_depth=6)
        reference = grow_in_memory(rows, spec, policy)
        return server, spec, tree_signature(reference.root)

    @pytest.mark.parametrize(
        "name",
        ["no_staging", "full_hybrid", "memory_only", "file_only_per_node",
         "tiny_memory_sql_fallback", "inline_full_hybrid",
         "inline_file_only_per_node", "inline_tiny_memory_sql_fallback"],
    )
    def test_census_equivalence(self, workload, name):
        server, spec, reference = workload
        with Middleware(server, "data", spec, CONFIGS[name]) as mw:
            model = DecisionTreeClassifier(max_depth=6).fit(mw)
        assert tree_signature(model.tree.root) == reference


class TestDerivedSiblingsOnEveryExecutor:
    """A split's largest child is derived from its parent's table when
    its siblings share its batch; the tree must not notice, whatever the
    criterion, split family, plan or executor."""

    PLANS = {
        "staged": lambda **kw: MiddlewareConfig(memory_bytes=500_000, **kw),
        "no_staging": lambda **kw: MiddlewareConfig.no_staging(
            500_000, **kw
        ),
    }
    #: 16-row chunks: the pools' sources are several partitions long.
    EXECUTORS = {
        "inline": dict(scan_workers=1),
        "thread2": dict(scan_workers=2, scan_pool="thread"),
        "process2": dict(scan_workers=2, scan_pool="process"),
    }

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.datagen.random_tree import (
            RandomTreeConfig,
            build_random_tree,
        )

        generating = build_random_tree(RandomTreeConfig(
            n_attributes=6, values_per_attribute=3, n_classes=3,
            n_leaves=40, cases_per_leaf=12, seed=11,
        ))
        rows = generating.materialize()
        server = SQLServer()
        load_dataset(server, "data", generating.spec, rows)
        return server, generating.spec, rows, {}

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    @pytest.mark.parametrize("plan", sorted(PLANS))
    @pytest.mark.parametrize("binary", [True, False],
                             ids=["binary", "multiway"])
    @pytest.mark.parametrize("criterion",
                             ["entropy", "gini", "gain_ratio", "chi2"])
    def test_derived_fit_grows_the_in_memory_tree(self, workload, criterion,
                                                  binary, plan, executor):
        server, spec, rows, references = workload
        key = (criterion, binary)
        if key not in references:
            references[key] = tree_signature(grow_in_memory(
                rows, spec,
                GrowthPolicy(criterion=criterion, binary_splits=binary),
            ).root)
        config = self.PLANS[plan](scan_chunk_rows=16,
                                  **self.EXECUTORS[executor])
        with Middleware(server, "data", spec, config) as mw:
            model = DecisionTreeClassifier(
                criterion=criterion, binary_splits=binary
            ).fit(mw)
            assert any(record.derived for record in mw.trace)
            if executor != "inline":
                assert mw.stats.parallel_scans > 0
        assert tree_signature(model.tree.root) == references[key]


class TestTagRoutingOnEveryExecutor:
    """Memory sets route their rows by tag (``staging.RowTags``): a
    memory-staged fit must grow the in-memory tree whatever the
    criterion, split family or executor — with a §4.1.1 deferral too."""

    EXECUTORS = TestDerivedSiblingsOnEveryExecutor.EXECUTORS

    @pytest.fixture(scope="class")
    def workload(self):
        from repro.datagen.random_tree import (
            RandomTreeConfig,
            build_random_tree,
        )

        generating = build_random_tree(RandomTreeConfig(
            n_attributes=6, values_per_attribute=3, n_classes=3,
            n_leaves=40, cases_per_leaf=12, seed=11,
        ))
        rows = generating.materialize()
        server = SQLServer()
        load_dataset(server, "data", generating.spec, rows)
        return server, generating.spec, rows, {}

    def fit(self, workload, criterion, binary, executor, memory_share):
        server, spec, rows, references = workload
        key = (criterion, binary)
        if key not in references:
            references[key] = tree_signature(grow_in_memory(
                rows, spec,
                GrowthPolicy(criterion=criterion, binary_splits=binary),
            ).root)
        config = MiddlewareConfig(
            memory_bytes=int(memory_share * server.table("data").size_bytes),
            scan_chunk_rows=16, **self.EXECUTORS[executor],
        )
        with Middleware(server, "data", spec, config) as mw:
            model = DecisionTreeClassifier(
                criterion=criterion, binary_splits=binary
            ).fit(mw)
            tagged = [r for r in mw.trace if r.routing == "tag"]
            assert tagged and mw.stats.tag_routed_scans == len(tagged)
            if executor != "inline":
                # The rows' slots travel with the pooled slices.
                assert any(record.workers == 2 for record in tagged)
        assert tree_signature(model.tree.root) == references[key]
        return tagged

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    @pytest.mark.parametrize("binary", [True, False],
                             ids=["binary", "multiway"])
    @pytest.mark.parametrize("criterion",
                             ["entropy", "gini", "gain_ratio", "chi2"])
    def test_tag_routed_fit_grows_the_in_memory_tree(
            self, workload, criterion, binary, executor):
        self.fit(workload, criterion, binary, executor, 2.0)

    @pytest.mark.parametrize("executor", sorted(EXECUTORS))
    def test_a_deferred_node_is_retried_by_tag(self, workload, executor,
                                               monkeypatch):
        # Every child's CC estimate one pair, and memory for little but
        # the staged rows: admission defers nodes of tag-routed scans.
        import repro.client.decision_tree as decision_tree

        monkeypatch.setattr(decision_tree, "estimate_cc_pairs",
                            lambda *args: 1)
        tagged = self.fit(workload, "entropy", True, executor, 1.1)
        assert any(record.deferrals for record in tagged)
