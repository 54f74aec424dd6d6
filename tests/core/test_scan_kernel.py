"""Unit tests for the routing kernel and the scan's profiling layer.

`repro.core.filters.RoutingKernel` compiles a batch's path conditions
into dispatch tables; `oracle.route_row` is their scalar spelling,
which must agree with `PathCondition.matches`, and the scan loop
(`vector_kernel`, which evaluates the same tables column-at-a-time)
must count what the per-row oracle (`build_cc_from_rows`) counts at
any chunk size.
"""

import pytest

from repro.client.baselines import build_cc_from_rows, grow_in_memory
from repro.client.decision_tree import DecisionTreeClassifier
from repro.client.growth import GrowthPolicy
from repro.core.config import MiddlewareConfig
from repro.core.filters import PathCondition, RoutingKernel
from repro.core.middleware import Middleware
from repro.core.requests import CountsRequest
from repro.datagen.dataset import DatasetSpec
from repro.datagen.loader import load_dataset
from repro.datagen.random_tree import RandomTreeConfig, build_random_tree
from repro.sqlengine.database import SQLServer

from ..conftest import tree_signature
from .oracle import route_row

ATTR_INDEX = {"A1": 0, "A2": 1, "A3": 2}


def kernel_for(*condition_sets):
    return RoutingKernel(condition_sets, ATTR_INDEX)


class TestRoutingKernel:
    def test_unconditioned_slot_matches_everything(self):
        kernel = kernel_for(())
        assert route_row(kernel, (0, 1, 2)) == 0b1
        assert kernel.n_probes == 0

    def test_equality_dispatch(self):
        kernel = kernel_for(
            (PathCondition("A1", "=", 0),),
            (PathCondition("A1", "=", 1),),
        )
        assert route_row(kernel, (0, 9, 9)) == 0b01
        assert route_row(kernel, (1, 9, 9)) == 0b10
        assert route_row(kernel, (2, 9, 9)) == 0

    def test_inequality_dispatch(self):
        kernel = kernel_for(
            (PathCondition("A1", "=", 0),),
            (PathCondition("A1", "<>", 0),),
        )
        assert route_row(kernel, (0, 0, 0)) == 0b01
        assert route_row(kernel, (5, 0, 0)) == 0b10

    def test_repeated_inequalities_on_one_attribute(self):
        # The "other" branch of successive binary splits on A1.
        kernel = kernel_for(
            (PathCondition("A1", "<>", 0), PathCondition("A1", "<>", 1)),
        )
        assert route_row(kernel, (0, 0, 0)) == 0
        assert route_row(kernel, (1, 0, 0)) == 0
        assert route_row(kernel, (2, 0, 0)) == 0b1

    def test_equality_and_inequality_on_one_attribute(self):
        kernel = kernel_for(
            (PathCondition("A1", "=", 1), PathCondition("A1", "<>", 0)),
        )
        assert route_row(kernel, (1, 0, 0)) == 0b1
        assert route_row(kernel, (0, 0, 0)) == 0
        assert route_row(kernel, (2, 0, 0)) == 0

    def test_contradictory_equalities_never_match(self):
        kernel = kernel_for(
            (PathCondition("A1", "=", 0), PathCondition("A1", "=", 1)),
        )
        for value in range(3):
            assert route_row(kernel, (value, 0, 0)) == 0

    def test_multi_attribute_conjunction(self):
        kernel = kernel_for(
            (PathCondition("A1", "=", 0), PathCondition("A2", "=", 1)),
            (PathCondition("A1", "=", 0), PathCondition("A2", "<>", 1)),
        )
        assert route_row(kernel, (0, 1, 0)) == 0b01
        assert route_row(kernel, (0, 2, 0)) == 0b10
        assert route_row(kernel, (1, 1, 0)) == 0
        assert kernel.n_probes == 2

    def test_probe_count_is_depth_not_nodes(self):
        # Five nodes all splitting on the same attribute: one probe.
        kernel = kernel_for(
            *[(PathCondition("A1", "=", v),) for v in range(5)]
        )
        assert kernel.n_probes == 1
        assert kernel.n_slots == 5

    def test_matches_reference_matchers_on_random_batches(self):
        import itertools

        condition_sets = [
            (),
            (PathCondition("A1", "=", 0),),
            (PathCondition("A1", "<>", 0), PathCondition("A2", "=", 2),),
            (PathCondition("A1", "<>", 0), PathCondition("A2", "<>", 2),
             PathCondition("A3", "=", 1),),
            (PathCondition("A2", "=", 1), PathCondition("A3", "<>", 0),),
        ]
        kernel = kernel_for(*condition_sets)
        for row in itertools.product(range(3), repeat=3):
            expected = 0
            for slot, conditions in enumerate(condition_sets):
                if all(
                    c.matches(row[ATTR_INDEX[c.attribute]])
                    for c in conditions
                ):
                    expected |= 1 << slot
            assert route_row(kernel, row) == expected, row

    def test_compiles_the_tables_the_reference_construction_builds(self):
        import random

        rng = random.Random(7)
        values = [0, 1, 2, None, "x"]

        def condition():
            return PathCondition(
                rng.choice(list(ATTR_INDEX)), rng.choice(["=", "<>"]),
                rng.choice(values),
            )

        shapes = [
            [()] * 3,  # nothing constrained: no probe at all
            [(PathCondition("A1", "<>", 0), PathCondition("A1", "<>", 1),
              PathCondition("A1", "<>", 0))],
            [(PathCondition("A1", "=", 1), PathCondition("A1", "<>", 1)),
             (PathCondition("A1", "=", 1), PathCondition("A1", "<>", 0))],
            [(PathCondition("A1", "=", 0), PathCondition("A1", "=", 1)), ()],
        ]
        for n_slots in (1, 2, 7, 63, 200):
            for _ in range(15):
                shapes.append([
                    tuple(condition() for _ in range(rng.randint(0, 5)))
                    for _ in range(n_slots)
                ])
        for condition_sets in shapes:
            kernel = kernel_for(*condition_sets)
            probes, full_mask = reference_probes(condition_sets, ATTR_INDEX)
            assert kernel.full_mask == full_mask
            assert kernel.probes == probes


def reference_probes(condition_sets, attr_index):
    """``RoutingKernel``'s dispatch tables as they were first built:
    every interesting value of every probed attribute against every
    slot of the batch — O(attributes x values x slots)."""
    n_slots = len(condition_sets)
    by_attr = {}
    for slot, conditions in enumerate(condition_sets):
        for condition in conditions:
            eq_values, ne_values = by_attr.setdefault(
                condition.attribute, {}
            ).setdefault(slot, (set(), set()))
            if condition.op == "=":
                eq_values.add(condition.value)
            else:
                ne_values.add(condition.value)
    probes = []
    for attribute, constrained in by_attr.items():
        interesting = set()
        for eq_values, ne_values in constrained.values():
            interesting |= eq_values
            interesting |= ne_values
        default = 0
        for slot in range(n_slots):
            pair = constrained.get(slot)
            if pair is None or not pair[0]:
                default |= 1 << slot
        table = {}
        for value in interesting:
            mask = 0
            for slot in range(n_slots):
                pair = constrained.get(slot)
                if pair is None:
                    mask |= 1 << slot
                    continue
                eq_values, ne_values = pair
                if eq_values and eq_values != {value}:
                    continue
                if value in ne_values:
                    continue
                mask |= 1 << slot
            table[value] = mask
        probes.append((attr_index[attribute], table, default))
    return tuple(probes), (1 << n_slots) - 1


# ---------------------------------------------------------------------------
# the scan loop vs the per-row oracle, through the middleware
# ---------------------------------------------------------------------------

SPEC = DatasetSpec([3, 3], 3)


def dataset_rows():
    rows = []
    label = 0
    for a1 in range(3):
        for a2 in range(3):
            for _ in range(a1 + a2 + 1):
                rows.append((a1, a2, label % 3))
                label += 1
    return rows


def make_server(rows):
    server = SQLServer()
    load_dataset(server, "data", SPEC, rows)
    return server


def child_request(node_id, value, rows):
    subset = [r for r in rows if r[0] == value]
    return CountsRequest(
        node_id=node_id,
        lineage=("root", node_id),
        conditions=(PathCondition("A1", "=", value),),
        attributes=("A2",),
        n_rows=len(subset),
        est_cc_pairs=3,
    )


def frontier_results(**config_overrides):
    rows = dataset_rows()
    server = make_server(rows)
    config_overrides.setdefault("memory_bytes", 100_000)
    with Middleware(
        server, "data", SPEC, MiddlewareConfig(**config_overrides)
    ) as mw:
        for value in range(3):
            mw.queue_request(child_request(f"n{value}", value, rows))
        results = {}
        while mw.pending:
            for result in mw.process_next_batch():
                results[result.node_id] = result
        return results, mw.trace


class TestKernelEquivalence:
    @pytest.mark.parametrize("chunk_rows", [1, 7, 1024])
    def test_frontier_counts_equal_the_oracle(self, chunk_rows):
        results, _ = frontier_results(scan_chunk_rows=chunk_rows)
        rows = dataset_rows()
        assert set(results) == {"n0", "n1", "n2"}
        for value in range(3):
            subset = [r for r in rows if r[0] == value]
            reference = build_cc_from_rows(subset, SPEC, ("A2",))
            assert results[f"n{value}"].cc == reference

    def test_full_fit_grows_the_in_memory_tree(self):
        generating = build_random_tree(
            RandomTreeConfig(
                n_attributes=6,
                values_per_attribute=3,
                n_classes=3,
                n_leaves=8,
                cases_per_leaf=12,
                seed=17,
            )
        )
        rows = generating.materialize()
        server = SQLServer()
        load_dataset(server, "data", generating.spec, rows)
        config = MiddlewareConfig(memory_bytes=50_000)
        with Middleware(server, "data", generating.spec, config) as mw:
            classifier = DecisionTreeClassifier()
            classifier.fit(mw)
        oracle = grow_in_memory(rows, generating.spec, GrowthPolicy())
        assert tree_signature(classifier.tree.root) == tree_signature(
            oracle.root
        )

    def test_staged_rows_are_the_source_rows_in_order(self):
        for chunk_rows in (1, 4, 1024):
            rows = dataset_rows()
            server = make_server(rows)
            config = MiddlewareConfig(
                memory_bytes=100_000,
                memory_staging=False,
                scan_chunk_rows=chunk_rows,
            )
            with Middleware(server, "data", SPEC, config) as mw:
                mw.queue_request(
                    CountsRequest(
                        node_id="root",
                        lineage=("root",),
                        conditions=(),
                        attributes=("A1", "A2"),
                        n_rows=len(rows),
                        est_cc_pairs=6,
                    )
                )
                mw.process_next_batch()
                staged = list(mw.staging.file_for("root").scan())
                assert staged == rows


class TestScanProfiling:
    def test_trace_records_kernel_profile(self):
        _, trace = frontier_results()
        record = trace[0]
        assert record.wall_seconds > 0.0
        assert record.rows_per_sec > 0.0
        # One probed attribute (A1) per row.
        assert record.matcher_evals == record.rows_seen

    def test_session_stats_accumulate_profile(self):
        rows = dataset_rows()
        server = make_server(rows)
        with Middleware(
            server, "data", SPEC, MiddlewareConfig(memory_bytes=100_000)
        ) as mw:
            for value in range(3):
                mw.queue_request(child_request(f"n{value}", value, rows))
            while mw.pending:
                mw.process_next_batch()
            stats = mw.stats
            assert stats.wall_seconds > 0.0
            assert stats.rows_per_sec > 0.0
            assert stats.matcher_evals > 0

    def test_report_mentions_the_executor(self):
        rows = dataset_rows()
        server = make_server(rows)
        with Middleware(
            server, "data", SPEC, MiddlewareConfig(memory_bytes=100_000)
        ) as mw:
            mw.queue_request(child_request("n0", 0, rows))
            mw.process_next_batch()
            report = mw.report()
        assert "executor: inline" in report
        assert "rows/s" in report
        assert "(inline)" in report
