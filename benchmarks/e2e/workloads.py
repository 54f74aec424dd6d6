"""The five benchmark workloads (names and *why* live in BENCHMARK.json).

Each workload has a ``setup(seed, scale)`` that generates its rows
through ``repro.datagen`` and loads them into a fresh ``SQLServer`` —
exactly what ``setup_s`` times — and returns a :class:`Loaded` whose
``fit(observe)`` performs one whole fit the way a user would: a fresh
``Middleware`` session per fit, so pool start-up, the cold encode and
staging-directory creation are paid (and timed) every time.

``scan_workers`` is passed explicitly everywhere so that
``$REPRO_SCAN_WORKERS`` cannot change what a workload measures.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.client import DecisionTreeClassifier, GrowthPolicy, growth
from repro.client.tree import DecisionTree
from repro.core import Middleware, MiddlewareConfig
from repro.core.cc_table import CCTable
from repro.core.filters import path_predicate
from repro.core.sql_counting import cc_statement
from repro.datagen import (
    AgrawalConfig,
    CensusConfig,
    RandomTreeConfig,
    agrawal_spec,
    build_random_tree,
    census_spec,
    generate_agrawal_rows,
    generate_census_rows,
    load_dataset,
)
from repro.sqlengine import SQLServer

TABLE = "data"

#: Called with the live ``Middleware`` session just before it closes
#: (traced fits read the program's own counters through it).
Observer = Optional[Callable[[Middleware], None]]

#: The random-tree *concept* is part of the deep_tree workload's
#: definition; ``--seed`` draws the cases sampled from it.  Re-drawing
#: the concept per seed too moves the learned tree between ~5,000 and
#: ~5,500 nodes, on top of the ~3 % the drawn cases already cause.
DEEP_TREE_CONCEPT_SEED = 0


@dataclass
class Loaded:
    """One workload's loaded server plus how to fit and check it."""

    server: SQLServer
    spec: Any
    rows: list[tuple[int, ...]]
    policy: GrowthPolicy
    fit: Callable[[Observer], DecisionTree]


def _load(spec: Any, rows: list[tuple[int, ...]]) -> SQLServer:
    server = SQLServer()
    load_dataset(server, TABLE, spec, rows)
    return server


def _middleware_workload(server: SQLServer, spec: Any,
                         rows: list[tuple[int, ...]],
                         config: MiddlewareConfig,
                         max_depth: Optional[int]) -> Loaded:
    def fit(observe: Observer = None) -> DecisionTree:
        with Middleware(server, TABLE, spec, config) as session:
            classifier = DecisionTreeClassifier(max_depth=max_depth)
            tree = classifier.fit(session).tree
            if observe is not None:
                observe(session)
        return tree

    return Loaded(server, spec, rows, GrowthPolicy(max_depth=max_depth), fit)


def _agrawal(n_rows: int, config: MiddlewareConfig,
             max_depth: int = 8) -> Callable[[int, int], Loaded]:
    def setup(seed: int, scale: int) -> Loaded:
        spec = agrawal_spec()
        rows = list(generate_agrawal_rows(AgrawalConfig(
            function=2, n_rows=n_rows // scale, noise=0.05, seed=seed,
        )))
        return _middleware_workload(
            _load(spec, rows), spec, rows, config, max_depth
        )

    return setup


def _deep_tree(seed: int, scale: int) -> Loaded:
    concept = build_random_tree(RandomTreeConfig(
        n_attributes=25, values_per_attribute=4, n_classes=10,
        n_leaves=1000 // scale, cases_per_leaf=10,
        seed=DEEP_TREE_CONCEPT_SEED,
    ))
    rows = concept.materialize(random.Random(seed))
    server = _load(concept.spec, rows)
    # Twice the table: everything is staged into middleware memory
    # after the first scan, so the fit is thousands of tiny MEMORY
    # scans below scan_parallel_min_rows plus the client's split search.
    config = MiddlewareConfig(
        memory_bytes=2 * server.table(TABLE).size_bytes, scan_workers=1,
    )
    return _middleware_workload(
        server, concept.spec, rows, config, max_depth=None
    )


def sql_counting_loop(server: SQLServer, spec: Any,
                      policy: GrowthPolicy) -> DecisionTree:
    """Fig. 7's straw man, over SQL *text*: one statement per node.

    Same loop as ``repro.client.sql_counting_fit`` except that every
    UNION-of-GROUP-BYs statement is rendered with ``to_sql()`` and sent
    as a string, so the lexer and parser are on the measured path.
    """
    tree = DecisionTree(spec)
    tree.root.n_rows = server.table(TABLE).row_count
    frontier = [tree.root]
    while frontier:
        node = frontier.pop()
        conditions = node.path_conditions()
        predicate = path_predicate(conditions) if conditions else None
        statement = cc_statement(
            TABLE, node.attributes, spec.class_name, predicate
        )
        result = server.execute(statement.to_sql())
        cc = CCTable(node.attributes, spec.n_classes)
        records = 0
        for attribute, value, label, count in result:
            cc.add_counts(attribute, value, label, count)
            if attribute == node.attributes[0]:
                records += count
        cc.set_records(records)
        # Looked up on the module so a traced run sees the call.
        frontier.extend(growth.partition_node(tree, node, cc, policy))
    return tree


def _sql_counting(seed: int, scale: int) -> Loaded:
    spec = census_spec()
    rows = list(generate_census_rows(
        CensusConfig(n_rows=10_000 // scale, seed=seed)
    ))
    server = _load(spec, rows)
    policy = GrowthPolicy(max_depth=4)

    def fit(observe: Observer = None) -> DecisionTree:
        # Module-level lookup, for the same reason as above.
        return sql_counting_loop(server, spec, policy)

    return Loaded(server, spec, rows, policy, fit)


WORKLOADS: dict[str, Callable[[int, int], Loaded]] = {
    "staged_default": _agrawal(
        100_000, MiddlewareConfig(memory_bytes=512 * 1024, scan_workers=1),
    ),
    "staged_parallel": _agrawal(
        300_000,
        MiddlewareConfig(memory_bytes=1024 * 1024, scan_workers=2,
                         scan_pool="thread"),
    ),
    # Depth 6, not 8: without staging a batch is a whole tree level,
    # and a level wider than vector_kernel.MAX_SLOTS (62 nodes) drops
    # the scan onto pickled row tuples — a 20x slower fit that depth 8
    # reaches on some seeds (2 of 10 tried) and depth 6 (<= 32 nodes
    # per level) never can.
    "server_parallel": _agrawal(
        300_000,
        MiddlewareConfig.no_staging(4 * 1024 * 1024, scan_workers=2,
                                    scan_pool="process"),
        max_depth=6,
    ),
    "deep_tree": _deep_tree,
    "sql_counting": _sql_counting,
}
