"""The tag route: a memory set's rows routed by the node that holds them.

Each memory set tags every row with the deepest node served from it
that holds the row (``staging.RowTags``).  A MEMORY scan whose every
node is one edge below a tagged node routes each row by one LUT lookup,
``lut[tag, code]``, instead of the path kernel's dispatch tables.  Every
tag-routed partition is checked here against the path kernel over the
nodes' full root paths and against the row oracle (``route_row``):
``(rows, bounds, routed)`` must be equal, and every served table must
equal the oracle's count.  Covered:

* NULL-holding RAW and DICT columns, shifted and negative RAW ranges;
* binary splits with either child larger, multiway splits with 3+
  children, several levels, batches that mix depths (one parent an
  ancestor of another);
* a deferred node next to a served sibling, derived children, a
  derived child that is a staging target;
* the path route for a parent served from another source, a batch that
  is not an antichain, a root request, a path that does not extend its
  tagged parent's, children split on two attributes, a code two
  children claim and a sparse domain — and a re-run batch, whose
  context must be re-installed because only the route changed;
* two fits on one session: the second re-serves the root from the
  set the first tagged, which resets its tags;
* a set whose columns leave no room for tags in its charge: untagged.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core import execution, vector_kernel  # noqa: E402
from repro.core.config import MiddlewareConfig  # noqa: E402
from repro.core.filters import PathCondition, RoutingKernel  # noqa: E402
from repro.core.middleware import Middleware  # noqa: E402
from repro.core.requests import CountsRequest, Family  # noqa: E402
from repro.core.scheduler import Schedule  # noqa: E402
from repro.core.staging import DataLocation  # noqa: E402
from repro.datagen.dataset import DatasetSpec  # noqa: E402
from repro.sqlengine.database import SQLServer  # noqa: E402
from repro.sqlengine.schema import TableSchema  # noqa: E402

from .oracle import oracle_counts, route_row  # noqa: E402

NAMES = ("A1", "A2", "A3", "A4")
ATTR_INDEX = {name: i for i, name in enumerate(NAMES)}
N_CLASSES = 3
SPEC = DatasetSpec([4, 4, 4, 4], N_CLASSES)
#: A1 RAW with NULLs, A2 a varchar (DICT) column with NULLs, A3 a
#: negative RAW range, A4 one that does not start at 0.
POOLS = ([None, 0, 1, 2], ["x", "y", "z", None], [-2, -1, 0, 1],
         [5, 6, 7, 8])


def make_server(rows, a2="varchar"):
    server = SQLServer()
    server.create_table("data", TableSchema.of(
        ("A1", "int"), ("A2", a2), ("A3", "int"), ("A4", "int"),
        ("class", "int"),
    ))
    server.bulk_load("data", rows)
    return server


def session(rows, a2="varchar", **options):
    """Server -> memory: every scan after the root's is a MEMORY scan."""
    return Middleware(make_server(rows, a2), "data", SPEC,
                      MiddlewareConfig.memory_only(1_000_000, **options))


@pytest.fixture(autouse=True)
def derive_any_size(monkeypatch):
    """These tables are tiny: derive whatever qualifies."""
    monkeypatch.setattr(execution, "DERIVE_KEYS_PER_CELL", 0)


class Checked:
    """Every tag-routed partition against the path route and the row
    oracle, and every served table against the oracle's count."""

    def __init__(self, monkeypatch):
        self.paths = {}
        self.partitions = 0
        real = vector_kernel.route_partition

        def checking(kernel, layout, partition, dropped, routes):
            got = real(kernel, layout, partition, dropped, routes)
            if routes is not None:
                self.compare(real, got, layout, partition, dropped)
            return got

        monkeypatch.setattr(vector_kernel, "route_partition", checking)

    def compare(self, real, got, layout, partition, dropped):
        self.partitions += 1
        path = RoutingKernel([self.paths[node] for node in layout.node_ids],
                             ATTR_INDEX)
        want = real(path, layout, partition, dropped, None)
        rows, bounds, routed, seen = got
        assert (routed, seen) == want[2:]
        assert bounds.tolist() == want[1].tolist()
        assert rows.tolist() == want[0].tolist()
        decoded = list(partition.rows())
        for slot in range(len(layout.node_ids)):
            expected = [] if slot in dropped else [
                index for index, row in enumerate(decoded)
                if route_row(path, row) >> slot & 1
            ]
            assert rows[bounds[slot]:bounds[slot + 1]].tolist() == expected

    def root(self, mw):
        """Serve the root (staging it in memory): its request and table."""
        request = CountsRequest("r", ("r",), (), NAMES,
                                mw.server.table("data").row_count, 16)
        return request, self.serve(mw, [request])["r"]

    def serve(self, mw, requests):
        """Queue ``requests`` and serve everything pending."""
        for request in requests:
            self.paths[request.node_id] = request.conditions
        mw.queue_requests(requests)
        tables = {}
        while mw.pending:
            for result in mw.process_next_batch():
                tables[result.node_id] = result.cc
        self.check(mw, tables)
        return tables

    def check(self, mw, tables):
        rows = list(mw.server.table("data").scan_rows())
        nodes = sorted(tables, key=str)
        expected = oracle_counts(
            rows, [self.paths[node] for node in nodes],
            [tables[node].attributes for node in nodes], NAMES, N_CLASSES,
        )
        for node, (table, _) in zip(nodes, expected):
            assert tables[node] == table, node


@pytest.fixture
def checked(monkeypatch):
    return Checked(monkeypatch)


def children(parent, cc, attribute, value, family=True, est=8):
    """``parent``'s split on ``attribute``: binary on ``value``, multiway
    when ``value`` is None (one child per value, NULL included)."""
    if value is None:
        edges = [("=", v) for v in cc.values_of(attribute)]
    else:
        edges = [("=", value), ("<>", value)]
    made = []
    for op, pivot in edges:
        inside = sum(cc.vector(attribute, pivot))
        n_rows = inside if op == "=" else cc.records - inside
        node_id = f"{parent.node_id}/{attribute}{op}{pivot}"
        attributes = tuple(name for name in parent.attributes
                           if not (op == "=" and name == attribute))
        made.append(CountsRequest(
            node_id, parent.lineage + (node_id,),
            parent.conditions + (PathCondition(attribute, op, pivot),),
            attributes, n_rows, est_cc_pairs=est,
        ))
    if family:
        shared = Family(parent.node_id, cc, tuple(r.node_id for r in made))
        for request in made:
            request.family = shared
    return made


def refuse_admission(monkeypatch, mw, victims):
    """§4.1.1: a victim's CC table finds no room at admission, once, and
    only next to a peer — a deferral, never an SQL fallback (whose SQL
    NULL semantics are not the routing kernel's)."""
    admitting = []
    admit = execution.ExecutionModule._admit_merged
    try_reserve = mw.budget.try_reserve

    def admit_merged(self, states, scan):
        admitting.append(len(states) > 1)
        try:
            admit(self, states, scan)
        finally:
            admitting.pop()

    def reserve(tag, nbytes):
        node = tag[len("cc:"):]
        if admitting and admitting[-1] and node in victims:
            victims.remove(node)
            admitting[-1] = False
            return False
        return try_reserve(tag, nbytes)

    monkeypatch.setattr(execution.ExecutionModule, "_admit_merged",
                        admit_merged)
    monkeypatch.setattr(mw.budget, "try_reserve", reserve)


ROWS = [(POOLS[0][i % 4], POOLS[1][i % 3], POOLS[2][i % 4 - 1],
         5 + (i // 3) % 4, i % N_CLASSES) for i in range(72)]


@st.composite
def datasets(draw):
    return draw(st.lists(
        st.tuples(*(st.sampled_from(pool) for pool in POOLS),
                  st.integers(0, N_CLASSES - 1)),
        min_size=8, max_size=80,
    ))


class TestTagRouteEqualsPathRoute:
    @given(rows=datasets(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_trees(self, rows, data):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(execution, "DERIVE_KEYS_PER_CELL", 0)
            self.grow(patch, rows, data)

    @staticmethod
    def grow(monkeypatch, rows, data):
        checked = Checked(monkeypatch)
        with session(rows) as mw:
            root, cc = checked.root(mw)
            requests, tables = {"r": root}, {"r": cc}
            held = []
            victims = set()
            refuse_admission(monkeypatch, mw, victims)
            for _ in range(data.draw(st.integers(2, 5))):
                splittable = [
                    (node, attribute) for node in sorted(tables, key=str)
                    for attribute in requests[node].attributes
                    if tables[node].cardinality(attribute) >= 2
                ]
                if not splittable:
                    break
                node, attribute = data.draw(st.sampled_from(splittable))
                values = tables[node].values_of(attribute)
                value = data.draw(st.sampled_from([None, *values]))
                made = children(requests[node], tables.pop(node), attribute,
                                value, family=data.draw(st.booleans()),
                                est=data.draw(st.sampled_from([0, 8])))
                # Hold some children back: a later batch mixes depths.
                keep = data.draw(st.lists(st.booleans(), min_size=len(made),
                                          max_size=len(made)))
                now = [r for r, k in zip(made, keep) if k] + held
                held = [r for r, k in zip(made, keep) if not k]
                victims.update(data.draw(st.sets(st.sampled_from(
                    [r.node_id for r in made]))))
                requests.update((r.node_id, r) for r in made)
                tables.update(checked.serve(mw, now))
            tables.update(checked.serve(mw, held))


class TestTagRules:
    def test_every_memory_scan_of_a_tree_is_tag_routed(self, checked):
        with session(ROWS) as mw:
            root, cc = checked.root(mw)
            first = children(root, cc, "A1", None)
            assert len(first) == 4  # NULL, 0, 1, 2
            tables = checked.serve(mw, first)
            second = children(first[0], tables[first[0].node_id], "A2", "x")
            second += children(first[1], tables[first[1].node_id], "A3",
                               None)
            checked.serve(mw, second)
            memory = [r for r in mw.trace if r.mode == "MEMORY"]
            assert [r.routing for r in memory] == ["tag"] * len(memory)
            assert mw.stats.tag_routed_scans == len(memory) == 2
            # One lookup per row.
            assert all(r.matcher_evals == r.rows_seen for r in memory)
            assert " 2 tag-routed" in mw.report()
        assert checked.partitions >= 2

    def test_a_batch_mixing_depths(self, checked):
        with session(ROWS) as mw:
            root, cc = checked.root(mw)
            equal, other = children(root, cc, "A3", 0)
            tables = checked.serve(mw, [other])
            # ``equal``'s parent is ``r``, an ancestor of ``other``.
            deeper = children(other, tables[other.node_id], "A2", None)
            checked.serve(mw, [equal, *deeper])
            record = mw.trace[-1]
            assert set(record.batch) == {equal.node_id,
                                         *(r.node_id for r in deeper)}
            assert record.routing == "tag"
            tags = mw.staging.memory_tags["r"]
            assert {"r", other.node_id, equal.node_id} <= set(tags.nodes)

    def test_a_deferred_node_keeps_its_parents_tag(self, checked,
                                                   monkeypatch):
        with session(ROWS) as mw:
            root, cc = checked.root(mw)
            made = children(root, cc, "A4", None, est=0)
            victim = made[1].node_id
            refuse_admission(monkeypatch, mw, {victim})
            checked.serve(mw, made)
            first, retry = mw.trace[1], mw.trace[2]
            assert first.deferrals == 1 and victim in first.batch
            assert retry.batch == (victim,)
            assert first.routing == retry.routing == "tag"
            tags = mw.staging.memory_tags["r"]
            assert victim in tags.nodes  # tagged once served

    def test_derived_children_are_routed_for_their_tags(self, checked):
        with session(ROWS) as mw:
            root, cc = checked.root(mw)
            made = children(root, cc, "A1", 0)
            tables = checked.serve(mw, made)
            (derived,) = mw.trace[-1].derived
            assert mw.trace[-1].routing == "tag"
            # The derived child's rows carry its tag: its children route.
            node = next(r for r in made if r.node_id == derived)
            checked.serve(mw, children(node, tables[derived], "A2", None))
            assert mw.trace[-1].routing == "tag"

    @pytest.mark.parametrize("target", ["file", "memory"])
    def test_a_derived_child_that_is_a_staging_target(self, checked,
                                                      target):
        # A staged file holds int32 records: no NULL, no string.
        rows = [(i % 3, i % 4, i % 4 - 2, 5 + i % 4, i % N_CLASSES)
                for i in range(60)]
        with session(rows, a2="int") as mw:
            root, cc = checked.root(mw)
            made = children(root, cc, "A1", 1)
            for request in made:
                checked.paths[request.node_id] = request.conditions
            largest = max(made, key=lambda r: r.n_rows).node_id
            results, _ = mw.execution.run(Schedule(
                DataLocation.MEMORY, "r", made,
                **{f"stage_{target}_targets": [largest]},
            ))
            record = mw.trace[-1]
            assert record.routing == "tag" and record.derived == (largest,)
            checked.check(mw, {r.node_id: r.cc for r in results})
            staging = mw.staging
            staged = (list(staging.file_for(largest).scan())
                      if target == "file" else staging.memory_rows(largest))
            (_, selected), = oracle_counts(
                rows, [checked.paths[largest]], [()], NAMES, N_CLASSES,
            )
            assert staged == [rows[index] for index in selected]
            assert len(staged) == record.rows_derived


class TestPathRouteFallbacks:
    def test_a_parent_served_from_another_source(self, checked,
                                                 monkeypatch):
        # The root's child is staged by the SERVER scan that counts it,
        # deferred there, and retried from its own memory set: its
        # parent was served from the server, not from the set.
        rows = ROWS
        mw = Middleware(make_server(rows), "data", SPEC,
                        MiddlewareConfig.memory_only(1_000_000,
                                                     push_filters=False))
        with mw:
            root = CountsRequest("r", ("r",), (), NAMES, len(rows), 16)
            cc = oracle_counts(rows, [()], [NAMES], NAMES, N_CLASSES)[0][0]
            made = children(root, cc, "A1", 0, family=False, est=0)
            refuse_admission(monkeypatch, mw, {made[0].node_id})
            checked.serve(mw, made)
            assert [r.mode for r in mw.trace] == ["SERVER", "MEMORY"]
            retry = mw.trace[-1]
            assert retry.source_node == retry.batch[0] == made[0].node_id
            assert retry.routing == "path"

    def test_a_batch_that_is_not_an_antichain(self, checked):
        with session(ROWS) as mw:
            root, cc = checked.root(mw)
            child = children(root, cc, "A1", 0, family=False)[1]
            grandchild = children(child, cc, "A4", 6,
                                  family=False)[0]
            for batch in ([child, grandchild], [root, child]):
                grandchild.n_rows = len(oracle_counts(
                    ROWS, [grandchild.conditions], [()], NAMES,
                    N_CLASSES)[0][1])
                for request in batch:
                    checked.paths[request.node_id] = request.conditions
                results, _ = mw.execution.run(
                    Schedule(DataLocation.MEMORY, "r", batch))
                assert mw.trace[-1].routing == "path"
                checked.check(mw, {r.node_id: r.cc for r in results})

    def test_a_root_request(self, checked):
        with session(ROWS) as mw:
            checked.root(mw)
            root = CountsRequest("r", ("r",), (), NAMES, len(ROWS), 16)
            results, _ = mw.execution.run(
                Schedule(DataLocation.MEMORY, "r", [root]))
            assert mw.trace[-1].routing == "path"
            checked.check(mw, {r.node_id: r.cc for r in results})

    def test_an_empty_memory_set(self, checked):
        with session(ROWS) as mw:
            root, cc = checked.root(mw)
            made = children(root, cc, "A1", 0, family=False)
            mw.staging.drop_memory("r")
            assert mw.staging.reserve_memory("r", 0)
            mw.staging.commit_memory("r", [])
            for request in made:
                checked.paths[request.node_id] = request.conditions
                request.n_rows = 0
            results, _ = mw.execution.run(
                Schedule(DataLocation.MEMORY, "r", made))
            assert mw.trace[-1].routing == "path"
            assert [r.cc.records for r in results] == [0, 0]

    def test_a_rerun_batch_reinstalls_its_context(self, checked):
        # The same batch, signature and layout twice: tag-routed, then
        # (its nodes now tagged) path-routed.  The pool must install the
        # path kernel the second time.
        with session(ROWS) as mw:
            root, cc = checked.root(mw)
            made = children(root, cc, "A3", -1, family=False)
            for request in made:
                checked.paths[request.node_id] = request.conditions
            for routing in ("tag", "path"):
                results, _ = mw.execution.run(
                    Schedule(DataLocation.MEMORY, "r", made))
                assert mw.trace[-1].routing == routing
                checked.check(mw, {r.node_id: r.cc for r in results})
            assert mw.scan_pool.kernels_installed == 3


    def test_a_path_that_is_not_its_parents_plus_one_edge(self, checked):
        # ``stray`` names a tagged parent in its lineage and is one
        # condition deeper, but its path extends the parent's sibling's:
        # the tags cannot say its rows.
        with session(ROWS) as mw:
            root, cc = checked.root(mw)
            equal, other = children(root, cc, "A3", 0, family=False)
            checked.serve(mw, [equal, other])
            stray = children(other, cc, "A2", "x", family=False)[0]
            stray.node_id = "stray"
            stray.lineage = equal.lineage + ("stray",)
            stray.n_rows = len(oracle_counts(
                ROWS, [stray.conditions], [()], NAMES, N_CLASSES)[0][1])
            checked.paths["stray"] = stray.conditions
            results, _ = mw.execution.run(
                Schedule(DataLocation.MEMORY, "r", [stray]))
            assert mw.trace[-1].routing == "path"
            checked.check(mw, {r.node_id: r.cc for r in results})

    def test_children_split_on_two_attributes(self, checked):
        # Hand-built: one parent, one child on A1 and one on A4.
        with session(ROWS) as mw:
            root, cc = checked.root(mw)
            made = [children(root, cc, "A1", 0, family=False)[0],
                    children(root, cc, "A4", 6, family=False)[0]]
            made[1].node_id = "r/two"
            made[1].lineage = ("r", "r/two")
            for request in made:
                checked.paths[request.node_id] = request.conditions
            results, _ = mw.execution.run(
                Schedule(DataLocation.MEMORY, "r", made))
            assert mw.trace[-1].routing == "path"
            checked.check(mw, {r.node_id: r.cc for r in results})

    def test_a_code_two_children_claim(self, checked):
        # Hand-built: ``A1 <> 0`` and ``A1 <> 1`` overlap on NULL and 2.
        with session(ROWS) as mw:
            root, cc = checked.root(mw)
            made = [children(root, cc, "A1", value, family=False)[1]
                    for value in (0, 1)]
            for request in made:
                checked.paths[request.node_id] = request.conditions
            results, _ = mw.execution.run(
                Schedule(DataLocation.MEMORY, "r", made))
            assert mw.trace[-1].routing == "path"
            checked.check(mw, {r.node_id: r.cc for r in results})

    def test_a_sparse_domain(self, checked):
        # A1 spans a range far wider than the set: a LUT row per parent
        # would be wider than the rows it routes.
        rows = [((0, 10_000)[i % 2], "x", 0, 5, i % N_CLASSES)
                for i in range(40)]
        with session(rows) as mw:
            root, cc = checked.root(mw)
            checked.serve(mw, children(root, cc, "A1", 0, family=False))
            assert mw.trace[-1].routing == "path"


class TestConsecutiveFits:
    """A session's second fit may read the root's memory set the first
    one tagged; its tags must not route the new tree's nodes."""

    def test_two_fits_with_different_policies(self):
        from repro.client.baselines import grow_in_memory
        from repro.client.decision_tree import DecisionTreeClassifier
        from repro.client.growth import GrowthPolicy
        from repro.datagen.loader import load_dataset
        from repro.datagen.random_tree import (
            RandomTreeConfig,
            build_random_tree,
        )

        from ..conftest import tree_signature

        generating = build_random_tree(RandomTreeConfig(
            n_attributes=6, values_per_attribute=3, n_classes=3,
            n_leaves=40, cases_per_leaf=12, seed=11,
        ))
        rows = generating.materialize()
        server = SQLServer()
        load_dataset(server, "data", generating.spec, rows)
        config = MiddlewareConfig.memory_only(
            2 * server.table("data").size_bytes)
        with Middleware(server, "data", generating.spec, config) as mw:
            for criterion, depth in (("gini", 2), ("entropy", None)):
                model = DecisionTreeClassifier(
                    criterion=criterion, max_depth=depth).fit(mw)
                want = grow_in_memory(rows, generating.spec, GrowthPolicy(
                    criterion=criterion, max_depth=depth))
                assert (tree_signature(model.tree.root)
                        == tree_signature(want.root)), criterion
            fits = [r for r in mw.trace if r.mode != "MEMORY"]
            assert len(fits) == 1  # the second fit read the root's set
            assert mw.stats.tag_routed_scans > 0


    def test_a_new_split_below_a_node_an_earlier_fit_split_otherwise(
            self, checked):
        # Fit 1 splits ``r/A1<>0`` on A3, moving its rows to tags below
        # it; fit 2 re-serves the root from its set and splits that
        # node on A4.  Its rows are ``r/A1<>0``'s again.
        with session(ROWS) as mw:
            for attribute, value in (("A3", 0), ("A4", 6)):
                root, cc = checked.root(mw)
                tables = checked.serve(mw, children(root, cc, "A1", 0,
                                                    family=False))
                node = children(root, cc, "A1", 0, family=False)[1]
                checked.serve(mw, children(node, tables[node.node_id],
                                           attribute, value, family=False))
                assert mw.trace[-1].routing == "tag"
            assert [r.mode for r in mw.trace].count("SERVER") == 1


class TestUntaggedSets:
    def test_a_set_with_no_room_for_tags_takes_the_path_route(self,
                                                             checked):
        # Every RAW column needs int32: narrowing frees nothing, so the
        # 4 B tag would break the charge of n_rows x row_bytes.
        wide = [(i * 40_000 % 120_001, "x", -i * 50_000, 5 + i * 70_000,
                 i % N_CLASSES) for i in range(48)]
        with session(wide) as mw:
            root, cc = checked.root(mw)
            assert "r" not in mw.staging.memory_tags
            made = children(root, cc, "A2", "x", family=False)
            checked.serve(mw, made)
            assert mw.trace[-1].mode == "MEMORY"
            assert mw.trace[-1].routing == "path"


class TestMemoryCharge:
    """A memory set's columns, NULL masks and tags fit in what the
    budget charges for it, ``n_rows x row_bytes``: every set committed
    by the ``staged_default`` and ``deep_tree`` benchmark plans (their
    data and configurations, seed 1)."""

    @pytest.fixture
    def commits(self, monkeypatch):
        from repro.core import staging

        seen = []
        commit = staging.StagingManager.commit_memory

        def committed(manager, node_id, *args):
            commit(manager, node_id, *args)
            table = manager.columnar_memory(node_id)
            # Both benchmark plans have room for every set's tags.
            physical = manager.memory_tags[node_id].rows.nbytes + sum(
                column.data.nbytes
                + (0 if column.nulls is None else column.nulls.nbytes)
                for column in table.columns
            )
            seen.append((physical, manager.memory_bytes_for(table.n_rows)))

        monkeypatch.setattr(staging.StagingManager, "commit_memory",
                            committed)
        return seen

    def test_staged_default_plan(self, commits):
        from repro.client.decision_tree import DecisionTreeClassifier
        from repro.datagen.agrawal import (
            AgrawalConfig,
            agrawal_spec,
            generate_agrawal_rows,
        )
        from repro.datagen.loader import load_dataset

        spec = agrawal_spec()
        rows = list(generate_agrawal_rows(AgrawalConfig(
            function=2, n_rows=100_000, noise=0.05, seed=1,
        )))
        server = SQLServer()
        load_dataset(server, "data", spec, rows)
        config = MiddlewareConfig(memory_bytes=512 * 1024, scan_workers=1)
        with Middleware(server, "data", spec, config) as mw:
            DecisionTreeClassifier(max_depth=8).fit(mw)
        assert commits
        for physical, charged in commits:
            assert physical <= charged

    def test_deep_tree_plan(self, commits):
        import random

        from repro.client.decision_tree import DecisionTreeClassifier
        from repro.datagen.loader import load_dataset
        from repro.datagen.random_tree import (
            RandomTreeConfig,
            build_random_tree,
        )

        concept = build_random_tree(RandomTreeConfig(
            n_attributes=25, values_per_attribute=4, n_classes=10,
            n_leaves=1000, cases_per_leaf=10, seed=0,
        ))
        server = SQLServer()
        load_dataset(server, "data", concept.spec,
                     concept.materialize(random.Random(1)))
        config = MiddlewareConfig(
            memory_bytes=2 * server.table("data").size_bytes, scan_workers=1,
        )
        with Middleware(server, "data", concept.spec, config) as mw:
            DecisionTreeClassifier().fit(mw)
            memory = [r for r in mw.trace if r.mode == "MEMORY"]
            assert [r.routing for r in memory] == ["tag"] * len(memory)
        assert commits
        for physical, charged in commits:
            assert physical <= charged
