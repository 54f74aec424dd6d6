"""Unit tests for the request/result queues (Fig. 3 interface)."""

import pytest

from repro.client.baselines import grow_in_memory
from repro.client.decision_tree import DecisionTreeClassifier
from repro.client.growth import GrowthPolicy
from repro.common.errors import MiddlewareError
from repro.core.cc_table import CCTable
from repro.core.config import MiddlewareConfig
from repro.core.filters import PathCondition, path_predicate
from repro.core.middleware import Middleware
from repro.core.requests import CountsRequest, CountsResult, RequestQueue
from repro.core.staging import DataLocation

from ..conftest import tree_signature
from .plan_seam import record_plan_requests


def make_request(node_id, lineage=None, conditions=(), n_rows=10,
                 est_cc_pairs=4):
    return CountsRequest(
        node_id=node_id,
        lineage=lineage or (node_id,),
        conditions=conditions,
        attributes=("A1", "A2"),
        n_rows=n_rows,
        est_cc_pairs=est_cc_pairs,
    )


class TestCountsRequest:
    def test_root_request(self):
        request = make_request(0)
        assert request.is_root
        assert request.predicate.to_sql() == "1 = 1"

    def test_lineage_must_end_with_node(self):
        with pytest.raises(MiddlewareError):
            make_request(5, lineage=(0, 1))

    def test_descends_from(self):
        request = make_request(5, lineage=(0, 2, 5))
        assert request.descends_from(0)
        assert request.descends_from(5)
        assert not request.descends_from(3)

    def test_predicate_from_conditions(self):
        request = make_request(
            3,
            lineage=(0, 3),
            conditions=(PathCondition("A1", "=", 1),),
        )
        assert not request.is_root
        assert request.predicate.to_sql() == "A1 = 1"

    def test_negative_sizes_rejected(self):
        with pytest.raises(MiddlewareError):
            make_request(0, n_rows=-1)
        with pytest.raises(MiddlewareError):
            make_request(0, est_cc_pairs=-1)


class TestCountsResult:
    def test_fields(self):
        cc = CCTable(("A1",), 2)
        result = CountsResult(3, cc, DataLocation.FILE, used_sql_fallback=True)
        assert result.node_id == 3
        assert result.cc is cc
        assert result.source is DataLocation.FILE
        assert result.used_sql_fallback


class TestRequestQueue:
    def test_fifo_order(self):
        queue = RequestQueue()
        first = make_request(1)
        second = make_request(2)
        queue.put(first)
        queue.put(second)
        assert queue.pending() == [first, second]
        assert len(queue) == 2

    def test_duplicate_node_rejected(self):
        queue = RequestQueue()
        queue.put(make_request(1))
        with pytest.raises(MiddlewareError):
            queue.put(make_request(1))

    def test_remove_batch(self):
        queue = RequestQueue()
        requests = [make_request(i) for i in range(4)]
        for request in requests:
            queue.put(request)
        queue.remove([requests[1], requests[3]])
        assert [r.node_id for r in queue.pending()] == [0, 2]

    def test_remove_unknown_rejected(self):
        queue = RequestQueue()
        queue.put(make_request(1))
        with pytest.raises(MiddlewareError):
            queue.remove([make_request(9)])

    def test_bool_and_requeue_after_remove(self):
        queue = RequestQueue()
        request = make_request(1)
        queue.put(request)
        queue.remove([request])
        assert not queue
        queue.put(make_request(1))  # id free again after removal
        assert queue


class TestPredicateIsBuiltOnFirstRead:
    """``request.predicate`` is an AND-tree only a pushed-filter SERVER
    scan and the §4.1.1 SQL fallback read; everyone else never pays."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The condition tuples ``path_predicate`` was called with."""
        from repro.core import requests

        calls = []

        def recording(conditions):
            calls.append(tuple(conditions))
            return path_predicate(conditions)

        monkeypatch.setattr(requests, "path_predicate", recording)
        return calls

    def test_built_once_and_only_when_read(self, built):
        request = make_request(
            3, lineage=(0, 3), conditions=(PathCondition("A1", "=", 1),)
        )
        assert not request.is_root and make_request(0).is_root
        assert built == []
        assert request.predicate is request.predicate
        assert built == [(PathCondition("A1", "=", 1),)]

    def test_a_staged_fit_builds_the_root_predicate_only(
            self, built, loaded_server):
        server, spec, rows = loaded_server
        with Middleware(server, "data", spec, MiddlewareConfig()) as mw:
            tree = DecisionTreeClassifier().fit(mw).tree
            modes = [record.mode for record in mw.trace]
            served = sum(record.nodes_served for record in mw.trace)
        # One SERVER scan (the root); every other node was counted from
        # staged data, and nobody read its predicate.
        assert modes.count("SERVER") == 1 and len(modes) > 1
        assert served > 10 and tree.n_nodes > served
        assert built == [()]

    def test_server_scans_and_fallbacks_build_one_per_request(
            self, built, loaded_server):
        server, spec, rows = loaded_server
        # No staging: every scan is a pushed-filter SERVER scan; the
        # budget is small enough for §4.1.1 deferrals and SQL fallbacks,
        # which re-queue / re-read the same request objects.
        config = MiddlewareConfig.no_staging(500)
        with Middleware(server, "data", spec, config) as mw:
            tree = DecisionTreeClassifier().fit(mw).tree
            scanned = {
                node_id for record in mw.trace for node_id in record.batch
            }
            assert mw.stats.sql_fallbacks and mw.stats.deferrals
            assert {record.mode for record in mw.trace} == {"SERVER"}
        assert tree_signature(tree.root) == tree_signature(
            grow_in_memory(rows, spec, GrowthPolicy()).root
        )
        assert len(built) == len(set(built)) == len(scanned)

    def test_a_pushed_filter_batch_sends_the_same_where_text(
            self, loaded_server):
        server, spec, rows = loaded_server
        paths = [
            (PathCondition("A1", "=", 0), PathCondition("A2", "<>", 1)),
            (PathCondition("A1", "<>", 0),),
        ]
        counts = [
            sum(all(c.matches(row[int(c.attribute[1:]) - 1]) for c in path)
                for row in rows)
            for path in paths
        ]
        config = MiddlewareConfig.no_staging(1_000_000)
        with Middleware(server, "data", spec, config) as mw:
            asked = record_plan_requests(mw)
            mw.queue_requests([
                CountsRequest(
                    node_id=i + 1, lineage=(0, i + 1), conditions=path,
                    attributes=spec.attribute_names, n_rows=n_rows,
                    est_cc_pairs=24,
                )
                for i, (path, n_rows) in enumerate(zip(paths, counts))
            ])
            results = mw.process_next_batch()
        assert [result.cc.records for result in results] == counts
        assert [predicate.to_sql() for predicate, _ in asked] == [
            "(A1 = 0 AND A2 <> 1) OR A1 <> 0"
        ]
