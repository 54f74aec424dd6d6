"""Tests for the table-version columnar scan cache.

The cache ("encode once, scan every level") is a pure wall-clock
optimisation: a warm scan must produce byte-identical CC tables and
staged files, and charge *exactly* the same simulated cost, as the
cold streaming scan it replaces — across thread pools, process pools
(a resident encoding's segment, every other slice pickled), with
writes between scans invalidating by
version bump, and with the worker-side keep mask replicating compiled
predicate semantics on NULL-heavy mixed-type data.
"""

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.client.baselines import build_cc_from_rows  # noqa: E402
from repro.core.columnar_cache import (  # noqa: E402
    ColumnarScanCache,
    ColumnarScanPlan,
)
from repro.core.config import MiddlewareConfig  # noqa: E402
from repro.core.middleware import Middleware  # noqa: E402
from repro.sqlengine.columnar import (  # noqa: E402
    ColumnarPartition,
    filter_supported,
    predicate_mask,
)
from repro.sqlengine.expr import all_of, any_of, eq, ne  # noqa: E402

from .test_parallel_scan import (  # noqa: E402
    PARALLEL,
    SPEC,
    child_request,
    dataset_rows,
    make_server,
    root_request,
)


def _rows(n, base=0):
    return [((base + i) % 3, (base + i) % 2, i % 2) for i in range(n)]


def _plan(key, rows):
    """A plan with no meter charges, for cache-mechanics tests."""
    return ColumnarScanPlan(
        key=key,
        n_rows=len(rows),
        encode=lambda: ColumnarPartition.from_rows(rows),
        charge_scan=lambda: None,
        charge_rows=lambda n: None,
    )


# ---------------------------------------------------------------------------
# cache mechanics: admission, LRU, invalidation, transient oversize
# ---------------------------------------------------------------------------


class TestCacheMechanics:
    def test_admissible_arithmetic(self):
        plan = _plan(("table", "t", 1), _rows(10))
        # 10 rows x 3 columns x 8 bytes = 240 estimated bytes.
        assert not ColumnarScanCache(239).admissible(plan, 3)
        assert ColumnarScanCache(240).admissible(plan, 3)

    def test_zero_budget_disables(self):
        cache = ColumnarScanCache(0)
        assert not cache.admissible(_plan(("table", "t", 1), _rows(1)), 3)

    def test_closed_cache_refuses_and_stays_transient(self):
        cache = ColumnarScanCache(1 << 20)
        cache.close()
        plan = _plan(("table", "t", 1), _rows(4))
        assert not cache.admissible(plan, 3)
        entry = cache.admit(plan.key, plan.encode(), ship=False)
        assert entry.partition is not None
        assert cache.resident_entries == 0

    def test_hit_miss_counters_and_lru_order(self):
        a = ColumnarPartition.from_rows(_rows(16))
        b = ColumnarPartition.from_rows(_rows(16, base=1))
        c = ColumnarPartition.from_rows(_rows(16, base=2))
        cache = ColumnarScanCache(a.nbytes + b.nbytes)
        cache.admit(("table", "a", 1), a, ship=False)
        cache.admit(("table", "b", 1), b, ship=False)
        assert cache.resident_entries == 2
        assert cache.lookup(("table", "a", 1)) is not None  # touch a
        cache.admit(("table", "c", 1), c, ship=False)
        # b was least-recently-used; a survived its touch.
        assert cache.evictions == 1
        assert cache.lookup(("table", "b", 1)) is None
        assert cache.lookup(("table", "a", 1)) is not None
        assert cache.hits == 2 and cache.misses == 1
        assert cache.resident_bytes == a.nbytes + c.nbytes
        cache.close()
        assert cache.resident_entries == 0
        cache.close()  # idempotent

    def test_oversize_encoding_is_used_once(self):
        partition = ColumnarPartition.from_rows(_rows(64))
        cache = ColumnarScanCache(partition.nbytes - 1)
        entry = cache.admit(("table", "t", 1), partition, ship=False)
        assert entry.partition is partition
        assert cache.resident_entries == 0
        assert cache.resident_bytes == 0

    def test_new_version_drops_stale_entry_first(self):
        cache = ColumnarScanCache(1 << 20)
        cache.admit(
            ("table", "t", 1), ColumnarPartition.from_rows(_rows(8)),
            ship=False,
        )
        cache.admit(
            ("table", "t", 2), ColumnarPartition.from_rows(_rows(9)),
            ship=False,
        )
        assert cache.resident_entries == 1
        assert cache.invalidations == 1
        assert cache.lookup(("table", "t", 1)) is None
        assert cache.lookup(("table", "t", 2)) is not None

    def test_file_drop_listener_evicts(self):
        class _Staged:
            uid = 7

        cache = ColumnarScanCache(1 << 20)
        cache.admit(
            ("file", 7), ColumnarPartition.from_rows(_rows(8)), ship=False
        )
        cache.on_file_dropped(_Staged())
        assert cache.resident_entries == 0
        assert cache.invalidations == 1

    def test_persistent_segments_track_entries(self):
        rows = _rows(32)
        cache = ColumnarScanCache(1 << 20)
        entry = cache.admit(
            ("table", "t", 1), ColumnarPartition.from_rows(rows), ship=True
        )
        assert entry.ref is not None and entry.ref.generation == 1
        assert cache.live_segments == 1
        # The resident partition is a zero-copy view over the segment
        # and still decodes the original rows exactly.
        assert entry.partition.rows_at(np.arange(len(rows))) == rows
        second = cache.admit(
            ("table", "u", 1), ColumnarPartition.from_rows(_rows(8)),
            ship=True,
        )
        assert second.ref is not None and second.ref.generation == 2
        assert cache.live_segments == 2
        cache.invalidate(("table", "t"))
        assert cache.live_segments == 1
        cache.close()
        assert cache.live_segments == 0


# ---------------------------------------------------------------------------
# warm scans are byte-identical and cost-identical to cold scans
# ---------------------------------------------------------------------------


def _staged_workload(tmp_path, **overrides):
    """Root + one child at a time: SERVER cold, then FILE cold, then
    two warm FILE scans that *split-stage* per-node files — warm scans
    with staging output, the strongest byte-identity case."""
    rows = dataset_rows()
    server = make_server(rows)
    overrides.setdefault("memory_bytes", 100_000)
    config = MiddlewareConfig(
        memory_staging=False, staging_dir=str(tmp_path), **PARALLEL,
        **overrides,
    )
    results = {}
    staged_bytes = {}
    with Middleware(server, "data", SPEC, config) as mw:
        mw.queue_request(root_request(rows))
        mw.process_next_batch()
        for value in range(3):
            mw.queue_request(child_request(f"n{value}", value, rows))
            for result in mw.process_next_batch():
                results[result.node_id] = result.cc
            staged = mw.staging.file_for(f"n{value}")
            with open(staged.path, "rb") as handle:
                staged_bytes[f"n{value}"] = handle.read()
        trace = list(mw.trace)
        stats = mw.stats
    return results, staged_bytes, server.meter.total, trace, stats


class TestWarmColdEquivalence:
    CONFIGS = {
        "cold": {"scan_workers": 2, "scan_cache_bytes": 0},
        "thread": {"scan_workers": 2},
        "process-shm": {"scan_workers": 2, "scan_pool": "process"},
        "serial": {"scan_workers": 1},
    }

    @pytest.mark.parametrize("kind", list(CONFIGS))
    def test_staged_workload_matches_cold_reference(self, kind, tmp_path):
        reference, ref_staged, ref_cost, ref_trace, _ = _staged_workload(
            tmp_path / "reference", scan_workers=2, scan_cache_bytes=0,
        )
        results, staged, cost, trace, _ = _staged_workload(
            tmp_path / kind, **self.CONFIGS[kind]
        )
        rows = dataset_rows()
        for value in range(3):
            subset = [r for r in rows if r[0] == value]
            assert results[f"n{value}"] == build_cc_from_rows(
                subset, SPEC, ("A2",)
            )
        assert results == reference
        # Staged split files are byte-identical, warm or cold.
        assert staged == ref_staged
        # ... and the simulated meter never notices the cache.
        assert cost == pytest.approx(ref_cost)

    def test_warm_scans_actually_happened(self, tmp_path):
        _, _, _, trace, stats = _staged_workload(
            tmp_path, scan_workers=2
        )
        if not any(r.cached for r in trace):
            pytest.skip("columnar cache not active")
        # Scan 3 and 4 re-scan the (unchanged) root file warm: no
        # encode, and the hit is visible per scan and in aggregate.
        warm = [r for r in trace if r.cache_hit]
        assert len(warm) == 2
        assert all(r.encode_seconds == 0.0 for r in warm)
        assert stats.cached_scans >= 3


class TestMultiLevelServerFit:
    """The acceptance shape: a SERVER fit re-scans one table version."""

    def _fit(self, **overrides):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000, file_staging=False,
            memory_staging=False, scan_workers=2, **PARALLEL, **overrides,
        )
        results = {}
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            for value in range(3):
                mw.queue_request(child_request(f"n{value}", value, rows))
            while mw.pending:
                for result in mw.process_next_batch():
                    results[result.node_id] = result.cc
            cache = mw.execution.scan_cache
            shipped = (
                0 if cache is None or cache._shipper is None
                else cache._shipper.shipped
            )
            segments = 0 if cache is None else cache.live_segments
            trace = list(mw.trace)
        return results, trace, segments, shipped, server.meter.total

    def test_levels_after_first_encode_nothing_and_reship_nothing(self):
        results, trace, segments, shipped, cost = self._fit(
            scan_pool="process"
        )
        if not any(r.cached for r in trace):
            pytest.skip("columnar cache not active")
        # Level 0 is the one cold scan; every later level is warm with
        # zero encode seconds and no second shipment of the table.
        assert not trace[0].cache_hit
        assert all(r.cache_hit for r in trace[1:])
        assert all(r.encode_seconds == 0.0 for r in trace[1:])
        assert shipped == 1
        assert segments == 1
        _, _, _, _, cold_cost = self._fit(
            scan_pool="process", scan_cache_bytes=0
        )
        assert cost == pytest.approx(cold_cost)
        rows = dataset_rows()
        for value in range(3):
            subset = [r for r in rows if r[0] == value]
            assert results[f"n{value}"] == build_cc_from_rows(
                subset, SPEC, ("A2",)
            )

    def test_insert_between_scans_invalidates_by_version(self):
        rows = dataset_rows()
        server = make_server(rows)
        config = MiddlewareConfig(
            memory_bytes=100_000, file_staging=False,
            memory_staging=False, scan_workers=2, **PARALLEL,
        )
        with Middleware(server, "data", SPEC, config) as mw:
            mw.queue_request(root_request(rows))
            mw.process_next_batch()
            cache = mw.execution.scan_cache
            if cache is None or not mw.trace[-1].cached:
                pytest.skip("columnar cache not active")
            assert cache.misses == 1
            mw.queue_request(child_request("n0", 0, rows))
            mw.process_next_batch()
            assert cache.hits == 1
            # A write bumps the table version: the resident entry can
            # never be hit again, and the next scan re-encodes — and
            # counts the new row.
            server.table("data").insert((2, 2, 1))
            grown = rows + [(2, 2, 1)]
            mw.queue_request(child_request("n2", 2, grown))
            (result,) = mw.process_next_batch()
            assert cache.misses == 2
            assert cache.resident_entries == 1  # stale version dropped
            subset = [r for r in grown if r[0] == 2]
            assert result.cc == build_cc_from_rows(subset, SPEC, ("A2",))

    @pytest.mark.parametrize("strategy",
                             ["temp_table", "tid_join", "keyset"])
    def test_aux_strategies_warm_equals_cold(self, strategy):
        def run(cache_on):
            rows = dataset_rows()
            server = make_server(rows)
            config = MiddlewareConfig(
                memory_bytes=100_000, file_staging=False,
                memory_staging=False, scan_workers=2,
                aux_strategy=strategy, aux_build_threshold=0.5,
                **PARALLEL, **({} if cache_on else {"scan_cache_bytes": 0}),
            )
            results = {}
            with Middleware(server, "data", SPEC, config) as mw:
                mw.queue_request(root_request(rows))
                mw.process_next_batch()
                for value in range(3):
                    mw.queue_request(child_request(f"n{value}", value, rows))
                    for result in mw.process_next_batch():
                        results[result.node_id] = result.cc
            return results, server.meter.total

        warm, warm_cost = run(True)
        cold, cold_cost = run(False)
        assert warm == cold
        assert warm_cost == pytest.approx(cold_cost)


# ---------------------------------------------------------------------------
# the worker-side keep mask replicates compiled predicate semantics
# ---------------------------------------------------------------------------


class _Schema:
    _POSITIONS = {"A1": 0, "A2": 1, "class": 2}

    def index_of(self, name):
        return self._POSITIONS[name]


_ATTR_INDEX = {"A1": 0, "A2": 1}

_values = st.one_of(
    st.none(),
    st.integers(min_value=-2, max_value=3),
    st.sampled_from(["x", "y", "ä"]),
    st.booleans(),
)
_rows_strategy = st.lists(
    st.tuples(_values, _values, st.integers(min_value=0, max_value=2)),
    max_size=40,
)
_leaves = st.builds(
    lambda attr, value, is_eq: (eq if is_eq else ne)(attr, value),
    st.sampled_from(("A1", "A2")),
    st.one_of(st.none(), st.integers(min_value=-2, max_value=3),
              st.sampled_from(["x", "zzz"])),
    st.booleans(),
)
_predicates = st.lists(
    st.lists(_leaves, min_size=1, max_size=3).map(all_of),
    min_size=1, max_size=3,
).map(any_of)


class TestKeepMaskParity:
    @given(rows=_rows_strategy, predicate=_predicates)
    @settings(max_examples=120, deadline=None)
    def test_mask_matches_compiled_predicate(self, rows, predicate):
        # Exactly the shape the planner admits: disjunctions of
        # =/<> conjunctions against literals.
        assert filter_supported(predicate)
        partition = ColumnarPartition.from_rows(rows)
        mask = predicate_mask(partition, predicate, _ATTR_INDEX)
        compiled = predicate.compile(_Schema())
        assert mask.tolist() == [bool(compiled(row)) for row in rows]

    def test_null_never_qualifies_either_way(self):
        rows = [(None, 1, 0), (1, None, 1), (None, None, 0), (2, 2, 1)]
        partition = ColumnarPartition.from_rows(rows)
        for predicate in (eq("A1", 1), ne("A1", 1), eq("A1", None)):
            mask = predicate_mask(partition, predicate, _ATTR_INDEX)
            compiled = predicate.compile(_Schema())
            assert mask.tolist() == [bool(compiled(r)) for r in rows]
