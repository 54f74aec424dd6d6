"""Unit tests for execution tracing."""

import ast
import dataclasses
from pathlib import Path

import pytest

import repro.core
from repro.client.decision_tree import DecisionTreeClassifier
from repro.core.config import MiddlewareConfig
from repro.core.middleware import Middleware
from repro.core.trace import ExecutionTrace, ScheduleRecord
from repro.datagen.loader import load_dataset
from repro.datagen.random_tree import RandomTreeConfig, build_random_tree
from repro.sqlengine.database import SQLServer


def fit_traced(config):
    generating = build_random_tree(
        RandomTreeConfig(
            n_attributes=8,
            values_per_attribute=3,
            n_classes=4,
            n_leaves=12,
            cases_per_leaf=15,
            seed=44,
        )
    )
    server = SQLServer()
    load_dataset(server, "data", generating.spec, generating.materialize())
    with Middleware(server, "data", generating.spec, config) as mw:
        DecisionTreeClassifier().fit(mw)
        return server, mw


class TestScheduleRecord:
    def test_str_mentions_actions(self):
        record = ScheduleRecord(
            sequence=3,
            mode="FILE",
            source_node=7,
            batch=(8, 9),
            stage_file_targets=(8,),
            stage_memory_targets=(),
            split_file=True,
            rows_seen=100,
            rows_routed=90,
            deferrals=1,
            sql_fallbacks=0,
            cost=12.5,
        )
        text = str(record)
        assert "#3 FILE(7)" in text
        assert "split" in text
        assert "deferred=1" in text

    def test_rendered_line_is_stable(self):
        record = ScheduleRecord(
            sequence=0,
            mode="SERVER",
            source_node=None,
            batch=(0,),
            stage_file_targets=(0,),
            stage_memory_targets=(),
            split_file=False,
            cost=5867.0,
            rows_seen=20000,
            rows_routed=20000,
            wall_seconds=0.0625,
            access_path="seq",
        )
        assert record.rows_per_sec == 320000.0  # derived, not stored
        assert str(record) == (
            "#0 SERVER via=seq batch=1 rows=20000 cost=5867.0 "
            "320,000 rows/s (inline) [stage->file[0]]"
        )
        pooled = dataclasses.replace(
            record, sequence=1, mode="FILE", source_node=0, batch=(1, 2),
            stage_file_targets=(), workers=2, cached=True, cache_hit=True,
            access_path="", cost=1000.0,
        )
        assert str(pooled) == (
            "#1 FILE(0) batch=2 rows=20000 cost=1000.0 "
            "320,000 rows/s (x2w warm)"
        )


#: The per-scan fields of the two classes this record replaced, as they
#: stood at the parent commit (29 each).
PARENT_SCAN_STATS = {
    "mode", "rows_seen", "rows_routed", "nodes_served", "sql_fallbacks",
    "deferrals", "files_written", "memory_sets_loaded", "wall_seconds",
    "matcher_evals", "kernel", "workers", "merge_seconds",
    "worker_seconds", "pool_setup_seconds", "pool_reused",
    "prefetch_depth", "split_writers", "columnar", "encode_seconds",
    "ship_seconds", "cached", "cache_hit", "encode_seconds_saved",
    "ship_seconds_saved", "partition_rows", "prefetch_peak",
    "access_path", "access_cost_est",
}
PARENT_SCHEDULE_RECORD = {
    "sequence", "mode", "source_node", "batch", "stage_file_targets",
    "stage_memory_targets", "split_file", "rows_seen", "rows_routed",
    "deferrals", "sql_fallbacks", "cost", "wall_seconds", "rows_per_sec",
    "matcher_evals", "kernel", "workers", "merge_seconds",
    "pool_setup_seconds", "prefetch_depth", "split_writers", "columnar",
    "encode_seconds", "ship_seconds", "prefetch_peak", "cached",
    "cache_hit", "access_path", "access_cost_est",
}
#: What a scan is asked to do: the scheduler's ``Schedule`` plans these
#: and the record reports them, so both classes name them.
SCHEDULE_FACTS = {
    "mode", "source_node", "batch", "stage_file_targets",
    "stage_memory_targets", "split_file",
}


class TestDeclaredOnce:
    """Every per-scan fact has one declaration: the record's."""

    def _declaring_classes(self):
        declared = {}
        for path in Path(repro.core.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.ClassDef):
                    continue
                for statement in node.body:
                    if (isinstance(statement, ast.AnnAssign)
                            and isinstance(statement.target, ast.Name)):
                        declared.setdefault(
                            statement.target.id, set()
                        ).add(node.name)
        return declared

    def test_record_covers_both_parent_classes(self):
        fields = {f.name for f in dataclasses.fields(ScheduleRecord)}
        assert len(PARENT_SCAN_STATS) == len(PARENT_SCHEDULE_RECORD) == 29
        # PR 20: one loop and one kernel made ``kernel`` and
        # ``columnar`` constants, so the record dropped them.  PR 22:
        # no SERVER scan streams a cursor, so the prefetch thread and
        # its two fields went too.  Derived siblings added which nodes
        # a scan derived instead of counting, and their rows; the tag
        # route added which route a scan took.  Staged pieces are
        # written in place on every executor, so no scan runs writer
        # threads to count.
        assert fields == (
            PARENT_SCAN_STATS | PARENT_SCHEDULE_RECORD
        ) - {"rows_per_sec", "kernel", "columnar", "prefetch_depth",
             "prefetch_peak", "split_writers"} | {
                 "derived", "rows_derived", "routing"}
        assert len(fields) == 34
        assert isinstance(ScheduleRecord.rows_per_sec, property)

    def test_each_field_is_declared_by_one_class(self):
        declared = self._declaring_classes()
        for field in dataclasses.fields(ScheduleRecord):
            allowed = {"ScheduleRecord"}
            if field.name in SCHEDULE_FACTS:
                allowed.add("Schedule")
            assert declared[field.name] == allowed, field.name

    def test_no_session_accumulator_survives(self):
        assert not hasattr(repro.core, "ScanStats")
        assert not hasattr(repro.core, "ExecutionStats")
        _, mw = fit_traced(MiddlewareConfig(memory_bytes=200_000))
        assert mw.stats is mw.trace is mw.execution.trace


class TestBenchmarkContract:
    """Names ``benchmarks/e2e`` reads off a session (frozen there)."""

    STATS = ("batches", "rows_seen", "rows_routed", "parallel_scans",
             "deferrals", "sql_fallbacks", "worker_seconds_total",
             "encode_seconds_saved", "files_written", "memory_sets_loaded")

    def test_names_keep_their_meaning_after_close(self):
        server, mw = fit_traced(MiddlewareConfig(memory_bytes=200_000))
        stats, records = mw.stats, list(mw.trace)  # the session is closed
        for name in self.STATS:
            assert isinstance(getattr(stats, name), (int, float)), name
        assert stats.batches == len(records) > 1
        assert stats.rows_seen == sum(r.rows_seen for r in records) > 0
        assert 0 < stats.rows_routed <= stats.rows_seen
        # Planned stage targets, plus whatever §4.3.2 splits added.
        assert stats.files_written >= sum(
            len(r.stage_file_targets) for r in records
        ) > 0
        assert stats.memory_sets_loaded == sum(
            len(r.stage_memory_targets) for r in records
        )
        for record in records:
            assert isinstance(record.mode, str)
            assert record.mode.lower() in ("server", "file", "memory")
            assert len(record.batch) >= 1
            assert record.wall_seconds > 0.0
            assert record.cost > 0.0
            assert isinstance(record.cached, bool)
            assert isinstance(record.cache_hit, bool)
        assert sum(r.cost for r in records) == pytest.approx(
            server.meter.total
        )


class TestExecutionTrace:
    def test_one_record_per_batch(self):
        _, mw = fit_traced(MiddlewareConfig(memory_bytes=200_000))
        assert len(mw.trace) == mw.stats.batches

    def test_first_scan_is_server(self):
        _, mw = fit_traced(MiddlewareConfig(memory_bytes=200_000))
        assert mw.trace[0].mode == "SERVER"
        assert mw.trace[0].source_node is None

    def test_trace_cost_sums_to_meter(self):
        server, mw = fit_traced(MiddlewareConfig(memory_bytes=200_000))
        assert abs(mw.trace.total_cost - server.meter.total) < 1e-6

    def test_by_mode_matches_stats(self):
        _, mw = fit_traced(MiddlewareConfig.no_staging(200_000))
        from repro.core.staging import DataLocation

        assert len(mw.trace.by_mode("SERVER")) == mw.stats.scans_by_mode[
            DataLocation.SERVER
        ]
        assert mw.trace.by_mode("MEMORY") == []

    def test_staging_actions_recorded(self):
        _, mw = fit_traced(
            MiddlewareConfig(memory_bytes=400_000, file_split_threshold=0.5)
        )
        assert mw.trace[0].stage_file_targets  # root staged on first scan

    def test_render_multiline(self):
        _, mw = fit_traced(MiddlewareConfig(memory_bytes=200_000))
        text = mw.trace.render()
        assert text.count("\n") == len(mw.trace) - 1
        assert text.startswith("#0 SERVER")

    def test_batches_cover_every_counted_node_once(self):
        _, mw = fit_traced(MiddlewareConfig(memory_bytes=200_000))
        counted = [node for record in mw.trace for node in record.batch]
        # Deferred nodes appear in several batches; subtract deferrals.
        deferrals = sum(record.deferrals for record in mw.trace)
        assert len(counted) - deferrals == len(set(counted))


class TestDerivedSiblings:
    def test_records_name_the_derived_nodes_and_their_rows(self):
        _, mw = fit_traced(MiddlewareConfig(memory_bytes=200_000))
        records = [record for record in mw.trace if record.derived]
        assert records
        for record in records:
            # Batch order, every derived node one of the batch's.
            assert list(record.derived) == [
                node for node in record.batch if node in record.derived
            ]
            assert 0 < record.rows_derived <= record.rows_routed
        assert mw.stats.rows_derived == sum(
            record.rows_derived for record in records
        )
        assert f"{mw.stats.rows_derived:,} derived" in mw.report()

    def test_no_family_derives_nothing(self):
        _, mw = fit_traced(MiddlewareConfig(memory_bytes=200_000))
        # The root has no parent to derive from.
        assert mw.trace[0].derived == () and mw.trace[0].rows_derived == 0


class TestRouting:
    def test_records_say_which_route_ran(self):
        _, mw = fit_traced(MiddlewareConfig(memory_bytes=200_000))
        records = list(mw.trace)
        tagged = [record for record in records if record.routing == "tag"]
        assert tagged and all(record.mode == "MEMORY" for record in tagged)
        # SERVER and FILE scans take the path route.
        assert all(record.routing == "path" for record in records
                   if record.mode != "MEMORY")
        assert mw.stats.tag_routed_scans == len(tagged)
        # A tag-routed scan looks every row up once.
        assert all(record.matcher_evals == record.rows_seen
                   for record in tagged)
        assert f" {len(tagged)} tag-routed" in mw.report()

    def test_no_staging_routes_every_scan_by_path(self):
        _, mw = fit_traced(MiddlewareConfig.no_staging(200_000))
        assert mw.stats.tag_routed_scans == 0
        assert "matcher evals, 0 tag-routed" in mw.report()


class TestSessionReport:
    def test_report_summarises_session(self):
        server, mw = fit_traced(MiddlewareConfig(memory_bytes=200_000))
        report = mw.report()
        assert "middleware session on table 'data'" in report
        assert "simulated cost" in report
        assert "trace:" in report
        assert "#0 SERVER" in report
        assert f"{mw.stats.batches} batches" in report
        # No pooled scan ran, so the report must not invent a pool.
        assert "executor: inline, 0 pooled scans, " in report
        assert " workers, " not in report

    def test_report_before_any_scan(self):
        generating = build_random_tree(
            RandomTreeConfig(
                n_attributes=4, values_per_attribute=2, n_classes=2,
                n_leaves=3, cases_per_leaf=5, seed=1,
            )
        )
        server = SQLServer()
        load_dataset(server, "data", generating.spec,
                     generating.materialize())
        with Middleware(server, "data", generating.spec) as mw:
            report = mw.report()
        assert "0 batches (none)" in report
        assert "trace:" not in report
