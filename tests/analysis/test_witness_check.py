"""The CI witness check: observed lock-order edges must be blessed."""

import json

import pytest

from repro.analysis.runtime.witness import (
    WitnessEdge,
    load_witness,
    load_witness_edges,
    merge_witness_edges,
    save_witness,
    save_witness_edges,
)
from repro.analysis.witness_check import main


def write_report(path, edges, records=None):
    payload = {
        "clean": True,
        "findings": [],
        "lock_order_edges": [list(edge) for edge in edges],
        "resources": {"created": 0, "closed": 0, "live": 0},
    }
    if records is not None:
        payload["lock_order_edge_records"] = records
    path.write_text(json.dumps(payload), encoding="utf-8")


@pytest.fixture
def witness(tmp_path):
    path = tmp_path / "lock_order.witness.json"
    save_witness_edges(str(path), [("pool.mutex", "queue.mutex")])
    return path


class TestWitnessCheck:
    def test_observed_subset_of_blessed_is_clean(self, tmp_path, witness,
                                                 capsys):
        report = tmp_path / "report.json"
        write_report(report, [("pool.mutex", "queue.mutex")])
        assert main([str(report), "--witness", str(witness)]) == 0
        assert "all blessed" in capsys.readouterr().out

    def test_empty_run_against_nonempty_witness_is_clean(self, tmp_path,
                                                         witness, capsys):
        # One run never exercises every path; unexercised blessed edges
        # are informational, not failures.
        report = tmp_path / "report.json"
        write_report(report, [])
        assert main([str(report), "--witness", str(witness)]) == 0
        assert "not observed this run" in capsys.readouterr().out

    def test_undocumented_edge_fails(self, tmp_path, witness, capsys):
        report = tmp_path / "report.json"
        write_report(report, [("pool.mutex", "queue.mutex"),
                              ("cache.mutex", "pool.mutex")])
        assert main([str(report), "--witness", str(witness)]) == 1
        out = capsys.readouterr().out
        assert "undocumented lock-order edge: cache.mutex -> pool.mutex" \
            in out
        assert "--update" in out

    def test_update_blesses_the_union(self, tmp_path, witness):
        report = tmp_path / "report.json"
        write_report(report, [("cache.mutex", "pool.mutex")])
        assert main([str(report), "--witness", str(witness),
                     "--update"]) == 0
        assert load_witness_edges(str(witness)) == [
            ("cache.mutex", "pool.mutex"),
            ("pool.mutex", "queue.mutex"),
        ]
        # The refreshed file now passes the check it just failed.
        assert main([str(report), "--witness", str(witness)]) == 0

    def test_update_is_deterministic(self, tmp_path, witness):
        report = tmp_path / "report.json"
        write_report(report, [("cache.mutex", "pool.mutex")])
        main([str(report), "--witness", str(witness), "--update"])
        first = witness.read_bytes()
        main([str(report), "--witness", str(witness), "--update"])
        assert witness.read_bytes() == first
        assert first.endswith(b"\n")

    def test_missing_report_is_usage_error(self, tmp_path, witness,
                                           capsys):
        missing = tmp_path / "nope.json"
        assert main([str(missing), "--witness", str(witness)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_report_is_usage_error(self, tmp_path, witness,
                                             capsys):
        report = tmp_path / "report.json"
        report.write_text("{not json", encoding="utf-8")
        assert main([str(report), "--witness", str(witness)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_witness_discovery_walks_up(self, tmp_path, monkeypatch):
        save_witness_edges(
            str(tmp_path / "lock_order.witness.json"),
            [("a", "b")],
        )
        nested = tmp_path / "deep" / "er"
        nested.mkdir(parents=True)
        report = nested / "report.json"
        write_report(report, [("a", "b")])
        monkeypatch.chdir(nested)
        assert main([str(report)]) == 0

    def test_no_witness_anywhere_is_usage_error(self, tmp_path,
                                                monkeypatch, capsys):
        report = tmp_path / "report.json"
        write_report(report, [])
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            "repro.analysis.witness_check.find_witness_file",
            lambda: None,
        )
        assert main([str(report)]) == 2
        assert "no lock_order.witness.json" in capsys.readouterr().err

    def test_update_merges_observed_thread_names(self, tmp_path, witness):
        # The report's edge records carry the holding threads; --update
        # folds them into the blessed records (v2 format).
        report = tmp_path / "report.json"
        write_report(
            report,
            [("pool.mutex", "queue.mutex")],
            records=[{"outer": "pool.mutex", "inner": "queue.mutex",
                      "threads": ["MainThread", "scan-1"]}],
        )
        assert main([str(report), "--witness", str(witness),
                     "--update"]) == 0
        payload = json.loads(witness.read_text(encoding="utf-8"))
        assert payload["version"] == 2
        assert load_witness(str(witness)) == [
            WitnessEdge("pool.mutex", "queue.mutex",
                        threads=("MainThread", "scan-1")),
        ]


class TestWitnessFormat:
    def test_v1_pair_files_still_load(self, tmp_path):
        path = tmp_path / "lock_order.witness.json"
        path.write_text(json.dumps({
            "description": "old format",
            "edges": [["a.m", "b.m"], ["b.m", "c.m"]],
        }), encoding="utf-8")
        edges = load_witness(str(path))
        assert [e.pair for e in edges] == [("a.m", "b.m"), ("b.m", "c.m")]
        assert all(e.threads == () for e in edges)
        assert load_witness_edges(str(path)) == [
            ("a.m", "b.m"), ("b.m", "c.m"),
        ]

    def test_v2_records_round_trip(self, tmp_path):
        path = tmp_path / "lock_order.witness.json"
        save_witness(str(path), [
            WitnessEdge("a.m", "b.m", threads=("T1", "T2")),
            WitnessEdge("b.m", "c.m"),
        ])
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert payload["version"] == 2
        edges = load_witness(str(path))
        assert edges == [
            WitnessEdge("a.m", "b.m", threads=("T1", "T2")),
            WitnessEdge("b.m", "c.m"),
        ]

    def test_save_is_deterministic(self, tmp_path):
        path = tmp_path / "lock_order.witness.json"
        save_witness(str(path), [
            WitnessEdge("a.m", "b.m", threads=("T2", "T1", "T1")),
        ])
        first = path.read_bytes()
        save_witness(str(path), load_witness(str(path)))
        assert path.read_bytes() == first
        assert first.endswith(b"\n")

    def test_merge_unions_threads(self):
        merged = merge_witness_edges(
            [WitnessEdge("a.m", "b.m", threads=("T1",))],
            [WitnessEdge("a.m", "b.m", threads=("T2",)),
             WitnessEdge("x.m", "y.m")],
        )
        assert merged == [
            WitnessEdge("a.m", "b.m", threads=("T1", "T2")),
            WitnessEdge("x.m", "y.m"),
        ]
