"""``tools/ab_pairs.py``: the verdict rule on hand-made samples, and
that measuring leaves the repository alone."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]

spec = importlib.util.spec_from_file_location(
    "ab_pairs", ROOT / "tools" / "ab_pairs.py"
)
ab_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_pairs)

#: Ten parent runs around 2.0 s, quartile distance 0.1.
PARENT = [1.9, 1.95, 1.95, 2.0, 2.0, 2.0, 2.05, 2.05, 2.1, 2.2]


def verdict(change, parent=PARENT, better="lower", bound=0.25):
    return ab_pairs.judge(parent, change, better, bound)["verdict"]


class TestJudge:
    def test_gain_needs_nine_of_ten_and_more_than_the_parents_spread(self):
        faster = [value - 0.5 for value in PARENT]
        row = ab_pairs.judge(PARENT, faster, "lower", 0.25)
        assert row["verdict"] == "gain"
        assert (row["won"], row["lost"], row["pairs"]) == (10, 0, 10)
        assert row["change_pct"] == pytest.approx(-25.0)
        # Eight wins of ten is not enough, however large they are.
        assert verdict(faster[:8] + [5.0, 5.0]) != "gain"
        # Ten wins smaller than the parent's own quartile distance
        # (0.0875) are not one either.
        assert verdict([value - 0.05 for value in PARENT]) == "within bound"

    def test_ties_count_for_neither_side(self):
        change = PARENT[:2] + [value - 0.5 for value in PARENT[2:]]
        row = ab_pairs.judge(PARENT, change, "lower", 0.25)
        assert (row["won"], row["lost"]) == (8, 0)
        assert row["verdict"] != "gain"

    def test_regression_is_the_median_past_the_bound(self):
        assert verdict([value * 1.3 for value in PARENT]) == "regression"
        assert verdict([value * 1.2 for value in PARENT]) == "within bound"
        # Higher is better: the same numbers read the other way.
        assert verdict([value * 1.3 for value in PARENT],
                       better="higher") == "gain"
        assert verdict([value * 0.7 for value in PARENT],
                       better="higher") == "regression"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        noisy = [1.0, 3.0] * 5
        assert verdict(noisy, bound=0.1) == "unresolved"
        assert verdict(PARENT, parent=noisy, bound=0.1) == "unresolved"
        # ... unless every run of the change is at least as good as
        # every run of the parent.
        assert verdict([0.9] * 10, parent=noisy, bound=0.1) != "unresolved"

    def test_identical_counts_are_within_bound(self):
        row = ab_pairs.judge([4413.4] * 10, [4413.4] * 10, "lower", 0.08)
        assert row["verdict"] == "within bound"
        assert (row["won"], row["lost"], row["change_pct"]) == (0, 0, 0.0)

    def test_one_pair(self):
        assert ab_pairs.quartiles([2.0]) == (2.0, 2.0, 2.0)
        assert verdict([1.0], parent=[2.0]) == "gain"


def fake_runs(values, failed, attempted=100):
    return [
        {"metrics": {"fit_wall_s": {"value": value}}, "failed": failed,
         "attempted": attempted}
        for value in values
    ]


class TestFailedOps:
    MANIFEST = {"end_to_end": [
        {"name": "fit_wall_s", "better": "lower", "bound": 0.25},
    ]}
    FASTER = [value - 0.5 for value in PARENT]

    def verdict(self, parent, change):
        table = ab_pairs.report(
            {"w": {"parent": parent, "change": change}}, self.MANIFEST
        )
        return table["w"]["metrics"]["fit_wall_s"]["verdict"]

    def test_no_gain_for_a_change_that_fails_a_larger_share(self, capsys):
        assert self.verdict(fake_runs(PARENT, 0),
                            fake_runs(self.FASTER, 0)) == "gain"
        assert self.verdict(fake_runs(PARENT, 0),
                            fake_runs(self.FASTER, 1)) == "more failed ops"
        assert "more failed ops" in capsys.readouterr().out
        # Shares: the faster side attempts more, so fails more in number.
        assert self.verdict(fake_runs(PARENT, 1, attempted=100),
                            fake_runs(self.FASTER, 2, attempted=200)) == "gain"
        # Only a gain is withdrawn; the other verdicts stand.
        slower = [value * 1.3 for value in PARENT]
        assert self.verdict(fake_runs(PARENT, 0),
                            fake_runs(slower, 1)) == "regression"


def _git_usable():
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return done.returncode == 0


@pytest.mark.skipif(not _git_usable(), reason="not a git checkout")
def test_exports_both_sides_without_touching_the_repository(tmp_path):
    before = subprocess.run(
        ["git", "-C", str(ROOT), "status", "--porcelain", "--ignored"],
        stdout=subprocess.PIPE, check=True,
    ).stdout
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    ab_pairs.export_parent("HEAD", parent)
    ab_pairs.export_working_tree(change)
    for side in (parent, change):
        assert (side / "benchmarks" / "e2e" / "run.py").is_file()
        assert json.loads((side / "BENCHMARK.json").read_text())["workloads"]
        assert not (side / ".git").exists()
    # The change side is the working tree, this file included.
    here = Path(__file__).relative_to(ROOT)
    assert (change / here).read_text() == Path(__file__).read_text()
    assert not list(change.rglob("__pycache__"))
    after = subprocess.run(
        ["git", "-C", str(ROOT), "status", "--porcelain", "--ignored"],
        stdout=subprocess.PIPE, check=True,
    ).stdout
    assert after == before


def test_cli_rejects_an_unknown_workload(capsys):
    with pytest.raises(SystemExit):
        ab_pairs.main(["HEAD", "--workload", "nope"])
    assert "unknown workload" in capsys.readouterr().err
    assert sys.modules.get("ab_pairs") is None  # loaded by path only


def test_run_length_is_the_benchmarks_not_an_option(capsys):
    with pytest.raises(SystemExit):
        ab_pairs.main(["HEAD", "--seconds", "1"])
    assert "unrecognized arguments" in capsys.readouterr().err
