"""``tools/fingerprint.py``: what it records, that it is a pure function
of the program's behaviour, and that it writes nothing but ``--out``."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "fingerprint.py"

spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fingerprint)


def run(out, *args):
    subprocess.run(
        [sys.executable, str(TOOL), "--seeds", "1", "--scale", "40",
         "--out", str(out), *args],
        check=True, capture_output=True, text=True, timeout=300,
    )
    return out.read_bytes()


@pytest.fixture(scope="module")
def dumps(tmp_path_factory):
    base = tmp_path_factory.mktemp("fingerprint")
    status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                            capture_output=True, text=True).stdout
    first = run(base / "a.json", "--workload", "staged_default",
                "--workload", "sql_counting")
    second = run(base / "b.json", "--workload", "staged_default",
                 "--workload", "sql_counting")
    after = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                           capture_output=True, text=True).stdout
    return first, second, status, after


def test_two_runs_are_byte_identical(dumps):
    first, second, _, _ = dumps
    assert first == second


def test_every_fit_records_its_decisions_and_artefacts(dumps):
    fits = json.loads(dumps[0])
    labels = [fit["fit"] for fit in fits]
    assert labels[:4] == [
        "staged_default seed=1 fit 1", "staged_default seed=1 fit 2",
        "sql_counting seed=1 fit 1", "sql_counting seed=1 fit 2",
    ]
    # The staged and no-staging plans, each on three executors.
    assert [label.rsplit(" on ", 1)[1] for label in labels[4:]] == (
        list(fingerprint.EXECUTORS) * 3
    )
    staged = fits[0]
    assert staged["scans"] and staged["memory_sets"]
    mode, batch, cost, rows_seen, *_ = staged["scans"][0]
    assert (mode, batch) == ("SERVER", [0]) and rows_seen == 2500
    assert float(cost) > 0 and float(staged["cost_units"]) > 0
    assert all(len(digest) == 64 for digest in staged["memory_sets"])
    # sql_counting never enters the middleware: a tree and a cost only.
    assert fits[2]["scans"] == [] and fits[2]["tree"] == fits[3]["tree"]
    # The same plan decides the same on every executor.
    plans = fits[4:]
    for first in range(0, len(plans), 3):
        group = plans[first:first + 3]
        assert len({json.dumps({**fit, "fit": None}) for fit in group}) == 1


def test_it_writes_only_its_output(dumps):
    _, _, before, after = dumps
    assert before == after
