"""Integration tests for the command-line interface."""

import dataclasses
import glob
import inspect
import json
import os
import re

import pytest

from repro import cli
from repro.cli import main
from repro.core import config as config_module
from repro.core.config import MiddlewareConfig

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)

#: README.md and docs/*.md, where every config knob must be named.
DOCS = "\n".join(
    open(path, encoding="utf-8").read()
    for path in [os.path.join(REPO_ROOT, "README.md"),
                 *sorted(glob.glob(os.path.join(REPO_ROOT, "docs", "*.md")))]
)

#: `repro fit` flags whose names predate the field-name convention
#: (`--field-name`, or `--no-field-name` for a field that defaults on).
FLAG_ALIASES = {
    "memory_bytes": ["--memory"],
    "file_staging": ["--no-staging", "--staging"],
    "memory_staging": ["--no-staging", "--staging"],
}

#: A non-default value for each field that doubling its default cannot
#: give one (a path-valued field gets a temporary directory).
FLAG_VALUES = {
    "file_budget_bytes": 1 << 30,
    "aux_strategy": "keyset",
    "scan_pool": "process",
}

#: `repro fit`'s own default where it differs from the library's.
CLI_DEFAULTS = {"memory_bytes": 256 * 1024}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fit_help(capsys):
    with pytest.raises(SystemExit):
        main(["fit", "--help"])
    return capsys.readouterr().out


def fit_config(data_csv, capsys, monkeypatch, flags):
    """The one MiddlewareConfig `repro fit` builds from ``flags``."""
    configs = []
    middleware = cli.Middleware

    def recording(server, table, spec, config):
        configs.append(config)
        return middleware(server, table, spec, config)

    monkeypatch.setattr(cli, "Middleware", recording)
    code, _, _ = run(["fit", str(data_csv), *flags], capsys)
    assert code == 0
    (config,) = configs
    return config


class TestGenerate:
    @pytest.mark.parametrize("workload", ["random-tree", "gaussian", "census"])
    def test_generates_csv(self, tmp_path, capsys, workload):
        out = tmp_path / "data.csv"
        code, stdout, _ = run(
            ["generate", "--workload", workload, "--rows", "300",
             "--seed", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "wrote" in stdout
        lines = out.read_text().splitlines()
        assert len(lines) > 100
        header = lines[0].split(",")
        assert len(header) >= 3


class TestFitEvaluatePredict:
    @pytest.fixture
    def data_csv(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code, _, __ = run(
            ["generate", "--workload", "random-tree", "--rows", "400",
             "--seed", "2", "--out", str(out)],
            capsys,
        )
        assert code == 0
        return out

    def test_fit_prints_summary_and_saves(self, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        code, stdout, _ = run(
            ["fit", str(data_csv), "--out", str(model),
             "--render-depth", "1", "--trace"],
            capsys,
        )
        assert code == 0
        assert "fitted tree" in stdout
        assert "training accuracy: 1.0000" in stdout
        assert "#0 SERVER" in stdout
        payload = json.loads(model.read_text())
        assert payload["format"] == "repro.decision_tree"

    def test_fit_no_staging_flag(self, data_csv, capsys):
        code, stdout, _ = run(
            ["fit", str(data_csv), "--no-staging"], capsys
        )
        assert code == 0
        assert "scans" in stdout

    @pytest.mark.parametrize("flags, chunk_rows", [
        ([], MiddlewareConfig().scan_chunk_rows),
        (["--scan-chunk-rows", "64"], 64),
    ])
    def test_scan_chunk_rows_is_passed_only_when_set(
            self, data_csv, capsys, monkeypatch, flags, chunk_rows):
        config = fit_config(data_csv, capsys, monkeypatch, flags)
        assert config.scan_chunk_rows == chunk_rows

    @pytest.mark.parametrize(
        "name",[knob.name for knob in dataclasses.fields(MiddlewareConfig)]
    )
    def test_every_config_field_has_a_flag_and_docs(
            self, data_csv, tmp_path, capsys, monkeypatch, name):
        """`repro fit`'s flag for the field sets it, leaving the flag
        out keeps the default, and README or docs/*.md names it."""
        default = getattr(MiddlewareConfig(), name)
        dashed = name.replace("_", "-")
        listed = fit_help(capsys)
        flags = [flag for flag in FLAG_ALIASES.get(name, [
            f"--no-{dashed}" if default is True else f"--{dashed}"
        ]) if re.search(rf"{flag}\b(?!-)", listed)]
        assert flags, f"config field {name!r} has no `repro fit` flag"
        if isinstance(default, bool):
            argv, expected = [flags[0]], not default
        else:
            expected = FLAG_VALUES.get(name)
            if expected is None:
                expected = default * 2 if isinstance(default, (int, float)) \
                    else str(tmp_path)
            argv = [flags[0], str(expected)]

        set_by_flag = fit_config(data_csv, capsys, monkeypatch, argv)
        assert getattr(set_by_flag, name) == expected
        left_out = fit_config(data_csv, capsys, monkeypatch, [])
        assert getattr(left_out, name) == CLI_DEFAULTS.get(name, default)
        assert name in DOCS or any(flag in DOCS for flag in flags), \
            f"config field {name!r} is not named in README.md or docs/*.md"

    def test_every_environment_variable_is_documented(self):
        source = inspect.getsource(config_module)
        for variable in set(re.findall(r"\bREPRO_[A-Z0-9_]+\b", source)):
            assert variable in DOCS, f"{variable} is not documented"

    def test_evaluate_cross_validates(self, data_csv, capsys):
        code, stdout, _ = run(
            ["evaluate", str(data_csv), "--folds", "3"], capsys
        )
        assert code == 0
        assert "3-fold accuracies" in stdout
        assert "mean accuracy" in stdout

    def test_predict_round_trip(self, data_csv, tmp_path, capsys):
        model = tmp_path / "model.json"
        run(["fit", str(data_csv), "--out", str(model)], capsys)
        scored = tmp_path / "scored.csv"
        code, stdout, _ = run(
            ["predict", str(model), str(data_csv), "--out", str(scored)],
            capsys,
        )
        assert code == 0
        assert "accuracy: 1.0000" in stdout
        lines = scored.read_text().splitlines()
        assert lines[0].endswith("predicted")
        data_rows = len(data_csv.read_text().splitlines()) - 1
        assert len(lines) == data_rows + 1


class TestErrors:
    def test_no_command_prints_help(self, capsys):
        code, stdout, _ = run([], capsys)
        assert code == 2
        assert "usage" in stdout

    def test_missing_file_is_reported(self, capsys):
        code, _, stderr = run(["fit", "/nonexistent/data.csv"], capsys)
        assert code == 1
        assert "error" in stderr

    def test_non_integer_csv_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,class\nhello,1\n")
        code, _, stderr = run(["fit", str(path)], capsys)
        assert code == 1
        assert "integer" in stderr

    def test_model_data_mismatch_rejected(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        run(
            ["generate", "--rows", "200", "--seed", "3",
             "--out", str(data)],
            capsys,
        )
        model = tmp_path / "model.json"
        run(["fit", str(data), "--out", str(model)], capsys)
        other = tmp_path / "other.csv"
        other.write_text("x,class\n0,0\n1,1\n")
        code, _, stderr = run(["predict", str(model), str(other)], capsys)
        assert code == 1
        assert "attributes" in stderr
