"""The ``python -m repro.analysis`` driver: formats and exit codes."""

import json
import os

import pytest

from repro.analysis.__main__ import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def test_exit_zero_on_clean_file(tmp_path, capsys):
    path = tmp_path / "clean.py"
    path.write_text("x = 1\n")
    assert main([str(path), "--root", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s)" in out


def test_exit_one_on_findings(capsys):
    code = main([fixture("resource_bad.py"), "--root", FIXTURES])
    assert code == 1
    out = capsys.readouterr().out
    assert "[resource-lifecycle]" in out
    assert "resource_bad.py" in out


def test_json_format_is_machine_readable(capsys):
    code = main([fixture("resource_bad.py"), "--format", "json",
                 "--root", FIXTURES])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_scanned"] == 1
    rules = {f["rule"] for f in payload["findings"]}
    assert rules == {"resource-lifecycle"}
    first = payload["findings"][0]
    assert set(first) == {"path", "line", "column", "rule", "message"}


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    listed = {line.split(":")[0] for line in out.splitlines()}
    assert listed == {"resource-lifecycle"}


def test_show_suppressed(capsys):
    code = main([fixture("suppressed.py"), "--show-suppressed",
                 "--root", FIXTURES])
    assert code == 1  # the unjustified + unused pragmas still fail it
    out = capsys.readouterr().out
    assert "[suppressed]" in out


def test_parse_error_is_a_finding(tmp_path, capsys):
    path = tmp_path / "broken.py"
    path.write_text("def broken(:\n")
    assert main([str(path), "--root", str(tmp_path)]) == 1
    assert "[parse-error]" in capsys.readouterr().out


def test_select_runs_only_named_rules(capsys):
    code = main([fixture("resource_bad.py"), "--format", "json",
                 "--select", "resource-lifecycle", "--root", FIXTURES])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules_run"] == ["resource-lifecycle"]
    assert {f["rule"] for f in payload["findings"]} == {"resource-lifecycle"}


def test_select_unknown_rule_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([fixture("resource_bad.py"),
              "--select", "no-such-rule"])
    assert excinfo.value.code == 2
    assert "no-such-rule" in capsys.readouterr().err


def test_json_reports_per_rule_timings(capsys):
    main([fixture("resource_bad.py"), "--format", "json",
          "--select", "resource-lifecycle",
          "--root", FIXTURES])
    payload = json.loads(capsys.readouterr().out)
    timings = payload["rule_timings"]
    # One entry per rule run.
    assert set(timings) == {"resource-lifecycle"}
    assert all(seconds >= 0 for seconds in timings.values())


def test_time_budget_exceeded_fails(tmp_path, capsys):
    path = tmp_path / "clean.py"
    path.write_text("x = 1\n")
    code = main([str(path), "--root", str(tmp_path),
                 "--time-budget", "0"])
    assert code == 1
    captured = capsys.readouterr()
    assert "over the 0.00s budget" in captured.err
    assert "slowest:" in captured.err


def test_time_budget_generous_passes(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text("x = 1\n")
    assert main([str(path), "--root", str(tmp_path),
                 "--time-budget", "60"]) == 0


def test_output_writes_file_instead_of_stdout(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main([fixture("resource_bad.py"), "--format", "json",
                 "--output", str(report_path), "--root", FIXTURES])
    assert code == 1
    assert capsys.readouterr().out == ""
    payload = json.loads(report_path.read_text())
    assert payload["findings"]
