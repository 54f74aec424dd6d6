"""SARIF output: structurally valid 2.1.0 for GitHub code scanning.

No network and no jsonschema dependency here, so validation is
structural: every constraint asserted below is a required property or
enum from the SARIF 2.1.0 schema (version string, run/tool/driver
shape, result ruleId/message/locations, 1-based regions, suppression
objects).  CI's ``upload-sarif`` step is the end-to-end check.
"""

import json
import os

from repro.analysis import analyze
from repro.analysis.__main__ import main
from repro.analysis.rules import default_rules
from repro.analysis.sarif import SARIF_VERSION, to_sarif

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def sarif_for(fixture, rules=None):
    rules = rules or default_rules()
    path = os.path.join(FIXTURES, fixture)
    report = analyze([path], rules, root=FIXTURES)
    return to_sarif(report, rules, root=FIXTURES), report


def test_document_skeleton():
    document, _ = sarif_for("resource_bad.py")
    assert document["version"] == SARIF_VERSION == "2.1.0"
    assert document["$schema"].endswith("sarif-schema-2.1.0.json")
    assert len(document["runs"]) == 1
    driver = document["runs"][0]["tool"]["driver"]
    assert driver["name"] == "repro-analysis"
    assert driver["rules"]


def test_every_result_resolves_its_rule_id():
    document, _ = sarif_for("resource_bad.py")
    run = document["runs"][0]
    declared = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    for result in run["results"]:
        assert result["ruleId"] in declared
        assert result["level"] == "error"
        assert result["message"]["text"]


def test_regions_are_one_based():
    document, report = sarif_for("resource_bad.py")
    results = document["runs"][0]["results"]
    assert len(results) == len(report.findings)
    by_message = {f.message: f for f in report.findings}
    for result in results:
        region = result["locations"][0]["physicalLocation"]["region"]
        finding = by_message[result["message"]["text"]]
        assert region["startLine"] == finding.line
        assert region["startColumn"] == finding.column + 1
        assert region["startColumn"] >= 1


def test_artifact_uris_are_root_relative_forward_slash():
    document, _ = sarif_for("resource_bad.py")
    for result in document["runs"][0]["results"]:
        uri = result["locations"][0]["physicalLocation"][
            "artifactLocation"]["uri"]
        assert uri == "resource_bad.py"
        assert "\\" not in uri and not os.path.isabs(uri)


def test_suppressed_findings_are_kept_and_marked():
    document, report = sarif_for("suppressed.py")
    assert report.suppressed
    marked = [
        result for result in document["runs"][0]["results"]
        if result.get("suppressions")
    ]
    assert len(marked) == len(report.suppressed)
    for result in marked:
        assert result["suppressions"] == [{"kind": "inSource"}]


def test_run_properties_carry_timings():
    document, report = sarif_for("resource_bad.py")
    properties = document["runs"][0]["properties"]
    assert properties["filesScanned"] == report.files_scanned
    assert properties["rulesRun"] == report.rules_run
    assert set(properties["ruleTimings"]) == set(report.rule_timings)


def test_cli_sarif_output_round_trips(tmp_path, capsys):
    out_path = tmp_path / "analysis.sarif"
    code = main([
        os.path.join(FIXTURES, "resource_bad.py"),
        "--format", "sarif", "--output", str(out_path),
        "--select", "resource-lifecycle", "--root", FIXTURES,
    ])
    assert code == 1
    document = json.loads(out_path.read_text())
    results = document["runs"][0]["results"]
    assert len(results) == 3
    assert {result["ruleId"] for result in results} == \
        {"resource-lifecycle"}
    assert "catch BaseException" in results[0]["message"]["text"]
