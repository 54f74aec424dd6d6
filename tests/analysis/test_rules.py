"""Each rule catches its seeded fixture violations — and only those."""

import os

from repro.analysis import analyze
from repro.analysis.rules.resource_lifecycle import ResourceLifecycleRule

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def findings_for(fixture, rule, root=None):
    path = os.path.join(FIXTURES, fixture)
    report = analyze([path], [rule], root=root or FIXTURES)
    return report.findings


class TestResourceLifecycle:
    def test_catches_leaks_and_narrow_handlers(self):
        findings = findings_for("resource_bad.py", ResourceLifecycleRule())
        assert len(findings) == 3
        messages = [f.message for f in findings]
        assert any("catch BaseException" in m for m in messages)
        assert any("no close/seal" in m for m in messages)
        assert any("only closed on the normal path" in m for m in messages)

    def test_well_behaved_functions_pass(self):
        findings = findings_for("resource_bad.py", ResourceLifecycleRule())
        text = open(os.path.join(FIXTURES, "resource_bad.py")).read()
        ok_lines = {
            i for i, line in enumerate(text.splitlines(), 1)
            if "# OK" in line
        }
        assert not ok_lines & {f.line for f in findings}
