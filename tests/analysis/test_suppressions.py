"""The suppression pragma: justified, unjustified, unused.

The unused audit is per *rule*, scoped to the rules that actually ran:
``disable=a,b`` where only ``a`` matched reports ``b`` unused — but
only when ``b`` was part of the run, so ``--select`` passes cannot
false-flag pragmas belonging to unselected rules.
"""

import os

from repro.analysis import analyze
from repro.analysis.rules.base import Rule
from repro.analysis.rules.resource_lifecycle import ResourceLifecycleRule

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


class NeverFires(Rule):
    """A rule that runs and finds nothing: a pragma's stale half."""

    name = "never-fires"

    def check(self, project):
        return []


def run(rules=None):
    path = os.path.join(FIXTURES, "suppressed.py")
    rules = rules or [ResourceLifecycleRule()]
    return analyze([path], rules, root=FIXTURES)


def test_justified_suppression_silences_the_finding():
    report = run()
    suppressed = [f for f in report.suppressed
                  if f.rule == "resource-lifecycle"]
    assert len(suppressed) == 1
    # ...and no finding survives on the justified line itself.
    justified_line = suppressed[0].line
    assert all(f.line != justified_line for f in report.findings)


def test_unjustified_suppression_is_reported():
    report = run()
    unjustified = [f for f in report.findings
                   if f.rule == "unjustified-suppression"]
    assert len(unjustified) == 1
    assert "justification" in unjustified[0].message


def test_unjustified_pragma_does_not_silence_the_finding():
    report = run()
    # The resource-lifecycle finding on the unjustified line still fires.
    live = [f for f in report.findings if f.rule == "resource-lifecycle"]
    assert len(live) == 1


def test_unused_suppression_is_reported():
    report = run()
    unused = [f for f in report.findings
              if f.rule == "unused-suppression"]
    assert len(unused) == 1
    assert "resource-lifecycle" in unused[0].message


def test_unused_audit_skips_rules_that_did_not_run():
    # Only never-fires runs: the never-matching resource-lifecycle
    # pragma cannot be judged unused, because its rule never had the
    # chance.
    report = run([NeverFires()])
    assert not any(
        f.rule == "unused-suppression" for f in report.findings
    )


def test_multi_rule_pragma_audits_each_rule_separately(tmp_path):
    path = tmp_path / "multi.py"
    path.write_text(
        "def go(staging, writers):\n"
        "    try:\n"
        "        writers.run()\n"
        "    except Exception:  "
        "# repro-lint: disable=resource-lifecycle,never-fires -- demo of both\n"
        "        staging.abandon_file(writers)\n"
        "        raise\n"
    )
    report = analyze(
        [str(path)], [ResourceLifecycleRule(), NeverFires()],
        root=str(tmp_path),
    )
    # resource-lifecycle matched; never-fires ran but never fired ->
    # exactly one unused finding, naming the stale half of the pragma.
    assert [f.rule for f in report.findings] == ["unused-suppression"]
    assert "never-fires" in report.findings[0].message
    assert "resource-lifecycle" not in report.findings[0].message
    assert len(report.suppressed) == 1
