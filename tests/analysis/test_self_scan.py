"""Self-hosting gate: the analysis suite is clean over its own repo.

This is the local equivalent of the CI static-analysis job: ``src/``
must produce zero unsuppressed findings.  A failure here means either
a real defect slipped in or a new finding needs a justified
``# repro-lint: disable=<rule> -- why`` pragma.
"""

import os

from repro.analysis import analyze, default_rules

REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "..")
)


def test_src_is_clean():
    report = analyze(
        [os.path.join(REPO_ROOT, "src")], default_rules(), root=REPO_ROOT
    )
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.clean, f"unsuppressed findings in src/:\n{rendered}"
    assert report.parse_errors == 0


def test_every_suppression_in_src_is_justified_and_used():
    report = analyze(
        [os.path.join(REPO_ROOT, "src")], default_rules(), root=REPO_ROOT
    )
    audit = [f for f in report.findings
             if f.rule in ("unjustified-suppression",
                           "unused-suppression")]
    assert audit == []


def test_scan_covers_the_whole_package():
    report = analyze(
        [os.path.join(REPO_ROOT, "src")], default_rules(), root=REPO_ROOT
    )
    # Guard against the scanner silently skipping the tree: the repo
    # has dozens of modules under src/.
    assert report.files_scanned > 50

