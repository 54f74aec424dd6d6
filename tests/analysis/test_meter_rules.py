"""The three meter-integrity rules catch their seeded fixtures — and
only those.  Mirrors tests/analysis/test_rules.py for the new family.
"""

import os

from repro.analysis import analyze
from repro.analysis.rules.charge_category import ChargeCategoryRule
from repro.analysis.rules.mutation_completeness import \
    MutationCompletenessRule
from repro.analysis.rules.unmetered_row_access import \
    UnmeteredRowAccessRule

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def findings_for(fixture, rule, root=None):
    if isinstance(fixture, str):
        fixture = [fixture]
    paths = [os.path.join(FIXTURES, f) for f in fixture]
    report = analyze(paths, [rule], root=root or FIXTURES)
    return report.findings


def fixture_line(fixture, needle):
    with open(os.path.join(FIXTURES, fixture)) as handle:
        source_lines = handle.read().splitlines()
    return next(
        i for i, text in enumerate(source_lines, 1) if needle in text
    )


class TestChargeCategory:
    def test_all_four_seeded_violations(self):
        findings = findings_for(
            "charge_category_bad.py", ChargeCategoryRule()
        )
        assert len(findings) == 4
        assert all(f.rule == "charge-category" for f in findings)
        messages = " ".join(f.message for f in findings)
        assert "'trasnfer'" in messages          # typo'd literal
        assert "string literal" in messages      # computed category
        assert "'ghost'" in messages             # never-charged entry
        assert "'phantom_cost'" in messages      # never-read field

    def test_never_charged_anchors_at_the_declaration(self):
        findings = findings_for(
            "charge_category_bad.py", ChargeCategoryRule()
        )
        ghost = next(f for f in findings if "'ghost'" in f.message)
        assert ghost.line == fixture_line(
            "charge_category_bad.py", '"ghost",'
        )

    def test_valid_charges_pass(self):
        findings = findings_for(
            "charge_category_bad.py", ChargeCategoryRule()
        )
        flagged = {f.line for f in findings}
        ok_line = fixture_line(
            "charge_category_bad.py", 'meter.charge("scan"'
        )
        assert ok_line not in flagged


class TestUnmeteredRowAccess:
    def test_exactly_the_uncharged_entry_is_flagged(self):
        findings = findings_for("unmetered_bad.py",
                                UnmeteredRowAccessRule())
        assert len(findings) == 1
        finding = findings[0]
        assert finding.rule == "unmetered-row-access"
        assert "count_rows_unmetered" in finding.message
        assert "scan_rows" in finding.message

    def test_metered_caller_of_flagged_inner_is_not_reblamed(self):
        findings = findings_for("unmetered_bad.py",
                                UnmeteredRowAccessRule())
        assert not any("report_sizes" in f.message for f in findings)

    def test_charging_entry_passes(self):
        findings = findings_for("unmetered_bad.py",
                                UnmeteredRowAccessRule())
        assert not any(
            "count_rows_metered" in f.message for f in findings
        )

    def test_charging_through_a_price_function_passes(self):
        findings = findings_for("unmetered_bad.py",
                                UnmeteredRowAccessRule())
        assert not any(
            "count_rows_priced" in f.message for f in findings
        )

    def test_cross_module_aliased_path_is_caught(self):
        findings = findings_for(
            [os.path.join("xmod", p)
             for p in ("__init__.py", "storage.py", "facade.py")],
            UnmeteredRowAccessRule(),
        )
        assert len(findings) == 1
        assert "count_free" in findings[0].message
        assert findings[0].path.endswith("facade.py")


class TestMutationCompleteness:
    def test_sloppy_insert_draws_all_four_findings(self):
        findings = findings_for("mutation_bad.py",
                                MutationCompletenessRule())
        assert len(findings) == 4
        messages = " ".join(f.message for f in findings)
        assert "version counter" in messages
        assert "invalidates statistics" in messages
        assert "attached indexes" in messages
        assert "'index' maintenance cost" in messages
        bad_line = fixture_line("mutation_bad.py", "heap.insert(row)")
        assert all(f.line == bad_line for f in findings)

    def test_careful_insert_passes(self):
        findings = findings_for("mutation_bad.py",
                                MutationCompletenessRule())
        ok_line = fixture_line(
            "mutation_bad.py", "heap.insert_maintained(row)"
        )
        assert ok_line not in {f.line for f in findings}

    def test_pr8_regression_shape_always_fails(self):
        """INSERT that maintains indexes physically but charges no
        'index' cost — the shipped PR-8 bug — must keep failing."""
        findings = findings_for("mutation_pr8_regression.py",
                                MutationCompletenessRule())
        assert len(findings) == 1
        assert "PR-8" in findings[0].message
        assert "'index' maintenance cost" in findings[0].message
