"""Unit tests for the finding registry and verification reports."""

import json

import pytest

from repro.analysis import FINDING_CODES, Finding, Severity, VerificationReport, finding


class TestRegistry:
    def test_every_code_is_stable_and_described(self):
        assert len(FINDING_CODES) == 42
        for code, (severity, description) in FINDING_CODES.items():
            assert code.startswith("RP") and len(code) == 5
            assert isinstance(severity, Severity)
            assert description

    def test_code_ranges_map_to_passes(self):
        prefixes = {code[:3] for code in FINDING_CODES}
        assert prefixes == {"RP1", "RP2", "RP4", "RP5", "RP6", "RP7"}

    def test_retired_codes_stay_retired(self):
        """The audit of generated segment source is gone with the segments,
        the pickle and retry-policy checks with the worker pool."""
        retired = {"RP204", "RP205", "RP301", "RP302", "RP303", "RP304", "RP305", "RP703"}
        assert not retired & set(FINDING_CODES)

    def test_sampled_warnings_stay_warnings(self):
        """RP112 (data-sampled types) must not gate CI; everything else is
        an error."""
        warnings = {code for code, (sev, _) in FINDING_CODES.items() if sev is Severity.WARNING}
        assert warnings == {"RP112"}

    def test_factory_applies_registry_severity(self):
        f = finding("RP101", "boom", "node")
        assert f.severity is Severity.ERROR
        assert finding("RP112", "types", "op").severity is Severity.WARNING

    def test_factory_rejects_unknown_codes(self):
        with pytest.raises(ValueError, match="RP999"):
            finding("RP999", "nope", "nowhere")


class TestFinding:
    def test_render_carries_code_severity_and_location(self):
        f = finding("RP103", "quotient is wrong", "divide#0001", "physical")
        line = f.render()
        assert "RP103" in line and "error" in line and "[divide#0001]" in line

    def test_to_dict_is_json_ready(self):
        f = finding("RP112", "int vs str keys", "join#0002", "physical")
        payload = json.loads(json.dumps(f.to_dict()))
        assert payload["severity"] == "warning"
        assert payload["origin"] == "physical"


class TestVerificationReport:
    def test_clean_report(self):
        report = VerificationReport(passes=("logical",), checked=5)
        assert report.ok
        assert report.errors() == () and report.warnings() == ()
        assert "clean" in report.summary() and "5 node(s)" in report.summary()

    def test_warnings_do_not_fail_the_report(self):
        report = VerificationReport(
            findings=(finding("RP112", "types differ", "join#0001"),),
            passes=("physical",),
            checked=3,
        )
        assert report.ok
        assert len(report.warnings()) == 1
        assert "1 warning(s)" in report.summary()

    def test_errors_fail_the_report(self):
        report = VerificationReport(
            findings=(finding("RP101", "missing attr", "proj#0001"),),
            passes=("logical",),
            checked=2,
        )
        assert not report.ok
        assert "1 error(s)" in report.summary()

    def test_merged_concatenates_and_dedupes_passes(self):
        left = VerificationReport(
            findings=(finding("RP101", "a", "x"),), passes=("logical",), checked=2
        )
        right = VerificationReport(
            findings=(finding("RP111", "b", "y"),), passes=("logical", "physical"), checked=3
        )
        merged = left.merged(right)
        assert [f.code for f in merged.findings] == ["RP101", "RP111"]
        assert merged.passes == ("logical", "physical")
        assert merged.checked == 5

    def test_to_json_round_trips(self):
        report = VerificationReport(
            findings=(finding("RP106", "stale schema", "02:Project"),),
            passes=("logical",),
            checked=4,
        )
        payload = json.loads(report.to_json())
        assert payload["ok"] is False
        assert payload["findings"][0]["code"] == "RP106"

    def test_render_lists_every_finding(self):
        report = VerificationReport(
            findings=(finding("RP101", "a", "x"), finding("RP112", "b", "y")),
            passes=("physical",),
            checked=1,
        )
        text = report.render()
        assert "RP101" in text and "RP112" in text
