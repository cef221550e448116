"""Tests for the bench regression gate (compare + CLI exit codes)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs import load_report
from repro.perf.compare import compare_reports, render_comparison
from repro.perf.harness import BENCH_SCHEMA


def report_with(values, **extra):
    """Build a minimal schema-valid report: name -> throughput."""
    return {
        "schema": BENCH_SCHEMA,
        "created_utc": "2026-08-05T00:00:00Z",
        "quick": True,
        "repeats": 1,
        "environment": {"git_sha": "test"},
        "results": [
            {
                "name": name,
                "kind": "micro",
                "metric": "ops_per_second",
                "value": value,
                "unit": "ops/s",
                "wall_seconds": 0.1,
                "iterations": 1,
                "detail": {},
            }
            for name, value in values.items()
        ],
        **extra,
    }


class TestCompareReports:
    def test_no_regression_when_identical(self):
        base = report_with({"a": 100.0, "b": 200.0})
        rows, unmatched, _ = compare_reports(base, base, fail_above=25.0)
        assert not unmatched
        assert all(not row.regressed for row in rows)

    def test_improvement_never_regresses(self):
        rows, _, _ = compare_reports(
            report_with({"a": 400.0}), report_with({"a": 100.0}), fail_above=25.0
        )
        assert rows[0].change_pct == pytest.approx(300.0)
        assert not rows[0].regressed

    def test_drop_beyond_threshold_regresses(self):
        rows, _, _ = compare_reports(
            report_with({"a": 70.0}), report_with({"a": 100.0}), fail_above=25.0
        )
        assert rows[0].regressed

    def test_drop_within_threshold_passes(self):
        rows, _, _ = compare_reports(
            report_with({"a": 80.0}), report_with({"a": 100.0}), fail_above=25.0
        )
        assert not rows[0].regressed

    def test_unmatched_names_reported_both_ways(self):
        rows, unmatched, _ = compare_reports(
            report_with({"a": 1.0, "only-current": 1.0}),
            report_with({"a": 1.0, "only-baseline": 1.0}),
            fail_above=25.0,
        )
        assert unmatched == ["only-baseline", "only-current"]
        assert len(rows) == 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigurationError):
            compare_reports(
                report_with({}), report_with({}), fail_above=-1.0
            )

    def test_render_mentions_verdict(self):
        rows, unmatched, _ = compare_reports(
            report_with({"a": 50.0}), report_with({"a": 100.0}), fail_above=25.0
        )
        text = render_comparison(rows, unmatched, fail_above=25.0)
        assert "REGRESSED" in text
        assert "FAIL" in text

    def test_same_mode_produces_no_warnings(self):
        base = report_with({"a": 100.0})
        _, _, warnings = compare_reports(base, base, fail_above=25.0)
        assert warnings == []

    def test_quick_vs_full_mode_mismatch_warns(self):
        current = report_with({"a": 100.0})  # quick=True
        baseline = report_with({"a": 100.0})
        baseline["quick"] = False
        rows, unmatched, warnings = compare_reports(
            current, baseline, fail_above=25.0
        )
        assert len(warnings) == 1
        assert "mode mismatch" in warnings[0]
        # Warnings are surfaced but never fail the gate by themselves.
        assert all(not row.regressed for row in rows)
        text = render_comparison(
            rows, unmatched, fail_above=25.0, warnings=warnings
        )
        assert "WARNING" in text
        assert "mode mismatch" in text
        assert "PASS" in text


class TestLoadReport:
    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_report(str(tmp_path / "nope.json"))

    def test_invalid_json_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError):
            load_report(str(bad))

    def test_wrong_schema_rejected(self, tmp_path):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"schema": "something-else/9"}))
        with pytest.raises(ConfigurationError):
            load_report(str(other))


class TestCliGate:
    """`repro bench --compare` is the CI gate; its exit code is the
    contract: 0 on pass, 1 on an injected slowdown."""

    def _write(self, path, values):
        path.write_text(json.dumps(report_with(values)))
        return str(path)

    def test_gate_passes_on_equal_reports(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json", {"a": 100.0})
        current = self._write(tmp_path / "cur.json", {"a": 100.0})
        code = main(
            ["bench", "--input", current, "--compare", baseline,
             "--fail-above", "25"]
        )
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_gate_fails_on_injected_slowdown(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json", {"a": 100.0})
        slowed = self._write(tmp_path / "cur.json", {"a": 60.0})
        code = main(
            ["bench", "--input", slowed, "--compare", baseline,
             "--fail-above", "25"]
        )
        assert code == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_gate_threshold_is_respected(self, tmp_path, capsys):
        baseline = self._write(tmp_path / "base.json", {"a": 100.0})
        slowed = self._write(tmp_path / "cur.json", {"a": 60.0})
        code = main(
            ["bench", "--input", slowed, "--compare", baseline,
             "--fail-above", "50"]
        )
        assert code == 0

    def test_bad_baseline_path_is_a_cli_error(self, tmp_path, capsys):
        current = self._write(tmp_path / "cur.json", {"a": 100.0})
        code = main(
            ["bench", "--input", current, "--compare",
             str(tmp_path / "missing.json")]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_list_benchmarks(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "engine-churn" in out
        assert "cipher-xor-slice" in out

    def test_quick_single_benchmark_end_to_end(self, tmp_path, capsys):
        out_path = tmp_path / "bench.json"
        code = main(
            ["bench", "--quick", "--only", "cipher-xor-slice",
             "--output", str(out_path)]
        )
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["schema"] == BENCH_SCHEMA
        assert report["results"][0]["name"] == "cipher-xor-slice"


class TestMalformedReportDiagnostics:
    """Missing, unreadable, or malformed BENCH_*.json files are a CLI
    configuration error: exit 2, path named on stderr, no traceback."""

    def _assert_cli_error(self, capsys, args, path):
        code = main(args)
        captured = capsys.readouterr()
        assert code == 2
        assert path in captured.err
        assert "Traceback" not in captured.err

    def test_missing_input_names_path(self, tmp_path, capsys):
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(report_with({"a": 1.0})))
        missing = str(tmp_path / "absent.json")
        self._assert_cli_error(
            capsys,
            ["bench", "--input", missing, "--compare", str(baseline)],
            "absent.json",
        )

    def test_unreadable_json_names_path(self, tmp_path, capsys):
        garbled = tmp_path / "garbled.json"
        garbled.write_text('{"schema": "repro-bench/1", "resul')
        self._assert_cli_error(
            capsys,
            ["bench", "--input", str(garbled), "--compare", str(garbled)],
            "garbled.json",
        )

    def test_schema_mismatch_names_path(self, tmp_path, capsys):
        other = tmp_path / "other.json"
        other.write_text(json.dumps({"schema": "repro-run/1"}))
        self._assert_cli_error(
            capsys,
            ["bench", "--input", str(other), "--compare", str(other)],
            "other.json",
        )

    def test_null_value_row_rejected(self, tmp_path):
        report = report_with({"a": 1.0})
        report["results"][0]["value"] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(report))
        with pytest.raises(ConfigurationError, match=r"results\[0\]"):
            load_report(str(bad))

    def test_missing_name_row_rejected(self, tmp_path):
        report = report_with({"a": 1.0})
        del report["results"][0]["name"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(report))
        with pytest.raises(ConfigurationError, match="bad.json"):
            load_report(str(bad))

    def test_non_list_results_rejected(self, tmp_path):
        report = report_with({"a": 1.0})
        report["results"] = {"oops": True}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(report))
        with pytest.raises(ConfigurationError, match="results"):
            load_report(str(bad))

    def test_malformed_row_via_cli_exits_2(self, tmp_path, capsys):
        report = report_with({"a": 1.0})
        report["results"][0]["wall_seconds"] = "fast"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(report))
        self._assert_cli_error(
            capsys,
            ["bench", "--input", str(bad), "--compare", str(bad)],
            "bad.json",
        )
