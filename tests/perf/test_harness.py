"""Tests for the benchmark harness: registry, reports, persistence."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import load_report
from repro.perf.harness import (
    BENCH_SCHEMA,
    BenchResult,
    available_benchmarks,
    benchmark_descriptions,
    build_report,
    collect_environment,
    default_report_name,
    register_benchmark,
    render_report_text,
    run_benchmarks,
    write_report,
)


class TestRegistry:
    def test_hot_path_benchmarks_registered(self):
        names = available_benchmarks()
        for expected in (
            "engine-churn",
            "radio-broadcast-clean",
            "radio-broadcast-contended",
            "cipher-xor-slice",
            "cipher-xor-bulk",
            "spec-fig7",
        ):
            assert expected in names

    def test_descriptions_cover_all_benchmarks(self):
        descriptions = benchmark_descriptions()
        assert set(descriptions) == set(available_benchmarks())
        assert all(
            text.startswith(("[micro]", "[macro]"))
            for text in descriptions.values()
        )

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_benchmark("engine-churn", "micro", "dup")(lambda q: None)

    def test_bad_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            register_benchmark("x", "mega", "bad kind")

    def test_unknown_selection_rejected(self):
        with pytest.raises(ConfigurationError):
            run_benchmarks(["no-such-benchmark"], repeats=1)

    def test_bad_repeats_rejected(self):
        with pytest.raises(ConfigurationError):
            run_benchmarks(["engine-churn"], repeats=0)


class TestRunAndReport:
    def test_quick_micro_run_produces_schema_report(self, tmp_path):
        results = run_benchmarks(["cipher-xor-slice"], quick=True, repeats=1)
        assert len(results) == 1
        result = results[0]
        assert result.name == "cipher-xor-slice"
        assert result.kind == "micro"
        assert result.value > 0
        assert result.wall_seconds > 0
        assert result.iterations > 0

        report = build_report(results, quick=True, repeats=1)
        assert report["schema"] == BENCH_SCHEMA
        assert report["quick"] is True
        assert report["environment"]["python"]
        assert report["results"][0]["metric"] == "operations_per_second"

        path = write_report(report, str(tmp_path / "out.json"))
        loaded = load_report(path)
        assert loaded == json.loads(json.dumps(report))

    def test_best_of_repeats_keeps_max(self, monkeypatch):
        values = iter([100.0, 300.0, 200.0])

        def fake(quick):
            return BenchResult(
                name="fake",
                kind="micro",
                metric="m",
                value=next(values),
                unit="u",
                wall_seconds=0.1,
                iterations=1,
            )

        from repro.perf import harness

        monkeypatch.setitem(
            harness._REGISTRY,
            "fake",
            harness._Benchmark("fake", "micro", "fake", fake),
        )
        best = run_benchmarks(["fake"], repeats=3)[0]
        assert best.value == 300.0

    def test_write_report_into_directory(self, tmp_path):
        report = build_report([], quick=True, repeats=1)
        path = write_report(report, str(tmp_path))
        assert path.startswith(str(tmp_path))
        assert path.endswith(".json")

    def test_default_report_name_shape(self):
        name = default_report_name("2026-08-05T12:00:00Z")
        assert name == "BENCH_20260805T120000Z.json"

    def test_baseline_reference_block_embedded(self):
        report = build_report(
            [], quick=False, repeats=3, baseline_reference={"note": "pre-PR"}
        )
        assert report["baseline_reference"] == {"note": "pre-PR"}

    def test_render_report_text_smoke(self):
        results = [
            BenchResult(
                name="fake",
                kind="micro",
                metric="m",
                value=123456.0,
                unit="ops/s",
                wall_seconds=0.5,
                iterations=10,
            )
        ]
        text = render_report_text(build_report(results, quick=False, repeats=3))
        assert "fake" in text
        assert "123,456" in text

    def test_environment_has_provenance_keys(self):
        env = collect_environment()
        assert {"git_sha", "python", "implementation", "platform"} <= set(env)


class TestPeakRss:
    def _fake_row(self, monkeypatch):
        from repro.perf import harness

        def fake(quick):
            return BenchResult(
                name="fake-rss",
                kind="micro",
                metric="m",
                value=1.0,
                unit="u",
                wall_seconds=0.1,
                iterations=1,
            )

        monkeypatch.setitem(
            harness._REGISTRY,
            "fake-rss",
            harness._Benchmark("fake-rss", "micro", "fake", fake),
        )
        return run_benchmarks(["fake-rss"], repeats=1)[0]

    def test_row_after_large_allocation_reports_its_own_peak(
        self, monkeypatch
    ):
        from repro.perf import harness

        blob = b"x" * (200 * 1024 * 1024)  # written, so resident
        del blob
        # The high-water mark holds the 200 MB (the old per-row reading)
        process_peak, _ = harness._peak_rss_mb(False)
        if not harness._reset_peak_rss():
            pytest.skip("no /proc/self/clear_refs on this platform")
        settled, _ = harness._peak_rss_mb(True)
        assert process_peak > settled + 150
        # ... but a row run afterwards reports only its own peak.
        row = self._fake_row(monkeypatch)
        assert row.detail["peak_rss_source"] == "vmhwm"
        assert row.detail["peak_rss_mb"] < settled + 50

    def test_falls_back_to_getrusage_without_proc(self, monkeypatch):
        from repro.perf import harness

        monkeypatch.setattr(harness, "_reset_peak_rss", lambda: False)
        row = self._fake_row(monkeypatch)
        assert row.detail["peak_rss_source"] == "getrusage"
        assert row.detail["peak_rss_mb"] > 0
