"""Tests for the report envelope and the repro-run/1 kind."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ConfigurationError
from repro.obs import (
    RUN_SCHEMA,
    MetricsRegistry,
    build_run_report,
    deterministic_view,
    load_report,
    render_run_report,
    validate_report,
    write_events_jsonl,
    write_report,
)


def _sample_report():
    registry = MetricsRegistry()
    registry.inc("engine.processed_events", 1200)
    registry.inc("deploy_cache.hits", 3)
    registry.gauge("runner.cells_per_second", 8.5)
    registry.observe("engine.events_per_run", 1200, edges=(10.0, 1000.0))
    with registry.phase_timer("run_cells"):
        pass
    return build_run_report(
        [
            {
                "name": "fig7",
                "elapsed_seconds": 2.5,
                "cells": 3,
                "jobs": 2,
                "metrics": registry.snapshot(),
            }
        ],
        argv=["fig7", "--jobs", "2"],
    )


class TestBuildAndValidate:
    def test_schema_and_totals(self):
        report = _sample_report()
        assert report["schema"] == RUN_SCHEMA
        assert report["totals"]["experiments"] == 1
        assert report["totals"]["cells"] == 3
        totals = report["totals"]["metrics"]["counters"]
        assert totals["engine.processed_events"] == 1200
        validate_report(report)

    def test_wrong_schema_rejected_with_path(self):
        with pytest.raises(ConfigurationError, match="bogus.json"):
            validate_report({"schema": "nope"}, path="bogus.json")

    def test_non_string_schema_rejected_with_path(self):
        for schema in (["repro-run/1"], {"v": 1}, None):
            with pytest.raises(ConfigurationError, match="bogus.json"):
                validate_report({"schema": schema}, path="bogus.json")

    def test_malformed_experiment_entry_rejected(self):
        report = _sample_report()
        report["experiments"][0]["metrics"]["counters"]["bad"] = "NaN?"
        with pytest.raises(ConfigurationError, match="bad"):
            validate_report(report)

    def test_broken_histogram_rejected(self):
        report = _sample_report()
        histograms = report["experiments"][0]["metrics"]["histograms"]
        histograms["engine.events_per_run"]["counts"] = [1]
        with pytest.raises(ConfigurationError, match="histograms"):
            validate_report(report)


class TestLoadAndWrite:
    def test_roundtrip(self, tmp_path):
        report = _sample_report()
        path = str(tmp_path / "r.json")
        write_report(report, path)
        assert load_report(path) == json.loads(
            (tmp_path / "r.json").read_text()
        )

    def test_missing_file_names_path(self, tmp_path):
        path = str(tmp_path / "absent.json")
        with pytest.raises(ConfigurationError, match="absent.json"):
            load_report(path)

    def test_invalid_json_names_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="broken.json"):
            load_report(str(path))

    def test_write_validates_before_writing(self, tmp_path):
        report = _sample_report()
        report["totals"] = []
        path = tmp_path / "r.json"
        with pytest.raises(ConfigurationError, match="r.json"):
            write_report(report, str(path))
        assert not path.exists()

    def test_events_jsonl(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        write_events_jsonl(
            [{"event": "phase-start", "phase": "x", "at": 1.0}], path
        )
        lines = (tmp_path / "events.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["phase"] == "x"


class TestDeterministicView:
    def test_strips_volatile_and_wallclock(self):
        report = _sample_report()
        view = deterministic_view(report["experiments"][0]["metrics"])
        assert "engine.processed_events" in view["counters"]
        assert "deploy_cache.hits" not in view["counters"]
        assert "gauges" not in view
        assert "phases" not in view
        assert "engine.events_per_run" in view["histograms"]


class TestRender:
    def test_render_mentions_experiment_and_counters(self):
        text = render_run_report(_sample_report())
        assert "fig7" in text
        assert "engine" in text
        assert "processed_events=1200" in text
        assert "run_cells" in text


REPO_ROOT = Path(__file__).resolve().parents[2]


def _serve_report():
    from repro.serve import (
        BenchConfig,
        FleetConfig,
        ServiceConfig,
        build_serve_report,
    )

    return build_serve_report(
        BenchConfig(),
        FleetConfig(),
        ServiceConfig(),
        results=[],
        rejected=0,
        offered=0,
        snapshot=MetricsRegistry().snapshot(),
        construction_bytes=0,
        epochs_served=0,
        construction_wall=0.0,
        serve_wall=0.0,
    )


def _privacy_report():
    from repro.privacy import build_privacy_report, composite_privacy_score

    score = composite_privacy_score(
        disclosure_rate=0.002,
        leakage_fraction=0.01,
        breaking_cost=3.0,
        collusion_rate=0.05,
    )
    evaluation = {
        "config": {"label": "l2-th5", "slices": 2},
        "privacy": score.to_jsonable(),
        "disclosure": {"monte_carlo": 0.002},
    }
    return build_privacy_report(
        [evaluation], targets={"min_privacy": 0.5}, winner="l2-th5"
    )


def _bench_report():
    return json.loads((REPO_ROOT / "BENCH_baseline.json").read_text())


def _break_run(report):
    report["totals"] = []


def _break_serve(report):
    report["traffic"]["admitted"] = -1


def _break_privacy(report):
    report["evaluations"][0]["privacy"]["score"] += 0.01


def _break_bench(report):
    report["results"][0]["value"] = None


#: schema -> (valid document factory, payload breaker, rendered title).
KINDS = {
    "repro-run/1": (_sample_report, _break_run, "run report"),
    "repro-serve/1": (_serve_report, _break_serve, "Service bench"),
    "repro-privacy/1": (_privacy_report, _break_privacy, "autotuner"),
    "repro-bench/1": (_bench_report, _break_bench, "benchmarks"),
}


def _drop_phase_count(report):
    phases = report["experiments"][0]["metrics"]["phases"]
    del phases["run_cells"]["count"]


def _drop_mean_batch(report):
    del report["slo"]["mean_batch"]


def _drop_disclosure(report):
    del report["evaluations"][0]["disclosure"]


def _drop_component_raw(report):
    del report["evaluations"][0]["privacy"]["components"][0]["raw"]


def _scalar_environment(report):
    report["environment"] = "linux"


#: Payload fields a renderer reads; each must fail validation, not
#: crash the renderer.
RENDERED_FIELDS = [
    ("repro-run/1", _drop_phase_count),
    ("repro-serve/1", _drop_mean_batch),
    ("repro-privacy/1", _drop_disclosure),
    ("repro-privacy/1", _drop_component_raw),
    ("repro-bench/1", _scalar_environment),
]


class TestReportCommand:
    """``repro report`` reads every kind through one loader."""

    @pytest.mark.parametrize("schema", sorted(KINDS))
    def test_renders_each_kind(self, schema, tmp_path, capsys):
        build, _, title = KINDS[schema]
        path = tmp_path / "report.json"
        write_report(build(), str(path))
        assert main(["report", str(path)]) == 0
        assert title in capsys.readouterr().out
        assert load_report(str(path))["schema"] == schema

    def test_renders_committed_bench_baseline(self, capsys):
        path = REPO_ROOT / "BENCH_baseline.json"
        assert main(["report", str(path)]) == 0
        assert "engine-churn" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "case", ["missing", "invalid-json", "wrong-schema", "malformed"]
    )
    @pytest.mark.parametrize("schema", sorted(KINDS))
    def test_bad_file_exits_2_naming_path(
        self, schema, case, tmp_path, capsys
    ):
        build, breaker, _ = KINDS[schema]
        report = build()
        path = tmp_path / f"bad-{case}.json"
        if case == "invalid-json":
            path.write_text(json.dumps(report)[:-1])
        elif case == "wrong-schema":
            report["schema"] = schema.replace("/1", "/2")
            path.write_text(json.dumps(report))
        elif case == "malformed":
            breaker(report)
            path.write_text(json.dumps(report))
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "schema, breaker",
        RENDERED_FIELDS,
        ids=[breaker.__name__ for _, breaker in RENDERED_FIELDS],
    )
    def test_fields_the_renderer_reads_are_checked(
        self, schema, breaker, tmp_path, capsys
    ):
        report = KINDS[schema][0]()
        breaker(report)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(report))
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert str(path) in err
        assert "Traceback" not in err
