"""Observability end-to-end: jobs-invariance and CLI round trips.

The ISSUE-level guarantee: the deterministic part of a metrics
snapshot (simulation counters and fixed-bucket histograms) is
byte-identical for any ``--jobs`` value, and a ``--metrics-out`` file
round-trips through ``repro report``.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import (
    RUN_SCHEMA,
    MetricsRegistry,
    deterministic_view,
    using_registry,
)
from repro.runner import execute, get_spec

#: Smallest fig7 parameterisation (one size, one repetition).
TINY_KWARGS = {"sizes": (150,), "repetitions": 1}


def _snapshot_for(jobs: int):
    registry = MetricsRegistry()
    with using_registry(registry):
        table = execute(
            get_spec("fig7"), jobs=jobs, cache=False, **TINY_KWARGS
        )
    return registry.snapshot(), table


class TestJobsInvariance:
    def test_deterministic_view_matches_across_jobs(self):
        snap1, table1 = _snapshot_for(1)
        snap4, table4 = _snapshot_for(4)
        assert deterministic_view(snap1) == deterministic_view(snap4)
        # The tables themselves stay byte-identical too (the existing
        # determinism contract; metrics must not perturb it).
        assert table1.to_text() == table4.to_text()
        assert table1.to_csv() == table4.to_csv()

    def test_meta_metrics_match_registry(self):
        snap, table = _snapshot_for(1)
        meta_view = deterministic_view(table.meta["metrics"])
        assert meta_view == deterministic_view(snap)
        # Simulation counters actually flowed through.
        assert meta_view["counters"]["trace.frames_sent"] > 0
        assert meta_view["counters"]["engine.processed_events"] > 0

    def test_histogram_buckets_identical_across_jobs(self):
        snap1, _ = _snapshot_for(1)
        snap4, _ = _snapshot_for(4)
        h1 = snap1["histograms"]["engine.events_per_run"]
        h4 = snap4["histograms"]["engine.events_per_run"]
        assert h1["edges"] == h4["edges"]
        assert h1["counts"] == h4["counts"]


class TestMetricsOutRoundTrip:
    def test_metrics_out_roundtrips_through_report(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        args = [
            "table1", "--fast", "--repetitions", "1",
            "--metrics-out", str(out),
        ]
        assert main(args) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["schema"] == RUN_SCHEMA
        assert report["experiments"][0]["name"] == "table1"
        assert main(["report", str(out)]) == 0
        rendered = capsys.readouterr().out
        assert "table1" in rendered
        assert "run report" in rendered

    def test_run_report_argv_is_the_parsed_list(self, tmp_path, capsys):
        args = [
            "table1", "--fast", "--repetitions", "1",
            "--csv", str(tmp_path / "csv"),
            "--metrics-out", str(tmp_path / "run.json"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "run.json").read_text())
        assert report["argv"] == args

    def test_metrics_events_jsonl(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        args = [
            "table1", "--fast", "--repetitions", "1",
            "--metrics-events", str(events),
        ]
        assert main(args) == 0
        capsys.readouterr()
        lines = [
            json.loads(line)
            for line in events.read_text().splitlines()
        ]
        assert lines, "expected at least one phase event"
        assert all(line["experiment"] == "table1" for line in lines)
        assert {"phase-start", "phase-end"} <= {
            line["event"] for line in lines
        }

    def test_report_rejects_non_report_json(self, tmp_path, capsys):
        bogus = tmp_path / "not-a-report.json"
        bogus.write_text(json.dumps({"schema": "something-else"}))
        assert main(["report", str(bogus)]) == 2
        captured = capsys.readouterr()
        assert "not-a-report.json" in captured.err
        assert "Traceback" not in captured.err


class TestBenchEmbedsMetrics:
    def test_bench_report_carries_registry_snapshot(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        args = [
            "bench", "--quick", "--repeats", "1",
            "--only", "engine-churn", "--output", str(out),
        ]
        assert main(args) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert "metrics" in report
        phases = report["metrics"]["phases"]
        assert "bench.engine-churn" in phases
        assert phases["bench.engine-churn"]["count"] == 1
