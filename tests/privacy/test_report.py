"""Tests for the repro-privacy/1 report document."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs import load_report, validate_report, write_report
from repro.privacy.report import (
    PRIVACY_SCHEMA,
    build_privacy_report,
    render_privacy_report,
)
from repro.privacy.score import composite_privacy_score


def _evaluation(label="l2-th5-eg-1000/50-fixed"):
    score = composite_privacy_score(
        disclosure_rate=0.002,
        leakage_fraction=0.01,
        breaking_cost=3.0,
        collusion_rate=0.05,
    )
    return {
        "config": {"label": label, "slices": 2},
        "privacy": score.to_jsonable(),
        "disclosure": {"monte_carlo": 0.002},
        "overhead": {"ratio": 2.5},
        "accuracy": {"mean": 0.4},
    }


TARGETS = {"min_privacy": 0.5}


class TestBuildAndValidate:
    def test_tune_report_validates(self):
        report = build_privacy_report([_evaluation()], targets=TARGETS)
        assert report["schema"] == PRIVACY_SCHEMA
        assert report["kind"] == "tune"
        assert validate_report(report) is report

    def test_unknown_kind_rejected(self):
        for kind in ("audit", "suite"):
            report = build_privacy_report([_evaluation()], targets=TARGETS)
            report["kind"] = kind
            with pytest.raises(ConfigurationError):
                validate_report(report)

    def test_empty_evaluations_rejected(self):
        with pytest.raises(ConfigurationError):
            build_privacy_report([], targets=TARGETS)

    def test_tune_report_requires_targets(self):
        report = build_privacy_report([_evaluation()], targets=TARGETS)
        del report["targets"]
        with pytest.raises(ConfigurationError):
            validate_report(report)

    def test_winner_must_name_an_evaluation(self):
        with pytest.raises(ConfigurationError):
            build_privacy_report(
                [_evaluation()],
                targets=TARGETS,
                winner="l9-th9-ghost-fixed",
            )

    def test_frontier_entries_must_name_evaluations(self):
        with pytest.raises(ConfigurationError):
            build_privacy_report(
                [_evaluation()],
                targets=TARGETS,
                frontier=["l9-th9-ghost-fixed"],
            )

    def test_tampered_score_breaks_auditability(self):
        report = build_privacy_report([_evaluation()], targets=TARGETS)
        report["evaluations"][0]["privacy"]["score"] += 0.01
        with pytest.raises(ConfigurationError, match="auditable"):
            validate_report(report)

    def test_score_outside_unit_interval_rejected(self):
        entry = _evaluation()
        entry["privacy"]["score"] = 1.5
        with pytest.raises(ConfigurationError):
            build_privacy_report([entry], targets=TARGETS)


class TestPersistence:
    def test_write_load_round_trip(self, tmp_path):
        report = build_privacy_report(
            [_evaluation()],
            targets=TARGETS,
            winner="l2-th5-eg-1000/50-fixed",
            baseline="l2-th5-eg-1000/50-fixed",
        )
        path = tmp_path / "deep" / "tune.json"
        write_report(report, str(path))
        assert load_report(str(path)) == report

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_report(str(tmp_path / "absent.json"))

    def test_load_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_report(str(path))

    def test_load_validates_document(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text(json.dumps({"schema": "other/1"}))
        with pytest.raises(ConfigurationError):
            load_report(str(path))


class TestRendering:
    def test_render_flags_winner_and_baseline(self):
        label = "l2-th5-eg-1000/50-fixed"
        report = build_privacy_report(
            [_evaluation()],
            targets={"min_privacy": 0.5, "max_overhead": 3.0},
            winner=label,
            baseline=label,
            frontier=[label],
            cache={"hits": 4, "misses": 0},
        )
        text = render_privacy_report(report)
        assert "privacy autotuner" in text
        assert label in text
        assert "WINNER" in text
        assert "baseline" in text
        assert "score decomposition" in text
        assert "store 4/0 hit/miss" in text
        assert "privacy >= 0.5" in text

    def test_render_reports_infeasibility(self):
        report = build_privacy_report(
            [_evaluation()],
            targets={"min_privacy": 0.99},
        )
        assert "no configuration meets the target envelope" in (
            render_privacy_report(report)
        )
