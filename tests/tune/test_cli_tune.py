"""End-to-end tests for the ``repro tune`` command."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import load_report


def _argv(tmp_path, *extra):
    return [
        "tune",
        "--quick",
        "--seed",
        "7",
        "--jobs",
        "1",
        "--cache-dir",
        str(tmp_path / "cache"),
        *extra,
    ]


class TestTuneCommand:
    def test_quick_run_emits_valid_report(self, tmp_path, capsys):
        out_path = tmp_path / "tune.json"
        argv = _argv(
            tmp_path,
            "--min-privacy",
            "0.5",
            "--output",
            str(out_path),
        )
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert "WINNER" in text
        assert "privacy autotuner" in text

        report = load_report(str(out_path))
        assert report["argv"] == argv
        assert report["kind"] == "tune"
        assert report["winner"] == "l2-th5-pairwise-fixed"
        assert report["dominating"] == ["l2-th5-pairwise-fixed"]
        assert report["cache"] == {"hits": 0, "misses": 4}
        assert report["metrics"]["counters"]["tune.configs"] == 4

        # Warm re-run over the same store: 100% hits, same decisions.
        assert main(argv) == 0
        capsys.readouterr()
        warm = load_report(str(out_path))
        assert warm["cache"] == {"hits": 4, "misses": 0}
        assert warm["winner"] == report["winner"]
        assert warm["evaluations"] == report["evaluations"]

        # The emitted artifact renders through `repro report`.
        assert main(["report", str(out_path)]) == 0
        assert "privacy autotuner" in capsys.readouterr().out

    def test_json_output_round_trips(self, tmp_path, capsys):
        argv = _argv(tmp_path, "--json")
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "repro-privacy/1"

    def test_infeasible_targets_exit_nonzero(self, tmp_path, capsys):
        argv = _argv(tmp_path, "--min-privacy", "0.999")
        assert main(argv) == 1
        assert "no configuration" in capsys.readouterr().err

    def test_tune_listed_as_tool_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "privacy-suite" in out
        assert "tune-eval" in out
