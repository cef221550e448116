"""CLI tests for the experiment-store surface.

Covers the management commands (``list``, ``cache stats|gc|clear``,
``store verify``), the ``--cache``/``--no-cache``/``--cache-dir``
flags, the provenance sidecars written next to ``--csv``/``--svg``
artifacts, and the clobber protection around them.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.experiments import SPECS
from repro.runner import available_experiments
from repro.store import CellStore, manifest_path

from .test_manifest import SCHEME_CHANGED, age_manifest


def _run_fig7(tmp_path, *extra):
    args = ["fig7", "--fast", "--repetitions", "1"] + list(extra)
    return main(args)


class TestCacheFlags:
    def test_cache_dir_cold_then_warm(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert _run_fig7(tmp_path, "--cache-dir", cache) == 0
        cold = capsys.readouterr().out
        assert "store 0/3 hit/miss" in cold
        assert _run_fig7(tmp_path, "--cache-dir", cache) == 0
        warm = capsys.readouterr().out
        assert "store 3/0 hit/miss" in warm

        def table_lines(text):
            return [l for l in text.splitlines() if not l.startswith("(")]

        assert table_lines(warm) == table_lines(cold)

    def test_no_cache_overrides_cache_dir(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert _run_fig7(tmp_path, "--cache-dir", cache, "--no-cache") == 0
        out = capsys.readouterr().out
        assert "store" not in out
        assert not os.path.exists(cache)

    def test_throughput_line_reports_deploy_cache(self, capsys):
        assert _run_fig7(None) == 0
        assert "deploy-cache" in capsys.readouterr().out

    def test_default_cache_restored_after_run(self, tmp_path, capsys):
        import repro.runner as runner_module

        cache = str(tmp_path / "cache")
        assert _run_fig7(tmp_path, "--cache-dir", cache) == 0
        capsys.readouterr()
        assert runner_module._DEFAULT_CACHE is None


class TestSidecars:
    def test_csv_gets_manifest_sidecar(self, tmp_path, capsys):
        csv_dir = tmp_path / "out"
        assert _run_fig7(tmp_path, "--csv", str(csv_dir)) == 0
        capsys.readouterr()
        sidecar = manifest_path(str(csv_dir / "fig7.csv"))
        assert os.path.exists(sidecar)
        manifest = json.load(open(sidecar))
        assert manifest["experiment"] == "fig7"

    def test_svg_gets_manifest_sidecar(self, tmp_path, capsys):
        svg_dir = tmp_path / "figs"
        assert _run_fig7(tmp_path, "--svg", str(svg_dir)) == 0
        capsys.readouterr()
        assert os.path.exists(manifest_path(str(svg_dir / "fig7.svg")))

    def test_unrelated_sidecar_file_fails_before_running(
        self, tmp_path, capsys
    ):
        csv_dir = tmp_path / "out"
        csv_dir.mkdir()
        collision = manifest_path(str(csv_dir / "fig7.csv"))
        with open(collision, "w") as handle:
            handle.write("user data, not a manifest")
        assert _run_fig7(tmp_path, "--csv", str(csv_dir)) == 2
        captured = capsys.readouterr()
        assert "refusing to overwrite" in captured.err
        assert "Traceback" not in captured.err
        # Fails before any experiment ran: no table printed, no CSV.
        assert "Figure 7" not in captured.out
        assert not os.path.exists(csv_dir / "fig7.csv")
        assert "user data" in open(collision).read()

    def test_existing_manifest_is_overwritten(self, tmp_path, capsys):
        csv_dir = tmp_path / "out"
        assert _run_fig7(tmp_path, "--csv", str(csv_dir)) == 0
        assert _run_fig7(tmp_path, "--csv", str(csv_dir)) == 0
        capsys.readouterr()


class TestManagementCommands:
    def test_list_prints_every_spec_in_stable_order(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        names = [line.split()[0] for line in lines]
        # ``list`` covers the eager registry plus the lazily imported
        # subsystem specs (privacy-suite, tune-eval).
        assert names == available_experiments()
        assert set(SPECS) <= set(names)
        assert all("cells" in line for line in lines)

    def test_list_is_repeatable(self, capsys):
        assert main(["list"]) == 0
        first = capsys.readouterr().out
        assert main(["list"]) == 0
        assert capsys.readouterr().out == first

    def test_cache_stats_on_populated_store(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert _run_fig7(tmp_path, "--cache-dir", cache) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache]) == 0
        out = capsys.readouterr().out
        assert "objects: 3" in out
        assert "fig7" in out

    def test_cache_gc_trims_to_cap(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert _run_fig7(tmp_path, "--cache-dir", cache) == 0
        capsys.readouterr()
        code = main(
            ["cache", "gc", "--cache-dir", cache, "--max-bytes", "1"]
        )
        assert code == 0
        assert "evicted" in capsys.readouterr().out
        assert CellStore(cache).stats().objects == 0

    def test_cache_clear_empties_store(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert _run_fig7(tmp_path, "--cache-dir", cache) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache]) == 0
        capsys.readouterr()
        assert CellStore(cache).stats().objects == 0

    def test_store_verify_fresh_artifact(self, tmp_path, capsys):
        csv_dir = tmp_path / "out"
        assert _run_fig7(tmp_path, "--csv", str(csv_dir)) == 0
        capsys.readouterr()
        assert main(["store", "verify", str(csv_dir / "fig7.csv")]) == 0
        assert "verified" in capsys.readouterr().out

    def test_store_verify_tampered_artifact_exits_1(self, tmp_path, capsys):
        csv_dir = tmp_path / "out"
        assert _run_fig7(tmp_path, "--csv", str(csv_dir)) == 0
        capsys.readouterr()
        with open(csv_dir / "fig7.csv", "a") as handle:
            handle.write("tampered\n")
        assert main(["store", "verify", str(csv_dir / "fig7.csv")]) == 1
        out = capsys.readouterr().out
        assert "NOT reproducible" in out

    def test_store_verify_older_digest_scheme_exits_1(
        self, tmp_path, capsys
    ):
        csv_dir = tmp_path / "out"
        assert _run_fig7(tmp_path, "--csv", str(csv_dir)) == 0
        age_manifest(str(csv_dir / "fig7.csv"))
        capsys.readouterr()
        assert main(["store", "verify", str(csv_dir / "fig7.csv")]) == 1
        out = capsys.readouterr().out
        assert "NOT reproducible" in out
        assert f"  - {SCHEME_CHANGED}\n" in out
        assert "no longer imported" not in out

    def test_store_verify_missing_manifest_exits_2(self, tmp_path, capsys):
        artifact = tmp_path / "orphan.csv"
        artifact.write_text("a,b\n1,2\n")
        assert main(["store", "verify", str(artifact)]) == 2
        assert "manifest" in capsys.readouterr().err

    def test_experiment_names_still_route_to_the_runner(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])


class TestTruncatedManifest:
    """A manifest cut off mid-write (disk full, interrupted run) is a
    configuration error naming the path — never a JSON traceback."""

    def test_store_verify_truncated_manifest_exits_2(
        self, tmp_path, capsys
    ):
        csv_dir = tmp_path / "csv"
        assert _run_fig7(tmp_path, "--csv", str(csv_dir)) == 0
        sidecar = manifest_path(str(csv_dir / "fig7.csv"))
        whole = open(sidecar, "r", encoding="utf-8").read()
        with open(sidecar, "w", encoding="utf-8") as handle:
            handle.write(whole[: len(whole) // 2])
        capsys.readouterr()
        assert main(["store", "verify", str(csv_dir / "fig7.csv")]) == 2
        captured = capsys.readouterr()
        assert "manifest" in captured.err
        assert sidecar in captured.err
        assert "Traceback" not in captured.err

    def test_store_verify_empty_manifest_exits_2(self, tmp_path, capsys):
        csv_dir = tmp_path / "csv"
        assert _run_fig7(tmp_path, "--csv", str(csv_dir)) == 0
        sidecar = manifest_path(str(csv_dir / "fig7.csv"))
        open(sidecar, "w").close()
        capsys.readouterr()
        assert main(["store", "verify", str(csv_dir / "fig7.csv")]) == 2
        captured = capsys.readouterr()
        assert sidecar in captured.err
        assert "Traceback" not in captured.err


class TestStoreVerifyIndexRepair:
    """``repro store verify <store-root>`` repairs a torn index."""

    def _store_with_torn_index(self, tmp_path):
        root = tmp_path / "cache"
        store = CellStore(root)
        store.put("ab" + "0" * 38, {"v": 1}, experiment="fig7")
        with open(store._index_path, "a", encoding="utf-8") as handle:
            handle.write('{"digest": "torn')
        return root

    def test_repairs_torn_index(self, tmp_path, capsys):
        root = self._store_with_torn_index(tmp_path)
        assert main(["store", "verify", str(root)]) == 0
        out = capsys.readouterr().out
        assert "index repaired" in out
        assert "kept 1 record(s)" in out
        assert "dropped 1 torn line(s)" in out
        # second verify finds a clean index
        assert main(["store", "verify", str(root)]) == 0
        assert "index ok (1 record(s))" in capsys.readouterr().out

    def test_healthy_store_root_reports_ok(self, tmp_path, capsys):
        root = tmp_path / "cache"
        CellStore(root).put("cd" + "0" * 38, {"v": 2}, experiment="fig7")
        assert main(["store", "verify", str(root)]) == 0
        assert "index ok" in capsys.readouterr().out
