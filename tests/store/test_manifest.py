"""Tests for provenance manifests and `repro store verify`."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentTable
from repro.runner import execute, register_spec
from repro.store import (
    DIGEST_VERSION,
    clear_fingerprint_caches,
    manifest_path,
    read_manifest,
    refuse_clobber,
    verify_artifact,
    write_manifest,
)


def _fresh_table(tmp_path, name="fig7", **kwargs):
    kwargs.setdefault("sizes", (150,))
    kwargs.setdefault("repetitions", 1)
    table = execute(name, jobs=1, **kwargs)
    artifact = str(tmp_path / f"{name}.csv")
    table.write_csv(artifact)
    return artifact, table


def age_manifest(artifact):
    """Rewrite the sidecar as the previous digest scheme wrote it.

    Before the closure walk stopped at the runner, every closure also
    held ``repro.runner`` and what it imports, so the recorded modules
    and fingerprint differ from what the current tree derives.
    """
    path = manifest_path(artifact)
    with open(path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    manifest["digest_version"] = DIGEST_VERSION - 1
    manifest["fingerprint"] = "0" * 40
    for module in ("repro.runner", "repro.fleet", "repro.store.digest"):
        manifest["modules"][module] = "0" * 40
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)


#: what ``verify_artifact`` says about a sidecar of the previous scheme
SCHEME_CHANGED = (
    f"digest scheme changed (manifest v{DIGEST_VERSION - 1}, "
    f"current v{DIGEST_VERSION}); regenerate the artifact"
)


class TestWriteManifest:
    def test_sidecar_written_and_loadable(self, tmp_path):
        artifact, table = _fresh_table(tmp_path)
        path = write_manifest(artifact, table)
        assert path == manifest_path(artifact)
        manifest = read_manifest(artifact)
        assert manifest["experiment"] == "fig7"
        assert manifest["cells"] == table.meta["cells"]
        assert manifest["fingerprint"] == table.meta["fingerprint"]
        assert manifest["modules"]

    def test_requires_provenance_meta(self, tmp_path):
        bare = ExperimentTable(name="bare", columns=["a"])
        bare.add_row(1)
        artifact = str(tmp_path / "bare.csv")
        bare.write_csv(artifact)
        with pytest.raises(ConfigurationError, match="provenance"):
            write_manifest(artifact, bare)

    def test_never_clobbers_an_unrelated_file(self, tmp_path):
        artifact, table = _fresh_table(tmp_path)
        sidecar = manifest_path(artifact)
        with open(sidecar, "w") as handle:
            handle.write("precious user notes, not a manifest")
        with pytest.raises(ConfigurationError, match="refusing"):
            write_manifest(artifact, table)
        # The unrelated file is untouched.
        assert "precious" in open(sidecar).read()

    def test_overwrites_its_own_previous_manifest(self, tmp_path):
        artifact, table = _fresh_table(tmp_path)
        write_manifest(artifact, table)
        write_manifest(artifact, table)  # no error
        assert read_manifest(artifact)["experiment"] == "fig7"

    def test_refuse_clobber_accepts_free_slot(self, tmp_path):
        refuse_clobber(str(tmp_path / "new.csv"))  # no error


class TestVerify:
    def test_fresh_artifact_verifies(self, tmp_path):
        artifact, table = _fresh_table(tmp_path)
        write_manifest(artifact, table)
        assert verify_artifact(artifact) == []

    def test_artifact_edit_detected(self, tmp_path):
        artifact, table = _fresh_table(tmp_path)
        write_manifest(artifact, table)
        with open(artifact, "a") as handle:
            handle.write("tampered\n")
        problems = verify_artifact(artifact)
        assert any("artifact bytes changed" in p for p in problems)

    def test_older_digest_scheme_asks_for_regeneration(self, tmp_path):
        # The scheme changed, so module drift would only mislead
        # ("no longer imported: repro.runner, ...").
        artifact, table = _fresh_table(tmp_path)
        write_manifest(artifact, table)
        age_manifest(artifact)
        assert verify_artifact(artifact) == [SCHEME_CHANGED]

    def test_missing_manifest_is_configuration_error(self, tmp_path):
        artifact, _table = _fresh_table(tmp_path)
        with pytest.raises(ConfigurationError, match="manifest"):
            verify_artifact(artifact)

    def test_missing_artifact_is_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            verify_artifact(str(tmp_path / "ghost.csv"))

    def test_kwargs_survive_json_round_trip(self, tmp_path):
        # Tuples in cell_kwargs become JSON lists; digests must not care.
        artifact, table = _fresh_table(
            tmp_path, sizes=(150, 200), repetitions=2
        )
        write_manifest(artifact, table)
        manifest = read_manifest(artifact)
        assert manifest["cell_kwargs"]["sizes"] == [150, 200]
        assert verify_artifact(artifact) == []

    def test_source_edit_fails_verification_with_diagnostic(
        self, tmp_path, monkeypatch
    ):
        # A throwaway spec whose module lives in tmp_path, so we can
        # edit "the current tree" without touching the repo.
        pkg = tmp_path / "vdemo"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("")
        module = pkg / "spec.py"
        module.write_text(textwrap.dedent(
            """
            from repro.experiments.common import (
                CellExperiment, ExperimentTable, make_cell,
            )

            OFFSET = 1

            def cells(count=3, seed=0):
                return [make_cell("vdemo", (i,), 0, seed=seed)
                        for i in range(count)]

            def run_cell(cell):
                return cell.key[0] + OFFSET

            def reduce(cells, results):
                table = ExperimentTable(name="vdemo", columns=["k", "v"])
                for cell, result in zip(cells, results):
                    table.add_row(cell.key[0], result)
                return table

            SPEC = CellExperiment("vdemo", cells, run_cell, reduce)
            """
        ))
        monkeypatch.syspath_prepend(str(tmp_path))
        clear_fingerprint_caches()
        import importlib

        spec_module = importlib.import_module("vdemo.spec")
        try:
            register_spec(spec_module.SPEC)
            table = execute("vdemo", jobs=1, count=3)
            artifact = str(tmp_path / "vdemo.csv")
            table.write_csv(artifact)
            write_manifest(artifact, table)
            assert verify_artifact(artifact) == []

            # The deliberate one-byte source edit: OFFSET 1 -> 2.
            module.write_text(module.read_text().replace(
                "OFFSET = 1", "OFFSET = 2"
            ))
            clear_fingerprint_caches()
            problems = verify_artifact(artifact)
            assert any("fingerprint changed" in p for p in problems)
            assert any("vdemo.spec" in p for p in problems)
        finally:
            import repro.runner as runner_module

            runner_module._EXTRA_SPECS.pop("vdemo", None)
            import sys

            sys.modules.pop("vdemo.spec", None)
            sys.modules.pop("vdemo", None)
            clear_fingerprint_caches()

    def test_manifest_magic_key_is_required(self, tmp_path):
        artifact, _table = _fresh_table(tmp_path)
        with open(manifest_path(artifact), "w") as handle:
            json.dump({"something": "else"}, handle)
        with pytest.raises(ConfigurationError, match="not a repro"):
            read_manifest(artifact)
