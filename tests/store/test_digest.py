"""Tests for cell digests and code fingerprints (repro.store.digest).

The contract: a digest depends only on the cell's semantic content and
the spec's transitive source closure — not on parameter insertion
order, container flavour (tuple vs list), worker count, or which
process computed it.  Any single-byte edit to a module in the closure
flips the fingerprint.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import Cell, make_cell
from repro.runner import execute, get_spec
from repro.store import (
    canonical_json,
    cell_digest,
    clear_fingerprint_caches,
    code_fingerprint,
    digest_root,
    fingerprint_modules,
    spec_fingerprint,
)


class TestCanonicalJson:
    def test_tuple_and_list_serialize_identically(self):
        assert canonical_json((1, 2, (3, "a"))) == canonical_json(
            [1, 2, [3, "a"]]
        )

    def test_dict_key_order_is_irrelevant(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json(
            {"a": 2, "b": 1}
        )

    def test_arbitrary_objects_fall_back_to_repr(self):
        class Weird:
            def __repr__(self):
                return "Weird()"

        assert "Weird()" in canonical_json(Weird())

    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(2**63), max_value=2**63),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=20),
    )

    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=10), scalars, max_size=6
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_shuffled_mappings_digest_identically(self, mapping):
        items = list(mapping.items())
        forward = dict(items)
        backward = dict(reversed(items))
        assert canonical_json(forward) == canonical_json(backward)


class TestCellDigest:
    FINGERPRINT = "f" * 40

    def test_param_insertion_order_is_irrelevant(self):
        a = Cell("x", (1,), 0, params=(("alpha", 1), ("beta", 2)))
        b = Cell("x", (1,), 0, params=(("beta", 2), ("alpha", 1)))
        assert cell_digest(a, self.FINGERPRINT) == cell_digest(
            b, self.FINGERPRINT
        )

    def test_tuple_vs_list_param_is_irrelevant(self):
        a = make_cell("x", (1,), 0, sweep=(1, 2, 3))
        b = Cell("x", (1,), 0, params=(("sweep", [1, 2, 3]),))
        assert cell_digest(a, self.FINGERPRINT) == cell_digest(
            b, self.FINGERPRINT
        )

    @pytest.mark.parametrize(
        "other",
        [
            make_cell("x", (2,), 0, seed=0),   # different key
            make_cell("x", (1,), 1, seed=0),   # different rep
            make_cell("x", (1,), 0, seed=1),   # different seed
            make_cell("y", (1,), 0, seed=0),   # different experiment
        ],
    )
    def test_semantic_changes_change_the_digest(self, other):
        base = make_cell("x", (1,), 0, seed=0)
        assert cell_digest(base, self.FINGERPRINT) != cell_digest(
            other, self.FINGERPRINT
        )

    def test_fingerprint_is_folded_in(self):
        cell = make_cell("x", (1,), 0, seed=0)
        assert cell_digest(cell, "a" * 40) != cell_digest(cell, "b" * 40)

    def test_digest_root_is_order_sensitive(self):
        assert digest_root(["a", "b"]) != digest_root(["b", "a"])

    def test_stable_across_process_boundaries(self):
        code = textwrap.dedent(
            """
            from repro.runner import get_spec
            from repro.store import cell_digest, spec_fingerprint
            spec = get_spec("fig7")
            fp = spec_fingerprint(spec)
            cells = spec.cells(sizes=(150, 200), repetitions=2)
            print(fp)
            for cell in cells:
                print(cell_digest(cell, fp))
            """
        )
        runs = [
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        spec = get_spec("fig7")
        fp = spec_fingerprint(spec)
        local = [fp] + [
            cell_digest(cell, fp)
            for cell in spec.cells(sizes=(150, 200), repetitions=2)
        ]
        assert runs[0].split() == local

    def test_stable_across_jobs_values(self):
        kwargs = {"sizes": (150,), "repetitions": 2}
        one = execute("fig7", jobs=1, **kwargs)
        two = execute("fig7", jobs=2, **kwargs)
        assert one.meta["cell_digest_root"] == two.meta["cell_digest_root"]
        assert one.meta["fingerprint"] == two.meta["fingerprint"]


def _write_package(root, leaf_body="VALUE = 1\n"):
    pkg = root / "fpdemo"
    pkg.mkdir(exist_ok=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "leaf.py").write_text(leaf_body)
    (pkg / "spec.py").write_text(
        "from . import leaf\n"
        "import repro.rng\n"
        "def run_cell(cell):\n"
        "    return leaf.VALUE\n"
    )


class TestCodeFingerprint:
    def test_spec_modules_cover_transitive_repro_imports(self):
        spec = get_spec("fig7")
        modules = fingerprint_modules(spec.run_cell.__module__)
        # Direct import of the spec module...
        assert "repro.experiments.fig7_overhead" in modules
        # ...its helpers...
        assert "repro.experiments.common" in modules
        # ...and second-order dependencies reached through them.
        assert "repro.rng" in modules
        assert "repro.protocols.ipda" in modules

    def test_single_byte_edit_flips_fingerprint(self, tmp_path, monkeypatch):
        _write_package(tmp_path, "VALUE = 1\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        clear_fingerprint_caches()
        before = code_fingerprint("fpdemo.spec")
        # One byte: 1 -> 2 in a *transitively imported* module.
        _write_package(tmp_path, "VALUE = 2\n")
        clear_fingerprint_caches()
        after = code_fingerprint("fpdemo.spec")
        assert before != after

    def test_edit_outside_the_closure_keeps_fingerprint(
        self, tmp_path, monkeypatch
    ):
        _write_package(tmp_path)
        (tmp_path / "fpdemo" / "unrelated.py").write_text("X = 1\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        clear_fingerprint_caches()
        before = code_fingerprint("fpdemo.spec")
        (tmp_path / "fpdemo" / "unrelated.py").write_text("X = 2\n")
        clear_fingerprint_caches()
        assert code_fingerprint("fpdemo.spec") == before

    def test_report_kinds_stay_out_of_every_closure(self):
        # The report envelope (repro.obs.report) is in every closure;
        # it names the kind modules as strings, so their sources must
        # never reach a cell digest.
        from repro.runner import available_experiments

        outside = {
            "repro.serve.bench",
            "repro.privacy.report",
            "repro.perf.harness",
            "repro.perf.compare",
            "repro.cli",
        }
        for name in available_experiments():
            run_cell = get_spec(name).run_cell
            modules = fingerprint_modules(run_cell.__module__, run_cell)
            assert not outside & set(modules), name

    def test_every_registered_spec_fingerprints(self):
        from repro.experiments import SPECS

        for name in sorted(SPECS):
            fingerprint = spec_fingerprint(SPECS[name])
            assert len(fingerprint) == 40
