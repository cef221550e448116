"""A spec's code fingerprint covers the code its cells run, not the runner.

The runner drives cells; spec modules import it only inside their
``run()`` convenience wrappers.  The closure walk therefore never enters
:mod:`repro.runner`.  Following that edge pulled every experiment
module, the fleet, the store and obs into every closure, so an edit to
one experiment flipped the fingerprint (and missed the cache) of every
other spec.

The premise is checked directly: the first tiny cell of every
registered spec runs under :func:`sys.setprofile` without a single call
landing in ``repro/runner.py``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap

import pytest

import repro
import repro.runner as runner_module
from repro.runner import available_experiments, execute, get_spec
from repro.store import fingerprint_modules

from ..experiments.test_golden_outputs import SUBSYSTEM_KWARGS
from ..experiments.test_runner import TINY_KWARGS


#: every spec the package ships: the experiments and the subsystem specs
SHIPPED = sorted(set(TINY_KWARGS) | set(SUBSYSTEM_KWARGS))


def _closure(name):
    run_cell = get_spec(name).run_cell
    return set(fingerprint_modules(run_cell.__module__, run_cell))


def _calls_into(path, fn, *args, **kwargs):
    """Names of the functions in ``path`` that ``fn(*args)`` calls."""
    called = []

    def profile(frame, event, _arg):
        if event == "call" and frame.f_code.co_filename == path:
            called.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn(*args, **kwargs)
    finally:
        sys.setprofile(previous)
    return called


def test_the_profile_sees_calls_into_the_runner():
    called = _calls_into(
        runner_module.__file__,
        execute,
        "table1",
        jobs=1,
        cache=False,
        **TINY_KWARGS["table1"],
    )
    assert "execute" in called


def test_every_shipped_spec_has_a_tiny_parameterisation():
    ad_hoc = set(runner_module._EXTRA_SPECS)
    assert set(SHIPPED) == set(available_experiments()) - ad_hoc


@pytest.mark.parametrize("name", SHIPPED)
def test_no_cell_runs_a_line_of_the_runner(name):
    kwargs = SUBSYSTEM_KWARGS.get(name, TINY_KWARGS.get(name))
    spec = get_spec(name)
    cell = spec.cells(**kwargs)[0]
    assert _calls_into(runner_module.__file__, spec.run_cell, cell) == []


def test_no_closure_holds_the_runner():
    for name in available_experiments():
        runner = {
            module
            for module in _closure(name)
            if module == "repro.runner" or module.startswith("repro.runner.")
        }
        assert not runner, name


def test_the_tuner_closure_holds_no_radio_fleet_or_other_spec():
    closure = _closure("tune-eval")
    assert "repro.tune.evaluate" in closure
    assert "repro.core.pipeline" in closure
    assert "repro.sim.radio" not in closure
    assert "repro.experiments.fig7_overhead" not in closure
    assert not {m for m in closure if m.startswith("repro.fleet")}


def test_table1_closure_holds_no_protocol():
    closure = _closure("table1")
    assert "repro.analysis.density" in closure
    assert not {m for m in closure if m.startswith("repro.protocols")}


def test_fig7_closure_keeps_the_radio_stack():
    closure = _closure("fig7")
    assert {"repro.sim.radio", "repro.protocols.ipda"} <= closure


_EDIT_SCRIPT = textwrap.dedent(
    """
    import json, sys
    import repro
    from repro.runner import available_experiments, get_spec
    from repro.store import clear_fingerprint_caches, spec_fingerprint

    def fingerprints():
        return {
            name: spec_fingerprint(get_spec(name))
            for name in available_experiments()
        }

    before = fingerprints()
    with open(sys.argv[1], "a", encoding="utf-8") as handle:
        handle.write("# a comment-only edit\\n")
    clear_fingerprint_caches()
    print(json.dumps([repro.__file__, before, fingerprints()]))
    """
)


def test_a_comment_in_one_experiment_flips_only_its_spec(tmp_path):
    package = tmp_path / "repro"
    shutil.copytree(
        os.path.dirname(repro.__file__),
        package,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    edited = package / "experiments" / "fig1_trees.py"
    completed = subprocess.run(
        [sys.executable, "-c", _EDIT_SCRIPT, str(edited)],
        env=dict(os.environ, PYTHONPATH=str(tmp_path)),
        capture_output=True,
        text=True,
        check=True,
    )
    loaded_from, before, after = json.loads(completed.stdout)
    assert loaded_from == str(package / "__init__.py")
    flipped = {name for name in before if before[name] != after[name]}
    assert flipped == {"fig1"}
