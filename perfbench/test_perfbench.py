"""The benchmark's own tests: ``python3 -m pytest perfbench -q``.

They check the benchmark, not the program: that ``outputs_sha256``
pins a run's outputs, that the traced run sees each layer exactly where
``layers.json`` predicts it, that tracing changes no output, and that
the per-layer self times account for an op's whole wall time.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import spans
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: seed of the traced ops, used by no other test: a deployment another
#: test already built would be served from the cache, not rebuilt
TRACED_SEED = 5
#: ops traced per workload in the coverage test; the serve window
#: starts after the loss channel is armed at epoch 1
TRACED_OPS = {
    "ipda-round-600": range(0, 1),
    "serve-chaos-200": range(2, 6),
    "tune-quick-cold": range(0, 1),
}


def load(name):
    with open(os.path.join(ROOT if name == "BENCHMARK.json" else HERE, name),
              encoding="utf-8") as handle:
        return json.load(handle)


def run_ops(workload, indices):
    results = []
    for index in range(max(indices) + 1):
        prepared = workload.prepare(index)
        results.append(workload.check(index, prepared, workload.run(prepared)))
    return results


def run_prefix(workload, ops=None):
    """Run the deterministic prefix, cut to ``ops`` ops if given."""
    if ops is not None:
        workload.digest_ops = ops
    results = []
    while len(results) < workload.digest_ops:
        index = len(results)
        prepared = workload.prepare(index)
        results.append(workload.check(index, prepared, workload.run(prepared)))
    assert not [p for result in results for p in result.problems]
    return workload.digest([result.record for result in results])


@pytest.fixture(scope="module")
def tracer():
    return spans.Tracer(keep_ops=0)


@pytest.fixture(scope="module")
def traced(tracer):
    """Per workload: (per-layer metrics, op traces, traced and untraced
    results of the same ops)."""
    out = {}
    for name, indices in TRACED_OPS.items():
        # Traced first: the untraced rerun then hits the deployment
        # cache, which changes no output.
        tracer.install()
        workload = WORKLOADS[name](TRACED_SEED)
        tracer.uninstall()
        traces, results = [], []
        for index in range(max(indices) + 1):
            prepared = workload.prepare(index)
            on = index in indices
            if on:
                tracer.install()
                tracer.begin_op(index)
            output = workload.run(prepared)
            if on:
                traces.append(tracer.end_op())
                tracer.uninstall()
            results.append(workload.check(index, prepared, output))
        metrics = spans.layer_metrics(
            [(1.0, trace) for trace in traces], [1.0], [1.0]
        )
        plain = run_ops(WORKLOADS[name](TRACED_SEED), indices)
        out[name] = (metrics, traces, results, plain)
    return out


def test_benchmark_json_names_every_predicted_layer_metric():
    spec = load("BENCHMARK.json")
    predictions = load("layers.json")["metrics"]
    assert [m["name"] for m in spec["per_layer"]] == [
        p["name"] for p in predictions
    ]
    workloads = {w["name"] for w in spec["workloads"]}
    assert workloads == set(WORKLOADS)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    for prediction in predictions:
        for metric, workload in prediction["moves"]:
            assert metric in end_to_end and workload in workloads
        for key in ("unchanged_on", "zero_on", "nonzero_on"):
            assert set(prediction[key]) <= workloads, prediction["name"]


@pytest.mark.parametrize(
    "name, ops", [("ipda-round-600", 2), ("serve-chaos-200", None),
                  ("tune-quick-cold", 1)]
)
def test_digest_repeats_at_a_seed_and_differs_at_another(name, ops):
    first = run_prefix(WORKLOADS[name](0), ops)
    assert run_prefix(WORKLOADS[name](0), ops) == first
    assert run_prefix(WORKLOADS[name](1), ops) != first


def test_first_service_serves_what_the_cli_bench_serves():
    from repro.serve.bench import run_bench, serve_deterministic_view

    workload = WORKLOADS["serve-chaos-200"](0)
    run_prefix(workload)
    report = run_bench(
        workload.bench,
        fleet_config=workload.fleet_config,
        service_config=workload.service_config,
        fault_spec=workload.faults,
    )
    assert report["config"]["duration_seconds"] == 10.0
    assert report["config"]["qps"] == 50.0
    assert workload.digest_ops == report["slo"]["epochs"]
    assert workload.prefix_view == serve_deterministic_view(report)


def test_every_tracer_target_resolves(tracer):
    assert tracer.missing == []


def test_layer_coverage_matches_predictions(traced):
    predictions = load("layers.json")["metrics"]
    wrong = []
    for name, (metrics, _traces, _results, _plain) in traced.items():
        for prediction in predictions:
            value = metrics[prediction["name"]]
            if name in prediction["zero_on"] and value != 0:
                wrong.append(f"{prediction['name']} = {value} on {name}")
            if name in prediction["nonzero_on"] and not value > 0:
                wrong.append(f"{prediction['name']} = {value} on {name}")
    assert not wrong


def test_tracing_changes_no_output(traced):
    for name, (_metrics, _traces, results, plain) in traced.items():
        for traced_result, plain_result in zip(results, plain):
            assert not traced_result.problems, name
            assert traced_result.record == plain_result.record, name
            assert traced_result.bytes_per_node == plain_result.bytes_per_node
            assert traced_result.accuracy == plain_result.accuracy


def test_self_times_and_remainder_add_up_to_wall_time(traced):
    for name, (_metrics, traces, _results, _plain) in traced.items():
        for trace in traces:
            layers = sum(trace.self_s[1:])
            remainder = trace.self_s[spans.ROOT] + trace.tracer_s
            assert layers > 0, name
            assert layers + remainder == pytest.approx(trace.wall_s, abs=1e-9)


def test_traced_run_spans_the_hooks_of_a_restarted_service(tracer):
    class ShortServe(WORKLOADS["serve-chaos-200"]):
        duration = 1.0  # a few cycles per service

    workload = ShortServe(TRACED_SEED)
    out = run.measure(workload, run.RefClock(), 3.0, tracer)
    assert workload.lifetime >= 1
    traced = range(1, len(out.op_ms), 2)
    later = [
        trace for index, (_factor, trace) in zip(traced, out.traces)
        if index >= workload.digest_ops
    ]
    assert later
    for trace in later:
        assert trace.counts.get("sim.network.deliveries", 0) > 0


def test_reference_table_is_invisible_to_the_collector():
    assert not gc.is_tracked(run.RefClock()._table)


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = list(range(1, 41))
    assert run.tail(values) == (30, 75.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_run_refuses_a_directory_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ipda-round-600",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
