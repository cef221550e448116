"""Benchmark subsystem: timed hot-path benchmarks with a JSON perf gate.

``repro bench`` runs the registered micro benchmarks (engine churn,
radio round, cipher throughput) and macro benchmarks (one tiny but
representative spec per protocol family), emits a schema'd
``BENCH_<timestamp>.json`` report, and — with ``--compare`` — gates on
throughput regressions against a committed baseline.  See
``docs/simulator.md`` ("Performance") for how to read the report.
"""

from .harness import (
    BENCH_SCHEMA,
    BenchResult,
    available_benchmarks,
    bench_payload_problems,
    benchmark_descriptions,
    build_report,
    collect_environment,
    default_report_name,
    register_benchmark,
    render_report_text,
    run_benchmarks,
    write_report,
)
from .compare import (
    ComparisonRow,
    compare_reports,
    render_comparison,
)

# Importing the definitions module populates the benchmark registry.
from . import benchmarks as _definitions  # noqa: F401

__all__ = [
    "BENCH_SCHEMA",
    "BenchResult",
    "ComparisonRow",
    "available_benchmarks",
    "bench_payload_problems",
    "benchmark_descriptions",
    "build_report",
    "collect_environment",
    "compare_reports",
    "default_report_name",
    "register_benchmark",
    "render_comparison",
    "render_report_text",
    "run_benchmarks",
    "write_report",
]
