"""Benchmark harness: registry, timing discipline, and JSON reports.

Each benchmark is a function ``fn(quick: bool) -> BenchResult`` whose
``value`` is a throughput (higher is better).  ``run_benchmarks`` runs
every benchmark ``repeats`` times and keeps the best repeat — wall
clocks on shared machines only ever add noise, so the fastest
observation is the closest to the true cost of the code.

Reports are plain JSON (schema :data:`BENCH_SCHEMA`, in the envelope
of :mod:`repro.obs.report`) so CI can diff them and ``repro bench
--compare`` can gate on regressions without any extra dependencies.
"""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from contextlib import nullcontext

from ..errors import ConfigurationError
from ..obs import get_registry
from ..obs import report as obs_report

__all__ = [
    "BENCH_SCHEMA",
    "BenchResult",
    "available_benchmarks",
    "bench_payload_problems",
    "benchmark_descriptions",
    "build_report",
    "collect_environment",
    "default_report_name",
    "register_benchmark",
    "render_report_text",
    "run_benchmarks",
    "write_report",
]

#: Report schema identifier; bump when the JSON layout changes.
BENCH_SCHEMA = "repro-bench/1"


@dataclass
class BenchResult:
    """One benchmark observation.

    ``value`` is the headline throughput in ``unit`` (higher is
    better); ``wall_seconds`` and ``iterations`` describe the run that
    produced it; ``detail`` carries free-form workload parameters so a
    reader can tell two report generations apart.
    """

    name: str
    kind: str  # "micro" | "macro"
    metric: str  # e.g. "events_per_second"
    value: float
    unit: str
    wall_seconds: float
    iterations: int
    detail: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "value": self.value,
            "unit": self.unit,
            "wall_seconds": round(self.wall_seconds, 6),
            "iterations": self.iterations,
            "detail": self.detail,
        }


@dataclass
class _Benchmark:
    name: str
    kind: str
    description: str
    fn: Callable[[bool], BenchResult]


#: name -> benchmark, in registration order.
_REGISTRY: Dict[str, _Benchmark] = {}


def register_benchmark(name: str, kind: str, description: str):
    """Decorator registering ``fn(quick) -> BenchResult`` under ``name``."""
    if kind not in ("micro", "macro"):
        raise ConfigurationError(f"benchmark kind must be micro/macro, got {kind!r}")

    def decorate(fn: Callable[[bool], BenchResult]):
        if name in _REGISTRY:
            raise ConfigurationError(f"benchmark {name!r} registered twice")
        _REGISTRY[name] = _Benchmark(name, kind, description, fn)
        return fn

    return decorate


def available_benchmarks() -> List[str]:
    """Registered benchmark names, in registration order."""
    return list(_REGISTRY)


def benchmark_descriptions() -> Dict[str, str]:
    """``{name: one-line description}`` for ``repro bench --list``."""
    return {b.name: f"[{b.kind}] {b.description}" for b in _REGISTRY.values()}


def run_benchmarks(
    names: Optional[Sequence[str]] = None,
    *,
    quick: bool = False,
    repeats: int = 3,
    progress: Optional[Callable[[str], None]] = None,
) -> List[BenchResult]:
    """Run benchmarks best-of-``repeats``; returns one result each."""
    if repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    if names is None:
        selected = list(_REGISTRY.values())
    else:
        unknown = sorted(set(names) - set(_REGISTRY))
        if unknown:
            raise ConfigurationError(
                f"unknown benchmark(s) {unknown}; available: "
                f"{available_benchmarks()}"
            )
        selected = [_REGISTRY[name] for name in names]
    registry = get_registry()
    results: List[BenchResult] = []
    for bench in selected:
        if progress is not None:
            progress(f"running {bench.name} ...")
        best: Optional[BenchResult] = None
        timer = (
            registry.phase_timer(f"bench.{bench.name}")
            if registry is not None
            else nullcontext()
        )
        with timer:
            for _ in range(repeats):
                # Peak RSS of this repeat alone, so the scale macros
                # gate memory as well as throughput.
                reset = _reset_peak_rss()
                result = bench.fn(quick)
                peak, source = _peak_rss_mb(reset)
                result.detail["peak_rss_mb"] = round(peak, 1)
                result.detail["peak_rss_source"] = source
                if best is None or result.value > best.value:
                    best = result
        assert best is not None
        results.append(best)
    return results


def _reset_peak_rss() -> bool:
    """Reset the kernel's peak-RSS mark (``VmHWM``) to the current RSS.

    Linux only: writing ``5`` to ``/proc/self/clear_refs`` resets it.
    Returns False where that file is unavailable.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def _peak_rss_mb(reset: bool) -> Tuple[float, str]:
    """Peak resident set size in MiB, and the source it was read from.

    After a successful :func:`_reset_peak_rss` this is ``VmHWM`` from
    ``/proc/self/status``: the peak since the reset.  Otherwise it is
    the ``getrusage`` high-water mark of the whole process (Linux
    reports ``ru_maxrss`` in KiB, macOS in bytes).
    """
    if reset:
        try:
            with open("/proc/self/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0, "vmhwm"
        except OSError:
            pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0), "getrusage"
    return peak / 1024.0, "getrusage"


def collect_environment() -> Dict[str, object]:
    """Provenance for a report: git sha, interpreter, host shape."""
    return {
        "git_sha": _git_sha(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


def _git_sha() -> str:
    """Sha of the repository the bench was *invoked* from.

    Resolved from the current working directory, not the module path:
    when ``repro`` is installed into site-packages the module lives
    outside the benchmarked repo, and the sha of whatever repository
    happens to contain site-packages would corrupt provenance.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.getcwd(),
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip()


def build_report(
    results: Sequence[BenchResult],
    *,
    quick: bool,
    repeats: int,
    baseline_reference: Optional[Dict[str, object]] = None,
    metrics: Optional[Dict[str, object]] = None,
    argv: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Assemble the ``repro-bench/1`` document ``write_report`` persists.

    ``baseline_reference`` is an optional free-form block recording the
    numbers the committed baseline was measured against (e.g. the
    pre-optimization throughput and the resulting speedups), so a
    single file tells the whole story.

    ``metrics`` is an optional :class:`repro.obs.MetricsRegistry`
    snapshot gathered while the benchmarks ran (macro benchmarks drive
    the instrumented runner), embedded verbatim under ``"metrics"``.
    """
    report: Dict[str, object] = {
        **obs_report.report_header(BENCH_SCHEMA, argv),
        "quick": quick,
        "repeats": repeats,
        "environment": collect_environment(),
        "results": [result.as_dict() for result in results],
    }
    if baseline_reference is not None:
        report["baseline_reference"] = baseline_reference
    if metrics is not None:
        report["metrics"] = metrics
    return report


def default_report_name(created_utc: Optional[str] = None) -> str:
    """``BENCH_<UTC timestamp>.json`` (sortable, collision-free enough)."""
    stamp = created_utc or time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return "BENCH_" + stamp.replace("-", "").replace(":", "") + ".json"


def write_report(report: Dict[str, object], output: Optional[str] = None) -> str:
    """Validate and write ``report`` as JSON; returns the path written.

    ``output`` may be a directory (the default ``BENCH_*.json`` name is
    used inside it), an explicit file path, or ``None`` (current
    directory).
    """
    name = default_report_name(report.get("created_utc"))
    if output is None:
        path = name
    elif os.path.isdir(output) or output.endswith(os.sep):
        path = os.path.join(output, name)
    else:
        path = output
    return obs_report.write_report(report, path)


def _row_problem(row: object) -> str:
    """Describe what is wrong with one result row ('' when valid)."""
    if not isinstance(row, dict):
        return f"expected an object, got {type(row).__name__}"
    if not isinstance(row.get("name"), str) or not row["name"]:
        return "missing or non-string 'name'"
    for key in ("value", "wall_seconds"):
        value = row.get(key)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return f"missing or non-numeric {key!r}"
    for key in ("kind", "unit"):
        if not isinstance(row.get(key), str):
            return f"missing or non-string {key!r}"
    return ""


def bench_payload_problems(report: Dict[str, object]) -> List[str]:
    """Problems with a ``repro-bench/1`` payload (empty when valid).

    Checks every result row, not just the list: a malformed row
    (``name`` missing, ``value: null``) must fail validation, never
    later with a ``KeyError``/``TypeError`` traceback from the renderer
    or the comparison gate.
    """
    results = report.get("results", [])
    if not isinstance(results, list):
        return [f"'results' must be a list, got {type(results).__name__}"]
    problems = []
    for index, row in enumerate(results):
        problem = _row_problem(row)
        if problem:
            problems.append(f"results[{index}] is malformed ({problem})")
    if not isinstance(report.get("environment", {}), dict):
        problems.append("environment must be an object")
    return problems


def render_report_text(report: Dict[str, object]) -> str:
    """Human-readable table for the terminal."""
    rows = report.get("results", [])
    lines = [
        f"benchmarks ({'quick' if report.get('quick') else 'full'} mode, "
        f"best of {report.get('repeats')}; git "
        f"{str(report.get('environment', {}).get('git_sha', '?'))[:12]})"
    ]
    if not rows:
        lines.append("  (no benchmarks selected)")
        return "\n".join(lines)
    width = max(len(row["name"]) for row in rows)
    for row in rows:
        lines.append(
            f"  {row['name'].ljust(width)}  {row['value']:>14,.0f} "
            f"{row['unit']}  ({row['kind']}, {row['wall_seconds']:.3f}s)"
        )
    return "\n".join(lines)
