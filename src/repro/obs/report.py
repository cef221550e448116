"""Structured reports: one envelope for the four ``repro-*/1`` kinds.

Every report is a JSON object that starts with the same header
(:func:`report_header`: ``schema``, ``created_utc``, ``argv``) and
carries a kind-specific payload:

* ``repro-run/1`` -- one experiment invocation: which experiments ran,
  how long each phase took, and what every subsystem counted (built
  here, by :func:`build_run_report`);
* ``repro-serve/1`` -- a service bench (:mod:`repro.serve.bench`);
* ``repro-privacy/1`` -- an autotuner sweep (:mod:`repro.privacy.report`);
* ``repro-bench/1`` -- a benchmark run (:mod:`repro.perf.harness`).

The ``schema`` string picks the kind's payload check and renderer from
:data:`_KINDS`.  :func:`load_report` reads a file once and validates
it, :func:`write_report` validates before it writes, and
:func:`render_report` is what ``repro report <path>`` prints.  The kind
modules are named as strings and imported on first use, so importing
this module imports none of them, and no spec's code fingerprint
covers their sources.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from .registry import MetricsRegistry

__all__ = [
    "RUN_SCHEMA",
    "VOLATILE_PREFIXES",
    "build_run_report",
    "deterministic_view",
    "load_report",
    "render_report",
    "render_run_report",
    "report_header",
    "run_payload_problems",
    "validate_report",
    "write_events_jsonl",
    "write_report",
]

#: Report schema identifier; bump when the JSON layout changes.
RUN_SCHEMA = "repro-run/1"

#: schema -> (module, payload check, renderer).  A payload check takes
#: a document whose header is already checked and returns the list of
#: problems with the rest of it (empty when valid).
_KINDS: Dict[str, Tuple[str, str, str]] = {
    RUN_SCHEMA: (
        "repro.obs.report", "run_payload_problems", "render_run_report"
    ),
    "repro-serve/1": (
        "repro.serve.bench", "serve_payload_problems", "render_serve_report"
    ),
    "repro-privacy/1": (
        "repro.privacy.report",
        "privacy_payload_problems",
        "render_privacy_report",
    ),
    "repro-bench/1": (
        "repro.perf.harness", "bench_payload_problems", "render_report_text"
    ),
}

#: Metric-name prefixes whose values legitimately vary run to run or
#: with ``--jobs`` (wall clocks, cache locality); stripped by
#: :func:`deterministic_view` when comparing snapshots.
VOLATILE_PREFIXES: Tuple[str, ...] = (
    "runner.", "deploy_cache.", "store.", "fleet.",
)

_SNAPSHOT_SECTIONS = ("counters", "gauges", "histograms", "phases")


def report_header(
    schema: str, argv: Optional[Sequence[str]]
) -> Dict[str, object]:
    """The fields every report starts with.

    ``argv`` is the argument list the CLI parsed, verbatim, so
    re-running it reproduces the report's configuration; library
    callers pass ``None``.
    """
    return {
        "schema": schema,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "argv": list(argv) if argv is not None else None,
    }


def _header_problems(report: Dict[str, object]) -> List[str]:
    problems = []
    if not isinstance(report.get("created_utc"), str):
        problems.append("created_utc must be a string")
    # Files written before every kind carried argv omit it.
    argv = report.get("argv")
    if argv is not None and not (
        isinstance(argv, list) and all(isinstance(a, str) for a in argv)
    ):
        problems.append("argv must be a list of strings")
    return problems


def validate_report(
    report: object, *, path: str = "<report>"
) -> Dict[str, object]:
    """Check the header, then the payload its ``schema`` names.

    Returns ``report``; raises :class:`ConfigurationError` naming
    ``path`` on an unknown schema or any problem.
    """
    schema = report.get("schema") if isinstance(report, dict) else None
    if not isinstance(schema, str) or schema not in _KINDS:
        raise ConfigurationError(
            f"{path!r} is not a repro report (schema={schema!r}; "
            f"expected one of {sorted(_KINDS)})"
        )
    module, check, _ = _KINDS[schema]
    problems = _header_problems(report)
    problems += getattr(importlib.import_module(module), check)(report)
    if problems:
        raise ConfigurationError(
            f"{path!r} is not a valid {schema} report: "
            + "; ".join(problems[:5])
        )
    return report


def load_report(path: str) -> Dict[str, object]:
    """Read and validate one report of any kind; errors name ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot read report {path!r}: {exc}"
        ) from exc
    except ValueError as exc:
        raise ConfigurationError(
            f"{path!r} is not valid JSON: {exc}"
        ) from exc
    return validate_report(report, path=path)


def write_report(report: Dict[str, object], path: str) -> str:
    """Validate ``report``, then write it as JSON; returns ``path``."""
    validate_report(report, path=path)
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    return path


def render_report(report: Dict[str, object]) -> str:
    """Human-readable text of a validated report, by its kind."""
    module, _, render = _KINDS[str(report["schema"])]
    return getattr(importlib.import_module(module), render)(report)


def write_events_jsonl(
    events: Iterable[Dict[str, object]], path: str
) -> str:
    """Write the phase event stream, one JSON object per line."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    return path


def deterministic_view(
    snapshot: Dict[str, object],
    *,
    volatile_prefixes: Tuple[str, ...] = VOLATILE_PREFIXES,
) -> Dict[str, object]:
    """The part of a snapshot that must match for any ``--jobs`` value.

    Gauges and phases are wall-clock by nature and the volatile
    prefixes (runner throughput, cache locality) depend on worker
    scheduling, so the view keeps only the simulation-derived counters
    and histograms.
    """

    def keep(name: str) -> bool:
        return not name.startswith(volatile_prefixes)

    return {
        "counters": {
            name: value
            for name, value in snapshot.get("counters", {}).items()
            if keep(name)
        },
        "histograms": {
            name: value
            for name, value in snapshot.get("histograms", {}).items()
            if keep(name)
        },
    }


# ----------------------------------------------------------------------
# The repro-run/1 kind
# ----------------------------------------------------------------------
def build_run_report(
    experiments: Sequence[Dict[str, object]],
    *,
    argv: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Assemble a ``repro-run/1`` document from per-experiment entries.

    Each entry must carry ``name`` and ``metrics`` (a registry
    snapshot); anything else (``elapsed_seconds``, ``cells``, ``jobs``,
    ``shard_cells``) rides along verbatim.  ``totals`` merges every
    experiment's metrics into one snapshot.
    """
    totals = MetricsRegistry()
    elapsed = 0.0
    cells = 0
    for entry in experiments:
        metrics = entry.get("metrics")
        if isinstance(metrics, dict):
            totals.merge(metrics)
        elapsed += float(entry.get("elapsed_seconds", 0.0) or 0.0)
        cells += int(entry.get("cells", 0) or 0)
    return {
        **report_header(RUN_SCHEMA, argv),
        "experiments": [dict(entry) for entry in experiments],
        "totals": {
            "experiments": len(experiments),
            "cells": cells,
            "elapsed_seconds": round(elapsed, 6),
            "metrics": totals.snapshot(),
        },
    }


def _check_snapshot(
    snapshot: object, where: str, problems: List[str]
) -> None:
    if not isinstance(snapshot, dict):
        problems.append(f"{where}: metrics must be an object")
        return
    for section in _SNAPSHOT_SECTIONS:
        block = snapshot.get(section, {})
        if not isinstance(block, dict):
            problems.append(f"{where}: metrics.{section} must be an object")
            continue
        for name, value in block.items():
            if section in ("counters", "gauges"):
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    problems.append(
                        f"{where}: metrics.{section}[{name!r}] must be "
                        f"a number, got {type(value).__name__}"
                    )
            elif section == "histograms":
                if (
                    not isinstance(value, dict)
                    or not isinstance(value.get("edges"), list)
                    or not isinstance(value.get("counts"), list)
                    or len(value["counts"]) != len(value["edges"]) + 1
                ):
                    problems.append(
                        f"{where}: metrics.histograms[{name!r}] must have "
                        f"edges plus len(edges)+1 counts"
                    )
            else:  # phases
                if not isinstance(value, dict) or not all(
                    isinstance(value.get(key), (int, float))
                    for key in ("seconds", "count")
                ):
                    problems.append(
                        f"{where}: metrics.phases[{name!r}] must carry "
                        f"numeric seconds and count"
                    )


def run_payload_problems(report: Dict[str, object]) -> List[str]:
    """Problems with a ``repro-run/1`` payload (empty when valid)."""
    problems: List[str] = []
    experiments = report.get("experiments")
    if not isinstance(experiments, list):
        problems.append("experiments must be a list")
        experiments = []
    for index, entry in enumerate(experiments):
        where = f"experiments[{index}]"
        if not isinstance(entry, dict) or not isinstance(
            entry.get("name"), str
        ):
            problems.append(f"{where}: must be an object with a name")
            continue
        _check_snapshot(entry.get("metrics"), where, problems)
    totals = report.get("totals")
    if not isinstance(totals, dict):
        problems.append("totals must be an object")
    else:
        _check_snapshot(totals.get("metrics"), "totals", problems)
    return problems


def _group_counters(counters: Dict[str, object]) -> Dict[str, List[str]]:
    """Counters grouped by their dotted prefix, formatted ``k=v``."""
    groups: Dict[str, List[str]] = {}
    for name in sorted(counters):
        prefix, _, rest = name.partition(".")
        value = counters[name]
        if isinstance(value, float) and value == int(value):
            value = int(value)
        groups.setdefault(prefix, []).append(f"{rest or prefix}={value}")
    return groups


def _render_snapshot(
    snapshot: Dict[str, object], lines: List[str], indent: str
) -> None:
    phases = snapshot.get("phases", {})
    if phases:
        parts = [
            f"{name} {data['seconds']:.3f}s×{data['count']}"
            for name, data in sorted(phases.items())
        ]
        lines.append(f"{indent}phases:  " + "  ".join(parts))
    for prefix, parts in _group_counters(
        snapshot.get("counters", {})
    ).items():
        lines.append(f"{indent}{prefix}: " + " ".join(parts))
    for name, data in sorted(snapshot.get("histograms", {}).items()):
        edges = data.get("edges", [])
        counts = data.get("counts", [])
        buckets = []
        for edge, count in zip(edges, counts):
            if count:
                buckets.append(f"<={edge:g}:{count}")
        if len(counts) == len(edges) + 1 and counts[-1]:
            buckets.append(f">{edges[-1]:g}:{counts[-1]}")
        lines.append(
            f"{indent}{name}: n={data.get('count', 0)} "
            f"total={data.get('total', 0):g}"
            + ("  " + " ".join(buckets) if buckets else "")
        )


def render_run_report(report: Dict[str, object]) -> str:
    """Human-readable rendering for ``repro report <path>``."""
    experiments = report.get("experiments", [])
    totals = report.get("totals", {})
    lines = [
        f"run report ({report.get('schema')}, created "
        f"{report.get('created_utc')}; {len(experiments)} experiment(s), "
        f"{float(totals.get('elapsed_seconds', 0.0)):.1f}s)"
    ]
    for entry in experiments:
        shape = ""
        if "cells" in entry:
            shape = (
                f": {entry['cells']} cells on {entry.get('jobs', '?')} "
                f"worker(s) in {float(entry.get('elapsed_seconds', 0)):.2f}s"
            )
            shards = entry.get("shard_cells")
            if shards:
                shape += f", shards {'/'.join(str(s) for s in shards)}"
        lines.append(f"  {entry.get('name')}{shape}")
        metrics = entry.get("metrics")
        if isinstance(metrics, dict):
            _render_snapshot(metrics, lines, "    ")
    if len(experiments) > 1 and isinstance(totals.get("metrics"), dict):
        lines.append(f"  totals ({totals.get('cells', 0)} cells)")
        _render_snapshot(totals["metrics"], lines, "    ")
    return "\n".join(lines)
