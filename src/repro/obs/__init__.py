"""Run-wide observability: metrics registry, phase timers, reports.

The paper's whole evaluation is measurement — bytes on the air,
per-node message counts, accuracy, latency — and the surrounding
machinery (engine, radio, MAC, runner, store) each keep their own
counters.  This package is the zero-dependency layer that collects all
of them into one deterministic, schema-versioned run report
(:data:`~repro.obs.report.RUN_SCHEMA`) without perturbing the
simulation: instrumentation reads counters the subsystems already
maintain, golden outputs stay byte-identical, and when no registry is
active the hooks cost a single ``None`` check.

Usage::

    from repro.obs import MetricsRegistry, using_registry

    registry = MetricsRegistry()
    with using_registry(registry):
        table = execute("fig7", jobs=4)
    print(registry.snapshot()["counters"]["trace.frames_sent"])
"""

from .follow import EventTailer, follow_events, render_event_summary
from .registry import (
    DEFAULT_BATCH_EDGES,
    DEFAULT_CELL_SECONDS_EDGES,
    DEFAULT_EVENT_EDGES,
    DEFAULT_LATENCY_EDGES,
    Histogram,
    MetricsRegistry,
    get_registry,
    using_registry,
)
from .report import (
    RUN_SCHEMA,
    build_run_report,
    deterministic_view,
    load_report,
    render_report,
    render_run_report,
    validate_report,
    write_events_jsonl,
    write_report,
)

__all__ = [
    "DEFAULT_BATCH_EDGES",
    "DEFAULT_CELL_SECONDS_EDGES",
    "DEFAULT_EVENT_EDGES",
    "DEFAULT_LATENCY_EDGES",
    "EventTailer",
    "Histogram",
    "MetricsRegistry",
    "RUN_SCHEMA",
    "build_run_report",
    "deterministic_view",
    "follow_events",
    "get_registry",
    "load_report",
    "render_event_summary",
    "render_report",
    "render_run_report",
    "using_registry",
    "validate_report",
    "write_events_jsonl",
    "write_report",
]
