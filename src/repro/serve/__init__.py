"""Long-running aggregation service mode (``repro serve``).

Hosts a persistent simulated fleet behind a query front-end: one
Phase I tree construction amortizes across a continuous stream of
aggregation queries (pipelined epochs), with bounded admission,
explicit backpressure, per-query deadlines, SLO accounting through
:mod:`repro.obs`, fault-plan arming against the live service, and a
deterministic virtual-time bench emitting ``repro-serve/1`` reports.
"""

from .bench import (
    MIXES,
    SERVE_SCHEMA,
    BenchConfig,
    build_serve_report,
    render_serve_report,
    run_bench,
    serve_deterministic_view,
    serve_payload_problems,
)
from .fleet import (
    LOSS_PRESETS,
    FleetConfig,
    ServiceFaultSchedule,
    ServiceFleet,
    parse_fault_spec,
)
from .query import (
    KINDS_BY_PROTOCOL,
    VERDICTS,
    AggregationQuery,
    QueryResult,
)
from .service import (
    AggregationService,
    ServiceConfig,
    ServiceCore,
    Ticket,
)

__all__ = [
    "KINDS_BY_PROTOCOL",
    "LOSS_PRESETS",
    "MIXES",
    "SERVE_SCHEMA",
    "VERDICTS",
    "AggregationQuery",
    "AggregationService",
    "BenchConfig",
    "FleetConfig",
    "QueryResult",
    "ServiceConfig",
    "ServiceCore",
    "ServiceFaultSchedule",
    "ServiceFleet",
    "Ticket",
    "build_serve_report",
    "parse_fault_spec",
    "render_serve_report",
    "run_bench",
    "serve_deterministic_view",
    "serve_payload_problems",
]
