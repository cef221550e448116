"""Closed-loop service bench + the ``repro-serve/1`` report kind.

The bench drives a :class:`~repro.serve.service.ServiceCore` on
**virtual service time**: Poisson arrivals at the target qps are
precomputed from the seed, admission happens at each arrival's virtual
timestamp, and dispatch cycles fire on the ``epoch_seconds`` grid.  No
wall clock ever reaches the core, so two benches with the same seed
and knobs produce byte-identical deterministic metrics — the service
equivalent of the batch runners' pinned traces — while the radio
simulation underneath still costs real CPU, which is what the reported
wall-clock throughput measures.

The report (schema ``repro-serve/1``, in the envelope of
:mod:`repro.obs.report`) splits accordingly: ``traffic`` and ``slo``
are deterministic per seed; ``timing`` is wall-clock and excluded from
determinism checks, as are registry gauges/phases (via
:func:`repro.obs.report.deterministic_view`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError, ServiceOverloadError
from ..obs import MetricsRegistry, deterministic_view, using_registry
from ..obs.report import report_header
from ..rng import RngStreams
from .fleet import FleetConfig, ServiceFaultSchedule, parse_fault_spec
from .query import AggregationQuery, QueryResult
from .service import ServiceConfig, ServiceCore

__all__ = [
    "SERVE_SCHEMA",
    "MIXES",
    "BenchConfig",
    "arrival_schedule",
    "run_bench",
    "build_serve_report",
    "render_serve_report",
    "serve_deterministic_view",
    "serve_payload_problems",
]

SERVE_SCHEMA = "repro-serve/1"

#: Query mixes: ``(kind, protocol, deadline_or_None)`` tuples drawn
#: uniformly per arrival.  ``ipda`` is the perf-gate mix (pure
#: pipelined epochs); ``mixed`` exercises every lane and kind.
MIXES: Dict[str, Tuple[Tuple[str, str, Optional[float]], ...]] = {
    "ipda": (
        ("sum", "ipda", None),
        ("avg", "ipda", None),
        ("count", "ipda", None),
    ),
    "mixed": (
        ("sum", "ipda", None),
        ("avg", "ipda", None),
        ("count", "ipda", None),
        ("sum", "tag", None),
        ("avg", "tag", None),
        ("max", "kipda", None),
        ("min", "kipda", None),
    ),
}


@dataclass(frozen=True)
class BenchConfig:
    """Load-generator knobs."""

    duration: float = 10.0  # virtual service seconds of arrivals
    qps: float = 50.0  # target offered load
    seed: int = 0
    mix: str = "ipda"
    deadline: Optional[float] = None  # per-query deadline, if any

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.qps <= 0:
            raise ConfigurationError("qps must be positive")
        if self.mix not in MIXES:
            raise ConfigurationError(
                f"unknown mix {self.mix!r}; choose from {sorted(MIXES)}"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError("deadline must be positive")


def arrival_schedule(
    bench: BenchConfig,
) -> List[Tuple[float, str, str, Optional[float]]]:
    """Poisson arrival schedule, fully determined by the seed."""
    streams = RngStreams(bench.seed).spawn("serve-bench")
    clock_rng = streams.get("arrivals")
    mix_rng = streams.get("mix")
    mix = MIXES[bench.mix]
    schedule: List[Tuple[float, str, str, Optional[float]]] = []
    now = 0.0
    while True:
        now += float(clock_rng.exponential(1.0 / bench.qps))
        if now >= bench.duration:
            return schedule
        kind, protocol, deadline = mix[int(mix_rng.integers(len(mix)))]
        if bench.deadline is not None:
            deadline = bench.deadline
        schedule.append((now, kind, protocol, deadline))


def _stats(values: Sequence[float]) -> Dict[str, float]:
    """Deterministic mean/p50/p95/max summary (rounded for JSON)."""
    if not values:
        return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    ordered = sorted(values)

    def pct(p: float) -> float:
        index = max(0, min(len(ordered) - 1, math.ceil(p * len(ordered)) - 1))
        return ordered[index]

    return {
        "mean": round(sum(ordered) / len(ordered), 9),
        "p50": round(pct(0.50), 9),
        "p95": round(pct(0.95), 9),
        "max": round(ordered[-1], 9),
    }


def run_bench(
    bench: BenchConfig,
    *,
    fleet_config: Optional[FleetConfig] = None,
    service_config: Optional[ServiceConfig] = None,
    faults: Optional[ServiceFaultSchedule] = None,
    fault_spec: Optional[str] = None,
    argv: Optional[Sequence[str]] = None,
    registry: Optional[MetricsRegistry] = None,
) -> Dict[str, object]:
    """Run one deterministic bench; returns the ``repro-serve/1`` report.

    ``fault_spec`` (the CLI's ``--faults`` string) is parsed when
    ``faults`` is not given, and recorded verbatim in the report.
    Pass ``registry`` to keep access to it afterwards (the CLI does,
    for ``--metrics-events``); by default a fresh one is used.
    """
    fleet_config = fleet_config if fleet_config is not None else FleetConfig()
    service_config = (
        service_config if service_config is not None else ServiceConfig()
    )
    if faults is None:
        faults = (
            parse_fault_spec(fault_spec)
            if fault_spec
            else ServiceFaultSchedule()
        )
    schedule = arrival_schedule(bench)
    if registry is None:
        registry = MetricsRegistry()
    wall_start = time.perf_counter()
    with using_registry(registry):
        core = ServiceCore(
            config=service_config, fleet_config=fleet_config, faults=faults
        )
        core.start()
        construction_wall = time.perf_counter() - wall_start
        results: List[QueryResult] = []
        rejected = 0
        epoch_seconds = service_config.epoch_seconds
        next_dispatch = epoch_seconds
        index = 0
        serve_start = time.perf_counter()
        while True:
            if (
                index < len(schedule)
                and schedule[index][0] <= next_dispatch
            ):
                at, kind, protocol, deadline = schedule[index]
                index += 1
                query = AggregationQuery(
                    kind, protocol=protocol, deadline_seconds=deadline
                )
                try:
                    core.submit(query, now=at)
                except ServiceOverloadError:
                    rejected += 1
            elif index < len(schedule) or core.queue_depth:
                for ticket in core.dispatch(now=next_dispatch):
                    results.append(ticket.result)
                next_dispatch += epoch_seconds
            else:
                break
        serve_wall = time.perf_counter() - serve_start
    return build_serve_report(
        bench,
        fleet_config,
        service_config,
        results=results,
        rejected=rejected,
        offered=len(schedule),
        snapshot=registry.snapshot(),
        construction_bytes=core.fleet.construction_bytes,
        epochs_served=core.fleet.epoch,
        construction_wall=construction_wall,
        serve_wall=serve_wall,
        fault_spec=fault_spec,
        argv=argv,
    )


def build_serve_report(
    bench: BenchConfig,
    fleet_config: FleetConfig,
    service_config: ServiceConfig,
    *,
    results: Sequence[QueryResult],
    rejected: int,
    offered: int,
    snapshot: Dict[str, object],
    construction_bytes: int,
    epochs_served: int,
    construction_wall: float,
    serve_wall: float,
    fault_spec: Optional[str] = None,
    argv: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Assemble the ``repro-serve/1`` document from bench outputs."""
    served = [r for r in results if r.verdict != "expired"]
    expired = len(results) - len(served)
    ok = [r for r in served if r.ok]
    verdicts = {"accepted": 0, "degraded": 0, "rejected": 0}
    for result in served:
        verdicts[result.verdict] += 1
    admitted = len(results)
    completed = len(served)
    return {
        **report_header(SERVE_SCHEMA, argv),
        "config": {
            "nodes": fleet_config.node_count,
            "seed": bench.seed,
            "qps": bench.qps,
            "duration_seconds": bench.duration,
            "mix": bench.mix,
            "deadline_seconds": bench.deadline,
            "slices": fleet_config.slices,
            "threshold": fleet_config.threshold,
            "robust": fleet_config.robust,
            "capacity": service_config.capacity,
            "max_batch": service_config.max_batch,
            "epoch_seconds": service_config.epoch_seconds,
            "faults": fault_spec,
        },
        "traffic": {
            "offered": offered,
            "admitted": admitted,
            "rejected_overload": rejected,
            "expired": expired,
            "completed": completed,
            "verdicts": verdicts,
        },
        "slo": {
            # Of everything the service admitted, how much came back
            # usable (accepted or degraded-with-estimate)?
            "availability": (
                round(len(ok) / admitted, 9) if admitted else 0.0
            ),
            # Of everything offered, how much was shed at admission?
            "shed_rate": round(
                rejected / offered if offered else 0.0, 9
            ),
            "queue_wait_seconds": _stats([r.queue_wait for r in served]),
            "latency_seconds": _stats([r.latency for r in served]),
            "epochs": epochs_served,
            "mean_batch": round(
                completed / epochs_served if epochs_served else 0.0, 9
            ),
        },
        "fleet": {
            "construction_bytes": construction_bytes,
            "amortized_bytes_per_query": round(
                construction_bytes / completed if completed else 0.0, 3
            ),
        },
        # Wall-clock section: real CPU cost of the simulated epochs.
        # Volatile by nature — never part of determinism checks.
        "timing": {
            "construction_wall_seconds": round(construction_wall, 6),
            "serve_wall_seconds": round(serve_wall, 6),
            "wall_throughput_qps": round(
                completed / serve_wall if serve_wall > 0 else 0.0, 3
            ),
        },
        "metrics": snapshot,
    }


_REQUIRED_SECTIONS = ("config", "traffic", "slo", "timing", "metrics")
_TRAFFIC_KEYS = (
    "offered", "admitted", "rejected_overload", "expired", "completed"
)


def serve_payload_problems(report: Dict[str, object]) -> List[str]:
    """Problems with a ``repro-serve/1`` payload (empty when valid)."""
    problems: List[str] = []
    for section in _REQUIRED_SECTIONS:
        if not isinstance(report.get(section), dict):
            problems.append(f"missing or malformed section {section!r}")
    traffic = report.get("traffic")
    if isinstance(traffic, dict):
        for key in _TRAFFIC_KEYS:
            value = traffic.get(key)
            if not isinstance(value, int) or value < 0:
                problems.append(f"traffic.{key} must be a non-negative int")
        if not isinstance(traffic.get("verdicts"), dict):
            problems.append("traffic.verdicts must be an object")
    slo = report.get("slo")
    if isinstance(slo, dict):
        availability = slo.get("availability")
        if (
            not isinstance(availability, (int, float))
            or not 0.0 <= float(availability) <= 1.0
        ):
            problems.append("slo.availability must be in [0, 1]")
        if not isinstance(slo.get("mean_batch"), (int, float)):
            problems.append("slo.mean_batch must be a number")
    return problems


def serve_deterministic_view(report: Dict[str, object]) -> Dict[str, object]:
    """The seed-pinned portion of a serve report.

    Everything except wall clocks: two benches at the same seed and
    knobs must agree on this byte for byte.
    """
    return {
        "config": report["config"],
        "traffic": report["traffic"],
        "slo": report["slo"],
        "fleet": report.get("fleet"),
        "metrics": deterministic_view(report.get("metrics", {})),
    }


def render_serve_report(report: Dict[str, object]) -> str:
    """Human-readable summary for ``repro report``."""
    config = report.get("config", {})
    traffic = report.get("traffic", {})
    slo = report.get("slo", {})
    timing = report.get("timing", {})
    verdicts = traffic.get("verdicts", {})
    latency = slo.get("latency_seconds", {})
    queue_wait = slo.get("queue_wait_seconds", {})
    lines = [
        f"Service bench ({report.get('schema')})",
        (
            f"  deployment: {config.get('nodes')} nodes, seed "
            f"{config.get('seed')}, mix {config.get('mix')}"
            + (
                f", faults {config.get('faults')}"
                if config.get("faults")
                else ""
            )
        ),
        (
            f"  load: {config.get('qps')} qps for "
            f"{config.get('duration_seconds')} s "
            f"(offered {traffic.get('offered')})"
        ),
        (
            f"  traffic: admitted {traffic.get('admitted')}, "
            f"shed {traffic.get('rejected_overload')}, "
            f"expired {traffic.get('expired')}, "
            f"completed {traffic.get('completed')}"
        ),
        (
            f"  verdicts: {verdicts.get('accepted', 0)} accepted, "
            f"{verdicts.get('degraded', 0)} degraded, "
            f"{verdicts.get('rejected', 0)} rejected"
        ),
        (
            f"  availability: {slo.get('availability'):.3f}  "
            f"epochs: {slo.get('epochs')}  "
            f"mean batch: {slo.get('mean_batch'):.1f}"
        ),
        (
            f"  latency s: p50 {latency.get('p50', 0.0):.3f} "
            f"p95 {latency.get('p95', 0.0):.3f} "
            f"max {latency.get('max', 0.0):.3f}  "
            f"(queue wait p95 {queue_wait.get('p95', 0.0):.3f})"
        ),
        (
            f"  wall: {timing.get('serve_wall_seconds', 0.0):.2f} s serving "
            f"-> {timing.get('wall_throughput_qps', 0.0):.0f} q/s "
            f"(+{timing.get('construction_wall_seconds', 0.0):.2f} s "
            "tree construction, amortized)"
        ),
    ]
    return "\n".join(lines)
