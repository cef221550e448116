"""The benchmark's workloads: inputs from the seed, one op, output checks.

Every workload is a closed loop in one process: ``prepare(i)`` makes
op ``i``'s inputs (untimed), ``run(prepared)`` is the op the user waits
for (timed), and ``check(i, prepared, output)`` verifies the outputs
(untimed) and returns an :class:`OpResult`.

The first ``digest_ops`` ops of a run are its deterministic prefix:
``outputs_sha256`` and the ``sim_*`` metrics are taken over exactly
those ops, so they depend on the seed alone, never on how many ops the
host managed in the measured window.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


def op_seed(seed: int, index: int) -> int:
    """The 31-bit seed of op ``index`` of a run seeded with ``seed``."""
    digest = hashlib.blake2b(
        f"perfbench:{seed}:{index}".encode(), digest_size=4
    ).digest()
    return int.from_bytes(digest, "little") & 0x7FFFFFFF


def sha256_json(value: object) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class OpResult:
    """The checked outputs of one op."""

    #: deterministic outputs that feed ``outputs_sha256``
    record: object
    #: units of work attempted/failed: ops, or queries on serve
    attempted: int
    failed: int = 0
    #: output checks that failed (a wrong answer, a broken invariant)
    problems: List[str] = field(default_factory=list)
    #: simulated bytes sent per node, and reported / true total; None
    #: where the op has no such figure (no epoch served, no participant)
    bytes_per_node: Optional[float] = None
    accuracy: Optional[float] = None
    #: aggregate queries answered by this op
    queries: int = 1


class Workload:
    """Shared shape: ``prepare``/``run``/``check`` plus the digest.

    ``digest_ops`` is the length of the deterministic prefix and
    ``probe_ops`` the number of ops run by the process whose peak RSS
    is reported.
    """

    name = ""
    digest_ops = 1
    probe_ops = 1

    def digest(self, records: List[object]) -> str:
        """``outputs_sha256`` over the records of the prefix ops."""
        return sha256_json(records)


class RoundWorkload(Workload):
    """``ipda-round-600``: a fresh 600-node deployment, one iPDA round.

    The paper's experiment unit with the defaults (l = 2, collisions
    on, fire-and-forget).  Deployment, readings and protocol streams
    derive from (seed, op index).
    """

    name = "ipda-round-600"
    nodes = 600
    digest_ops = 8
    probe_ops = 1

    def __init__(self, seed: int):
        from repro import IpdaProtocol, random_deployment
        from repro.rng import RngStreams

        self.seed = seed
        self._protocol = IpdaProtocol
        self._deploy = random_deployment
        self._streams = RngStreams

    def prepare(self, index: int):
        seed = op_seed(self.seed, index)
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 100, size=self.nodes - 1)
        readings = {node: int(v) for node, v in enumerate(values, start=1)}
        return seed, readings

    def run(self, prepared):
        seed, readings = prepared
        topology = self._deploy(self.nodes, seed=seed)
        return self._protocol().run_round(
            topology, readings, streams=self._streams(seed)
        )

    def check(self, index: int, prepared, outcome) -> OpResult:
        problems = []
        if outcome.outcome != "accepted":
            problems.append(f"round {index}: verdict {outcome.outcome}")
        sums = (
            outcome.s_red,
            outcome.s_blue,
            outcome.participant_total,
            outcome.reported,
        )
        if len(set(sums)) != 1:
            problems.append(
                f"round {index}: s_red/s_blue/participant total/reported "
                f"disagree: {sums}"
            )
        by_node = sum(outcome.stats["sent_bytes_by_node"].values())
        if by_node != outcome.bytes_sent:
            problems.append(
                f"round {index}: per-node bytes {by_node} != "
                f"bytes_sent {outcome.bytes_sent}"
            )
        drops = outcome.stats["trace"]["drops_by_reason"]
        return OpResult(
            record={
                "verdict": outcome.outcome,
                "s_red": outcome.s_red,
                "s_blue": outcome.s_blue,
                "frames": outcome.frames_sent,
                "bytes": outcome.bytes_sent,
                "drops": {str(k): v for k, v in drops.items()},
            },
            attempted=1,
            failed=1 if problems else 0,
            problems=problems,
            bytes_per_node=outcome.bytes_sent / self.nodes,
            accuracy=(outcome.reported or 0) / outcome.true_total,
        )


class ServeWorkload(Workload):
    """``serve-chaos-200``: one dispatch cycle of a standing service.

    Each service lives for one default ``repro serve --bench`` run in
    the chaos shape ``--nodes 200 --robust --faults
    'crash=2@3+4,loss=light@1'``: the arrivals ``arrival_schedule``
    builds for 10 s of virtual time at 50 q/s of the ``ipda`` mix are
    admitted at their virtual times and dispatched on the 0.5 s cycle
    grid until the queue drains, as ``run_bench`` does, with the
    metrics registry active.  The next op starts a fresh service.  A
    service keeps every epoch's outcome, so its heap and its
    garbage-collector pauses grow with its age: one default run per
    service keeps both, and the share of cycles inside the crash
    window, as a user's bench run sees them, however many cycles the
    host gets through.

    The fleet is the bench's default deployment (fleet seed 0): across
    deployment seeds the cycle cost of a 200-node field varies about
    twofold, which would swamp the host's own spread.  The first
    service takes its arrivals from the run seed, so at ``--seed 0`` it
    serves exactly what ``repro serve --bench --seed 0`` serves in this
    shape; later services take theirs from (seed, lifetime).  The fleet
    build, Phase I and the cycles with nothing queued, which do not
    touch the fleet, are set-up.

    The first service's cycles are the run's deterministic prefix and
    the peak-RSS probe's window: ``digest_ops`` and ``probe_ops`` are
    set when it drains.  Each service starts after a full garbage
    collection, as in a fresh process.
    """

    name = "serve-chaos-200"
    nodes = 200
    fleet_seed = 0
    faults = "crash=2@3+4,loss=light@1"
    #: virtual seconds of arrivals per service, and their rate
    duration = 10.0
    qps = 50.0
    #: unknown until the first service drains
    digest_ops = probe_ops = sys.maxsize

    def __init__(self, seed: int):
        from repro.errors import ServiceOverloadError
        from repro.obs import MetricsRegistry, using_registry
        from repro.serve import (
            AggregationQuery,
            BenchConfig,
            FleetConfig,
            ServiceConfig,
            ServiceCore,
        )
        from repro.serve.bench import arrival_schedule
        from repro.serve.fleet import parse_fault_spec

        self.seed = seed
        self._query = AggregationQuery
        self._overload = ServiceOverloadError
        self._using = using_registry
        self._registry = MetricsRegistry
        self._core = ServiceCore
        self._bench_config = BenchConfig
        self._arrival_schedule = arrival_schedule
        self._faults = parse_fault_spec(self.faults)
        self.fleet_config = FleetConfig(
            node_count=self.nodes, seed=self.fleet_seed, robust=True
        )
        self.service_config = ServiceConfig()
        self.epoch_seconds = self.service_config.epoch_seconds
        self._readings: Dict[int, Dict[int, int]] = {}
        self._epochs: Dict[int, object] = {}
        self._prefix_results: List[object] = []
        self.prefix_view: Optional[Dict[str, object]] = None
        self._start(0)

    def _start(self, lifetime: int) -> None:
        """Stand up a fresh service (set-up, outside any op)."""
        self.lifetime = lifetime
        self.core = None
        gc.collect()
        self.bench = self._bench_config(
            duration=self.duration,
            qps=self.qps,
            seed=self.seed if lifetime == 0 else op_seed(self.seed, lifetime),
            mix="ipda",
        )
        self._arrivals = self._arrival_schedule(self.bench)
        self._submitted = 0
        self._clock = 0.0
        self.shed = 0
        self.registry = self._registry()
        with self._using(self.registry):
            self.core = self._core(
                config=self.service_config,
                fleet_config=self.fleet_config,
                faults=self._faults,
            )
            self._capture_readings(self.core.fleet)
            self.core.start()
        self._capture_epochs(self.core.fleet.session)

    def _drained(self) -> bool:
        return (
            self._submitted == len(self._arrivals) and not self.core.queue_depth
        )

    def _capture_readings(self, fleet) -> None:
        """Keep what ``readings_for_epoch`` returned: calling it again
        would continue the fleet's cached stream and return other
        readings."""
        readings = self._readings

        def capture(epoch):
            value = type(fleet).readings_for_epoch(fleet, epoch)
            readings[epoch] = value
            return value

        fleet.readings_for_epoch = capture

    def _capture_epochs(self, session) -> None:
        epochs = self._epochs

        def capture(readings, **kwargs):
            outcome = type(session).run_epoch(session, readings, **kwargs)
            epochs[outcome.epoch] = outcome
            return outcome

        session.run_epoch = capture

    def prepare(self, index: int) -> float:
        """Admit the arrivals due by the next cycle that has queries
        queued; returns its time."""
        if self._drained():
            self._start(self.lifetime + 1)
        core, arrivals = self.core, self._arrivals
        with self._using(self.registry):
            while True:
                now = self._clock + self.epoch_seconds
                while (
                    self._submitted < len(arrivals)
                    and arrivals[self._submitted][0] <= now
                ):
                    at, kind, protocol, deadline = arrivals[self._submitted]
                    self._submitted += 1
                    try:
                        core.submit(
                            self._query(
                                kind, protocol=protocol,
                                deadline_seconds=deadline,
                            ),
                            now=at,
                        )
                    except self._overload:
                        self.shed += 1
                self._clock = now
                if core.queue_depth:
                    return now
                core.dispatch(now=now)  # idle cycle: no query, no op

    def run(self, now: float):
        with self._using(self.registry):
            return self.core.dispatch(now=now)

    def check(self, index: int, now: float, tickets) -> OpResult:
        problems: List[str] = []
        failed = 0
        threshold = self.fleet_config.threshold
        for ticket in tickets:
            result = ticket.result
            if result.verdict not in ("accepted", "degraded"):
                failed += 1  # expired or rejected
                continue
            epoch = result.epoch
            readings = self._readings[epoch]
            participants = self._epochs[epoch].participants
            total = sum(readings[node] for node in participants)
            count = len(participants)
            kind = ticket.query.kind
            # The base station accepts when the trees agree within Th,
            # so an accepted answer may sit that far from the exact sum.
            if kind == "count":
                exact, slack = float(count), 0.0
            elif kind == "sum":
                exact, slack = float(total), float(threshold)
            else:
                exact = total / count if count else 0.0
                slack = threshold / count if count else 0.0
            if result.value is None or abs(result.value - exact) > slack:
                failed += 1
                problems.append(
                    f"cycle {index}: {result.verdict} {kind} answer "
                    f"{result.value} != {exact} over epoch {epoch}'s "
                    f"participants"
                )
        problems.extend(self._invariants(index))
        shed = self.shed
        self.shed = 0
        bytes_per_node = accuracy = None
        epoch = next(
            (t.result.epoch for t in tickets if t.result.epoch is not None),
            None,
        )
        if epoch is not None:
            outcome = self._epochs[epoch]
            readings = self._readings[epoch]
            bytes_per_node = outcome.bytes_this_epoch / self.nodes
            accuracy = (outcome.verification.report_value or 0) / sum(
                readings.values()
            )
        if self.lifetime == 0:
            self._prefix_results.extend(t.result for t in tickets)
            if self._drained():
                self.prefix_view = self._view()
                self.digest_ops = self.probe_ops = index + 1
        self._readings.clear()
        self._epochs.clear()
        return OpResult(
            record=None,
            attempted=len(tickets) + shed,
            failed=failed + shed,
            problems=problems,
            bytes_per_node=bytes_per_node,
            accuracy=accuracy,
            queries=len(tickets),
        )

    def _invariants(self, index: int) -> List[str]:
        counters = self.registry.counters
        submitted = counters.get("serve.submitted", 0)
        admitted = counters.get("serve.admitted", 0)
        shed = counters.get("serve.rejected_overload", 0)
        completed = counters.get("serve.completed", 0)
        expired = counters.get("serve.expired", 0)
        problems = []
        if submitted != admitted + shed or submitted != self._submitted:
            problems.append(
                f"cycle {index}: offered {self._submitted}, submitted "
                f"{submitted} != admitted {admitted} + shed {shed}"
            )
        if admitted != completed + expired + self.core.queue_depth:
            problems.append(
                f"cycle {index}: admitted {admitted} != completed "
                f"{completed} + expired {expired} + queued "
                f"{self.core.queue_depth}"
            )
        return problems

    def _view(self) -> Dict[str, object]:
        """``serve_deterministic_view`` of the first service's report."""
        from repro.serve.bench import (
            build_serve_report,
            serve_deterministic_view,
        )

        report = build_serve_report(
            self.bench,
            self.fleet_config,
            self.service_config,
            results=self._prefix_results,
            rejected=int(
                self.registry.counters.get("serve.rejected_overload", 0)
            ),
            offered=len(self._arrivals),
            snapshot=self.registry.snapshot(),
            construction_bytes=self.core.fleet.construction_bytes,
            epochs_served=self.core.fleet.epoch,
            construction_wall=0.0,
            serve_wall=0.0,
            fault_spec=self.faults,
        )
        return serve_deterministic_view(report)

    def digest(self, records: List[object]) -> str:
        return sha256_json(self.prefix_view)


class TuneWorkload(Workload):
    """``tune-quick-cold``: a cold ``repro tune --quick`` run.

    One op clears the code-fingerprint caches and runs the quick
    autotuner in-process with no store.  Op seeds come from a fixed
    pool of ``pool`` tune seeds, in an order shuffled by the run seed,
    without a repeat for ``pool`` ops.  A tune's cost ranges from 0.25
    to 1.3 s with the deployment its seed draws, so runs at different
    seeds must time the same tunes for their medians to agree: the
    deterministic prefix is one pass over the pool, and a run measures
    at least that.  Where a slow host cut runs to 32 of the 40 tunes,
    which tunes were left out alone spread the run medians by 4%.  The
    pool is larger than the deployment LRU (32 entries, one per tune),
    so every op still misses it.
    """

    name = "tune-quick-cold"
    pool = 40
    digest_ops = pool
    probe_ops = 1

    def __init__(self, seed: int):
        from repro.store.digest import clear_fingerprint_caches
        from repro.tune import autotune
        from repro.tune.space import PAPER_BASELINE, quick_grid

        self.seed = seed
        self._clear = clear_fingerprint_caches
        self._autotune = autotune
        order = np.random.default_rng([seed, 0x70E]).permutation(self.pool)
        self._seeds = [op_seed(0, int(slot)) for slot in order]
        labels = [candidate.label for candidate in quick_grid()]
        if PAPER_BASELINE.label not in labels:
            labels.append(PAPER_BASELINE.label)
        self.labels = sorted(labels)

    def prepare(self, index: int) -> int:
        return self._seeds[index % self.pool]

    def run(self, seed: int):
        self._clear()
        return self._autotune(quick=True, jobs=1, cache=False, seed=seed)

    def check(self, index: int, seed: int, outcome) -> OpResult:
        problems = []
        evaluations = outcome.evaluations
        labels = sorted(entry["config"]["label"] for entry in evaluations)
        if labels != self.labels:
            problems.append(
                f"tune {index}: evaluated {labels}, expected one per "
                f"candidate {self.labels}"
            )
        for entry in evaluations:
            privacy = entry["privacy"]
            weighted = sum(part["weighted"] for part in privacy["components"])
            if abs(privacy["score"] - weighted) > 1e-9:
                problems.append(
                    f"tune {index}: {entry['config']['label']} score "
                    f"{privacy['score']} != sum of weighted parts {weighted}"
                )
        if outcome.winner is None or outcome.winner not in outcome.feasible:
            problems.append(
                f"tune {index}: winner {outcome.winner} is not feasible"
            )
        # Means over the candidates weighted by participation, and the
        # accuracy taken over the sensors that took part: the plain
        # accuracy swings ~40% with each op's crash draws, and a
        # candidate may have no participant at all.
        weights = [entry["accuracy"]["participation"] for entry in evaluations]
        total = sum(weights)
        return OpResult(
            record=evaluations,
            attempted=1,
            failed=1 if problems else 0,
            problems=problems,
            bytes_per_node=(
                sum(
                    weight * entry["overhead"]["bytes_per_node"]
                    for weight, entry in zip(weights, evaluations)
                ) / total
                if total
                else None
            ),
            accuracy=(
                sum(entry["accuracy"]["mean"] for entry in evaluations) / total
                if total
                else None
            ),
        )


WORKLOADS = {
    cls.name: cls for cls in (RoundWorkload, ServeWorkload, TuneWorkload)
}

