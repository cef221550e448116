"""The standing sensor fleet behind the service: protocol lanes.

One :class:`ServiceFleet` owns one deployment and serves every query
batch against it.  The iPDA lane is the heart: a single
:class:`~repro.protocols.epochs.EpochedIpdaSession` whose disjoint
red/blue trees are constructed **once** (Phase I) and then reused by
every epoch, so tree construction amortises across the whole query
stream — the pipelining the batch runners cannot do.  The TAG lane
runs the baseline convergecast per batch on the same topology, and the
KIPDA lane answers extremum queries with camouflage vectors.

Faults are scheduled by **epoch index** (:class:`ServiceFaultSchedule`)
and applied at cycle boundaries through the network's fault entry
points, so crashes, churn, and burst loss land mid-traffic exactly as
the chaos harness lands them on the fleet runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..core.config import IpdaConfig, RobustnessConfig
from ..errors import ConfigurationError, ServiceError
from ..faults.plan import FaultPlan, GilbertElliottParams
from ..obs import get_registry
from ..protocols.epochs import EpochedIpdaSession
from ..protocols.kipda import KipdaMaxProtocol, KipdaMinProtocol
from ..protocols.tag import TagProtocol
from ..rng import RngStreams
from ..workloads.readings import uniform_readings
from .query import QueryResult

__all__ = [
    "LOSS_PRESETS",
    "FleetConfig",
    "ServiceFaultSchedule",
    "ServiceFleet",
    "parse_fault_spec",
]

#: Burst-loss presets for ``--faults loss=<level>`` (mirrors the
#: fault-sweep experiment's levels: ~4% and ~11% average loss).
LOSS_PRESETS: Dict[str, GilbertElliottParams] = {
    "light": GilbertElliottParams(
        bad_rate=0.025, recovery_rate=0.5, loss_good=0.0, loss_bad=0.8
    ),
    "heavy": GilbertElliottParams(
        bad_rate=0.07, recovery_rate=0.5, loss_good=0.01, loss_bad=0.8
    ),
}


@dataclass(frozen=True)
class FleetConfig:
    """Shape of the standing deployment."""

    node_count: int = 200
    seed: int = 0
    slices: int = 2
    threshold: int = 5
    #: loss-tolerant iPDA (ACK'd slices/reports + three-way verdict);
    #: costs extra frames per epoch but keeps availability under faults.
    robust: bool = False
    base_station: int = 0
    reading_low: int = 0
    reading_high: int = 100

    def __post_init__(self) -> None:
        if self.node_count < 2:
            raise ConfigurationError("the fleet needs at least 2 nodes")
        if self.reading_low > self.reading_high:
            raise ConfigurationError("reading_low must be <= reading_high")

    def ipda_config(self) -> IpdaConfig:
        robustness = RobustnessConfig() if self.robust else None
        return IpdaConfig(
            slices=self.slices,
            threshold=self.threshold,
            robustness=robustness,
        )


@dataclass(frozen=True)
class _CrashOrder:
    """``count`` deterministic crashes at the start of ``epoch``."""

    epoch: int
    count: int
    recover_after: Optional[int] = None  # epochs until revival

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ConfigurationError("crash count must be >= 0")
        if self.epoch < 0:
            raise ConfigurationError("crash epoch must be >= 0")
        if self.recover_after is not None and self.recover_after < 1:
            raise ConfigurationError(
                "revival must come at least 1 epoch after the crash"
            )


@dataclass(frozen=True)
class ServiceFaultSchedule:
    """Faults expressed against the service's epoch counter.

    A standing service has no single "run length" to write wall-clock
    fault times against, but every query is served by a numbered
    epoch, so chaos is scheduled where traffic lives: *crash two nodes
    at epoch 3, revive them four epochs later, degrade the channel
    from epoch 1 on*.
    """

    crashes: Tuple[_CrashOrder, ...] = ()
    loss_level: Optional[str] = None
    loss_epoch: int = 0

    def __post_init__(self) -> None:
        if self.loss_epoch < 0:
            raise ConfigurationError("loss epoch must be >= 0")

    @property
    def empty(self) -> bool:
        return not self.crashes and self.loss_level is None


def parse_fault_spec(spec: str) -> ServiceFaultSchedule:
    """Parse a ``--faults`` string into a schedule.

    Comma-separated clauses::

        crash=<count>@<epoch>          crash <count> nodes at <epoch>
        crash=<count>@<epoch>+<k>      ... and revive them <k> epochs on
        loss=<light|heavy>[@<epoch>]   burst-loss channel from <epoch>

    Example: ``crash=2@3+4,loss=light@1``.  Counts and epochs are
    non-negative, a revival comes at least one epoch after its crash,
    and ``loss=`` appears at most once.
    """
    crashes: List[_CrashOrder] = []
    loss_level: Optional[str] = None
    loss_epoch = 0
    for clause in spec.split(","):
        clause = clause.strip()
        if not clause:
            continue
        key, sep, value = clause.partition("=")
        if not sep:
            raise ConfigurationError(
                f"malformed fault clause {clause!r} (expected key=value)"
            )
        try:
            if key == "crash":
                count_part, _, when = value.partition("@")
                when, _, recover = when.partition("+")
                crashes.append(
                    _CrashOrder(
                        epoch=int(when) if when else 0,
                        count=int(count_part),
                        recover_after=int(recover) if recover else None,
                    )
                )
            elif key == "loss":
                if loss_level is not None:
                    raise ConfigurationError(
                        "a schedule holds one loss level, so loss= "
                        "must appear at most once"
                    )
                level, _, when = value.partition("@")
                if level not in LOSS_PRESETS:
                    raise ConfigurationError(
                        f"unknown loss level {level!r}; choose from "
                        f"{sorted(LOSS_PRESETS)}"
                    )
                loss_level = level
                loss_epoch = int(when) if when else 0
            else:
                raise ConfigurationError(
                    f"unknown fault clause {key!r} (crash= or loss=)"
                )
        except (ValueError, ConfigurationError) as exc:
            raise ConfigurationError(
                f"malformed fault clause {clause!r}: {exc}"
            ) from exc
    return ServiceFaultSchedule(
        crashes=tuple(crashes), loss_level=loss_level, loss_epoch=loss_epoch
    )


@dataclass
class CycleOutcome:
    """What one service cycle did: per-ticket results + lane detail."""

    epoch: int
    results: List[Tuple[object, QueryResult]] = field(default_factory=list)
    lanes_run: Tuple[str, ...] = ()


class ServiceFleet:
    """Standing deployment + protocol lanes serving query batches."""

    def __init__(
        self,
        config: Optional[FleetConfig] = None,
        *,
        faults: Optional[ServiceFaultSchedule] = None,
    ):
        self.config = config if config is not None else FleetConfig()
        self.faults = faults if faults is not None else ServiceFaultSchedule()
        self._streams = RngStreams(self.config.seed).spawn("serve")
        self._session: Optional[EpochedIpdaSession] = None
        self._tag = TagProtocol()
        self._kipda_max = KipdaMaxProtocol()
        self._kipda_min = KipdaMinProtocol()
        self._epoch = 0
        self._pending_revivals: List[Tuple[int, Tuple[int, ...]]] = []
        self._crashed: List[int] = []
        self.topology = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Build the deployment and run Phase I once (amortised)."""
        if self._session is not None:
            raise ServiceError("fleet already started")
        from ..experiments.common import cached_deployment

        self.topology = cached_deployment(
            self.config.node_count, seed=self.config.seed
        )
        self._session = EpochedIpdaSession(
            self.topology,
            self.config.ipda_config(),
            streams=self._streams.spawn("ipda"),
            base_station=self.config.base_station,
        )
        self._session.construct_trees()

    @property
    def started(self) -> bool:
        return self._session is not None

    @property
    def session(self) -> EpochedIpdaSession:
        if self._session is None:
            raise ServiceError("fleet not started; call start() first")
        return self._session

    @property
    def epoch(self) -> int:
        """Cycles served so far (the next cycle's index)."""
        return self._epoch

    @property
    def construction_bytes(self) -> int:
        """Bytes Phase I spent — amortised over every epoch served."""
        return self.session.construction_bytes

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def _apply_due_faults(self, epoch: int) -> None:
        """Fire crash/revive/loss orders scheduled for this epoch."""
        registry = get_registry()
        network = self.session.network
        due_revivals = [
            nodes for at, nodes in self._pending_revivals if at <= epoch
        ]
        self._pending_revivals = [
            entry for entry in self._pending_revivals if entry[0] > epoch
        ]
        for nodes in due_revivals:
            for node_id in nodes:
                network.revive_node(node_id)
                self._crashed.remove(node_id)
                if registry is not None:
                    registry.inc("serve.faults.recoveries")
        for order in self.faults.crashes:
            if order.epoch != epoch:
                continue
            victims = self._pick_victims(order.count, epoch)
            for node_id in victims:
                network.kill_node(node_id)
                self._crashed.append(node_id)
                if registry is not None:
                    registry.inc("serve.faults.crashes")
            if order.recover_after is not None and victims:
                self._pending_revivals.append(
                    (epoch + order.recover_after, victims)
                )
        if (
            self.faults.loss_level is not None
            and epoch == self.faults.loss_epoch
        ):
            plan = FaultPlan(
                burst_loss=LOSS_PRESETS[self.faults.loss_level],
                seed=self.config.seed,
            )
            network.arm_faults(plan)
            if registry is not None:
                registry.inc("serve.faults.loss_armed")

    def _pick_victims(self, count: int, epoch: int) -> Tuple[int, ...]:
        """Deterministically choose crash victims (never the root)."""
        candidates = [
            node_id
            for node_id in range(self.config.node_count)
            if node_id != self.config.base_station
            and node_id not in self._crashed
        ]
        if count >= len(candidates):
            return tuple(candidates)
        rng = self._streams.get("fault-victims", epoch)
        picked = rng.choice(len(candidates), size=count, replace=False)
        return tuple(sorted(candidates[int(i)] for i in picked))

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def readings_for_epoch(self, epoch: int) -> Dict[int, int]:
        """Fresh sensor readings for one epoch (deterministic per seed)."""
        return uniform_readings(
            self.topology,
            self._streams.get("readings", epoch),
            low=self.config.reading_low,
            high=self.config.reading_high,
            base_station=self.config.base_station,
        )

    def serve_cycle(self, tickets: List[object]) -> CycleOutcome:
        """Serve one batch: group tickets by lane, run each lane once.

        Every ticket gets a :class:`QueryResult`; tickets whose lane
        failed outright are ``rejected``.  The caller stamps timing.
        """
        epoch = self._epoch
        self._epoch += 1
        self._apply_due_faults(epoch)
        readings = self.readings_for_epoch(epoch)
        lanes: Dict[str, List[object]] = {}
        for ticket in tickets:
            lanes.setdefault(ticket.query.protocol, []).append(ticket)
        outcome = CycleOutcome(epoch=epoch, lanes_run=tuple(sorted(lanes)))
        for protocol in sorted(lanes):
            handler = getattr(self, f"_serve_{protocol}")
            outcome.results.extend(
                handler(lanes[protocol], readings, epoch)
            )
        return outcome

    # -- iPDA lane -----------------------------------------------------
    def _serve_ipda(self, tickets, readings, epoch):
        epoch_outcome = self.session.run_epoch(readings)
        verification = epoch_outcome.verification
        participant_count = len(epoch_outcome.participants)
        total = epoch_outcome.reported  # None on rejection
        detail = {
            "s_red": verification.s_red,
            "s_blue": verification.s_blue,
            "difference": verification.difference,
            "participants": participant_count,
            "bytes": epoch_outcome.bytes_this_epoch,
        }
        results = []
        for ticket in tickets:
            value: Optional[float] = None
            if total is not None:
                if ticket.query.kind == "sum":
                    value = float(total)
                elif ticket.query.kind == "count":
                    value = float(participant_count)
                elif participant_count:  # avg
                    value = total / participant_count
            results.append(
                (
                    ticket,
                    QueryResult(
                        query_id=ticket.query_id,
                        kind=ticket.query.kind,
                        protocol="ipda",
                        verdict=verification.outcome,
                        value=value,
                        confidence=verification.confidence,
                        epoch=epoch,
                        submitted_at=ticket.submitted_at,
                        detail=dict(detail),
                    ),
                )
            )
        return results

    # -- TAG lane ------------------------------------------------------
    def _serve_tag(self, tickets, readings, epoch):
        round_outcome = self._tag.run_round(
            self.topology,
            readings,
            streams=self._streams.spawn("tag", epoch),
            round_id=epoch,
        )
        reported = round_outcome.reported
        participant_count = len(round_outcome.participants)
        verdict = "accepted" if reported is not None else "rejected"
        detail = {
            "participants": participant_count,
            "bytes": round_outcome.bytes_sent,
        }
        results = []
        for ticket in tickets:
            value: Optional[float] = None
            if reported is not None:
                if ticket.query.kind == "sum":
                    value = float(reported)
                elif ticket.query.kind == "count":
                    value = float(participant_count)
                elif participant_count:  # avg
                    value = reported / participant_count
            results.append(
                (
                    ticket,
                    QueryResult(
                        query_id=ticket.query_id,
                        kind=ticket.query.kind,
                        protocol="tag",
                        verdict=verdict,
                        value=value,
                        confidence=1.0 if verdict == "accepted" else 0.0,
                        epoch=epoch,
                        submitted_at=ticket.submitted_at,
                        detail=dict(detail),
                    ),
                )
            )
        return results

    # -- KIPDA lane ----------------------------------------------------
    def _serve_kipda(self, tickets, readings, epoch):
        # Dead sensors publish nothing: KIPDA aggregates over the
        # survivors, mirroring what the vectors on the air would carry.
        live = {
            node: value
            for node, value in readings.items()
            if node not in self._crashed
        }
        results = []
        cache: Dict[str, object] = {}
        for ticket in tickets:
            kind = ticket.query.kind
            if kind not in cache:
                protocol = (
                    self._kipda_max if kind == "max" else self._kipda_min
                )
                cache[kind] = protocol.run_round(
                    self.topology,
                    live,
                    streams=self._streams.spawn("kipda", epoch),
                    round_id=epoch,
                )
            kipda_outcome = cache[kind]
            verdict = (
                "accepted" if kipda_outcome.reported is not None
                else "rejected"
            )
            results.append(
                (
                    ticket,
                    QueryResult(
                        query_id=ticket.query_id,
                        kind=kind,
                        protocol="kipda",
                        verdict=verdict,
                        value=(
                            float(kipda_outcome.reported)
                            if kipda_outcome.reported is not None
                            else None
                        ),
                        confidence=1.0 if kipda_outcome.exact else 0.5,
                        epoch=epoch,
                        submitted_at=ticket.submitted_at,
                        detail={
                            "participants": len(kipda_outcome.participants),
                            "vectors": kipda_outcome.vectors_published,
                        },
                    ),
                )
            )
        return results
