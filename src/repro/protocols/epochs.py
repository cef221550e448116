"""Epoched iPDA: one tree construction, many query rounds.

The single-round runner re-floods HELLOs per query; real deployments
(and TAG's epoch design) amortise Phase I across many queries.
:class:`EpochedIpdaSession` keeps one :class:`~repro.sim.network.Network`
alive, runs Phase I once, then serves an arbitrary sequence of query
epochs — each a fresh Phase II (slicing with fresh randomness) and
Phase III (convergecast) on the standing trees.

Per-epoch cost therefore drops from ``2l + 1`` to ``2l`` messages per
node (the HELLO is amortised), which :func:`amortized_messages_per_node`
captures and the benchmarks verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set

from ..core.config import IpdaConfig
from ..core.integrity import PolluterHunt, VerificationResult
from ..crypto.keys import PairwiseKeyScheme
from ..errors import AnalysisError, ProtocolError
from ..net.topology import Topology
from ..sim.mac import MacConfig
from ..sim.network import Network
from ..sim.node import Node
from ..sim.radio import RadioConfig
from ..sim.rng import RngStreams
from .ipda import _IpdaBaseStation, _IpdaNode

__all__ = [
    "EpochOutcome",
    "EpochedIpdaSession",
    "RadioAggregationService",
    "amortized_messages_per_node",
]


@dataclass
class EpochOutcome:
    """Result of one query epoch on the standing trees."""

    epoch: int
    s_red: int
    s_blue: int
    verification: VerificationResult
    participants: Set[int] = field(default_factory=set)
    bytes_this_epoch: int = 0
    #: per-epoch trace summary (drops, loss rate, bytes by kind) —
    #: deltas since this epoch began, not network-lifetime totals.
    trace: Dict[str, object] = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        """Did the base station accept this epoch's result?"""
        return self.verification.accepted

    @property
    def reported(self) -> Optional[int]:
        """The reported value (full or degraded), or None on rejection."""
        return self.verification.report_value


class EpochedIpdaSession:
    """A standing iPDA deployment serving repeated queries.

    Usage::

        session = EpochedIpdaSession(topology, streams=RngStreams(7))
        session.construct_trees()
        outcome = session.run_epoch({i: 1 for i in range(1, n)})
    """

    def __init__(
        self,
        topology: Topology,
        config: Optional[IpdaConfig] = None,
        *,
        streams: Optional[RngStreams] = None,
        seed: int = 0,
        key_scheme_factory=PairwiseKeyScheme,
        radio_config: Optional[RadioConfig] = None,
        mac_config: Optional[MacConfig] = None,
        base_station: int = 0,
    ):
        self.topology = topology
        self.config = config if config is not None else IpdaConfig()
        self.base_station = base_station
        self._streams = streams if streams is not None else RngStreams(seed)
        self._keys = key_scheme_factory(topology.node_count)
        self._constructed = False
        self._epoch = 0
        self._construction_bytes = 0
        self.history: List[EpochOutcome] = []

        def factory(node_id: int, network: Network) -> Node:
            cls = _IpdaBaseStation if node_id == base_station else _IpdaNode
            node = cls(node_id, network)
            node.config = self.config
            node.keys = self._keys
            node.base_station = base_station
            node.start_round()  # Phase I's: no reading and no report
            return node

        self.network = Network(
            topology,
            factory,
            streams=self._streams.spawn("epoched"),
            radio_config=radio_config,
            mac_config=mac_config,
        )
        self._root = self.network.node(base_station)
        assert isinstance(self._root, _IpdaBaseStation)

    # ------------------------------------------------------------------
    # Phase I (once)
    # ------------------------------------------------------------------
    def construct_trees(self) -> None:
        """Flood the twin HELLOs and let roles settle (Phase I)."""
        if self._constructed:
            raise ProtocolError("trees already constructed")
        self._root.start()
        self.network.run(until=self.config.timing.tree_construction_window)
        self.network.run()
        self._constructed = True
        self._construction_bytes = self.network.trace.total_bytes_sent

    @property
    def construction_bytes(self) -> int:
        """Bytes spent on the amortised Phase I."""
        return self._construction_bytes

    def covered(self) -> Set[int]:
        """Nodes that heard both colours during Phase I."""
        return self._root.tally().covered

    # ------------------------------------------------------------------
    # Phases II+III (per epoch)
    # ------------------------------------------------------------------
    def run_epoch(
        self,
        readings: Mapping[int, int],
        *,
        contributors: Optional[Set[int]] = None,
        polluters: Optional[Mapping[int, int]] = None,
    ) -> EpochOutcome:
        """Serve one query on the standing trees."""
        if not self._constructed:
            raise ProtocolError("construct_trees() must run first")
        if self.base_station in readings:
            raise ProtocolError("the base station does not produce a reading")
        epoch = self._epoch
        self._epoch += 1
        # Checkpoint the shared collector: the network (and its trace)
        # outlives the epoch, so per-epoch figures must be deltas.
        self.network.trace.begin_round()
        bytes_before = self.network.trace.total_bytes_sent
        magnitude = self.config.effective_magnitude(readings.values())
        pollution = dict(polluters) if polluters else {}

        timing = self.config.timing
        t_slice = self.network.engine.now + 0.001
        t_report = t_slice + timing.slicing_window + timing.assembly_guard
        nodes = list(self.network.iter_nodes())
        for node in nodes:
            node.start_round(
                readings,
                contributors,
                pollution,
                round_id=epoch,
                magnitude=magnitude,
                phase3_start=t_report,
            )
            if node.id != self.base_station:
                node.schedule_slicing(t_slice)
        # Queue every slicing start before drawing any report jitter.
        for node in nodes:
            if node.color is not None:
                node._schedule_report()
        self.network.run()

        participants = self._root.tally().participants
        verification = self._root.verdict(magnitude, len(participants))
        outcome = EpochOutcome(
            epoch=epoch,
            s_red=verification.s_red,
            s_blue=verification.s_blue,
            verification=verification,
            participants=participants,
            bytes_this_epoch=(
                self.network.trace.total_bytes_sent - bytes_before
            ),
            trace=self.network.trace.round_summary(),
        )
        self.history.append(outcome)
        return outcome


class RadioAggregationService:
    """Self-healing query service on a standing radio deployment.

    The radio counterpart of
    :class:`repro.core.session.AggregationSession`: serves query epochs
    on one :class:`EpochedIpdaSession`, and when rejections persist it
    bisects the covered aggregators with restricted-participation
    epochs (all over the real radio stack) until the persistent
    polluter is isolated, then excludes it from further epochs.  Both
    services share :class:`~repro.core.integrity.PolluterHunt`, so a
    degraded (loss-explained) epoch neither extends the rejection
    streak nor counts against a probe.

    ``compromised`` maps node ids to offsets injected in every epoch
    where the node aggregates.
    """

    def __init__(
        self,
        session: EpochedIpdaSession,
        *,
        compromised: Optional[Mapping[int, int]] = None,
        hunt_after: int = 2,
    ):
        self._hunt = PolluterHunt(hunt_after)
        self.session = session
        self.compromised: Dict[int, int] = dict(compromised or {})
        self.hunts: List[Dict[str, object]] = []

    @property
    def hunt_after(self) -> int:
        """Consecutive rejections that trigger the bisection hunt."""
        return self._hunt.hunt_after

    @property
    def excluded(self) -> Set[int]:
        """Nodes hunted down and barred from every later epoch."""
        return self._hunt.excluded

    def serve(self, readings: Mapping[int, int]) -> EpochOutcome:
        """Serve one query epoch; hunt + exclude on a rejection streak."""

        def run(contributors: Set[int]) -> EpochOutcome:
            polluters = {
                node: offset
                for node, offset in self.compromised.items()
                if node in contributors
            }
            return self.session.run_epoch(
                readings,
                contributors=contributors,
                polluters=polluters or None,
            )

        outcome = run(self._hunt.eligible(readings))
        hunt = self._hunt.observe(
            outcome.verification, readings, self.session.covered, run
        )
        if hunt is not None:
            culprit, probe_epochs = hunt
            self.hunts.append(
                {"culprit": culprit, "probe_epochs": probe_epochs}
            )
        return outcome


def amortized_messages_per_node(slices: int, epochs: int) -> float:
    """Per-epoch message budget with Phase I amortised over ``epochs``.

    ``(2l) + 1/epochs`` — converges to ``2l`` as the tree is reused.
    """
    if slices < 1 or epochs < 1:
        raise AnalysisError("need l >= 1 and epochs >= 1")
    return 2 * slices + 1 / epochs
