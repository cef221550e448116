"""m-tree iPDA over the full radio stack (Section III-B's m > 2).

The logical m-tree pipeline lives in :mod:`repro.core.multitree`; this
module runs the same generalisation through the real simulator — HELLO
floods for m colours, m independent cuts per reading (``m*l - 1``
transmissions per aggregator), m parallel convergecasts, and
majority-vote verification at the base station, which *tolerates*
minority pollution when m ≥ 3.

With ``tree_count=2`` the behaviour coincides with
:class:`repro.protocols.ipda.IpdaProtocol` (modulo random draws), which
the tests cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..core.config import IpdaConfig
from ..core.multitree import MultiTreeVerification
from ..core.slicing import SliceAssembler, slice_value
from ..crypto.envelope import make_nonce, open_sealed, seal
from ..crypto.keys import KeyManagementScheme, PairwiseKeyScheme
from ..errors import ProtocolError
from ..net.topology import Topology
from ..sim.mac import MacConfig
from ..sim.messages import (
    BROADCAST,
    AggregateMessage,
    HelloMessage,
    Message,
    SliceMessage,
    TreeColor,
)
from ..sim.network import Network
from ..sim.node import Node
from ..sim.radio import RadioConfig
from ..sim.rng import RngStreams
from .base import validate_readings
from .ipda import MAX_DEPTH_SLOTS

__all__ = ["MipdaOutcome", "MipdaProtocol"]


@dataclass
class MipdaOutcome:
    """One m-tree round's result."""

    round_id: int
    colors: Tuple[TreeColor, ...]
    sums: List[int]
    verification: MultiTreeVerification
    participants: Set[int] = field(default_factory=set)
    covered: Set[int] = field(default_factory=set)
    true_total: int = 0
    participant_total: int = 0
    bytes_sent: int = 0
    frames_sent: int = 0
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        """A strict majority of trees agrees."""
        return self.verification.accepted

    @property
    def reported(self) -> Optional[int]:
        """The majority value, or None without a majority."""
        if not self.verification.accepted:
            return None
        return self.verification.accepted_value

    @property
    def polluted_trees(self) -> List[TreeColor]:
        """Colours voted out of the majority."""
        return [self.colors[i] for i in self.verification.polluted_trees]


class _MipdaNode(Node):
    """A sensor running m-tree iPDA."""

    def __init__(self, node_id: int, network: Network):
        super().__init__(node_id, network)
        self.config: IpdaConfig = IpdaConfig()
        self.colors: Tuple[TreeColor, ...] = TreeColor.palette(2)
        self.keys: Optional[KeyManagementScheme] = None
        self.round_id = 0
        self.reading = 0
        self.contributes = False
        self.pollution_offset = 0
        self.magnitude = 4
        self.base_station = 0

        self.heard: Dict[TreeColor, Dict[int, int]] = {}
        self.color: Optional[TreeColor] = None
        self.parent: Optional[int] = None
        self.hops: Optional[int] = None
        self.decided = False
        self._decision_pending = False
        self.participant = False
        self.assemblers: Dict[TreeColor, SliceAssembler] = {}
        self.child_sum: Dict[TreeColor, int] = {}
        self._slice_seq = 0

    def configure(self, colors: Tuple[TreeColor, ...]) -> None:
        """Install the colour palette before the round starts."""
        self.colors = colors
        self.heard = {color: {} for color in colors}
        self.child_sum = {color: 0 for color in colors}

    # ------------------------------------------------------------------
    def on_receive(self, message: Message) -> None:
        if isinstance(message, HelloMessage):
            self._handle_hello(message)
        elif isinstance(message, SliceMessage):
            self._handle_slice(message)
        elif isinstance(message, AggregateMessage):
            self._handle_aggregate(message)

    # -- Phase I ---------------------------------------------------------
    def _handle_hello(self, message: HelloMessage) -> None:
        if message.color is None or message.color not in self.heard:
            return
        table = self.heard[message.color]
        if message.src not in table or message.hops < table[message.src]:
            table[message.src] = message.hops
        if self.decided or self._decision_pending:
            return
        if all(self.heard[color] for color in self.colors):
            self._decision_pending = True
            self.schedule(
                self.config.timing.role_decision_delay, self._decide
            )

    def _decide(self) -> None:
        if self.decided:
            return
        self.decided = True
        index = int(self.rng.integers(0, len(self.colors)))
        self.color = self.colors[index]
        own_heard = self.heard[self.color]
        self.parent = min(own_heard, key=lambda a: (own_heard[a], a))
        self.hops = own_heard[self.parent] + 1
        self.assemblers[self.color] = SliceAssembler(self.id)
        self.send(
            HelloMessage(
                src=self.id,
                dst=BROADCAST,
                color=self.color,
                hops=self.hops,
                round_id=self.round_id,
            )
        )
        self._schedule_report()

    # -- Phase II ----------------------------------------------------------
    def begin_slicing(self) -> None:
        """Cut the reading m ways and scatter the pieces."""
        if not self.contributes:
            return
        assert self.keys is not None
        candidate_lists: Dict[TreeColor, List[int]] = {}
        for color in self.colors:
            options = [
                aggregator
                for aggregator in self.heard[color]
                if aggregator != self.id
                and self.keys.can_communicate(self.id, aggregator)
            ]
            needed = (
                self.config.slices - 1
                if color is self.color
                else self.config.slices
            )
            if len(options) < needed:
                return  # factor (b): sit out
            candidate_lists[color] = sorted(options)
        self.participant = True
        window = 0.9 * self.config.timing.slicing_window
        for color in self.colors:
            cut = slice_value(
                self.reading,
                self.config.slices,
                self.rng,
                magnitude=self.magnitude,
            )
            if color is self.color:
                self.assemblers[color].keep(cut[0])
                pieces = cut[1:]
            else:
                pieces = cut
            options = candidate_lists[color]
            picked = self.rng.choice(
                len(options), size=len(pieces), replace=False
            )
            for piece, option_index in zip(pieces, sorted(picked)):
                target = options[int(option_index)]
                delay = float(self.rng.uniform(0.0, window))
                self.schedule(
                    delay, self._slice_sender(target, piece, color)
                )

    def _slice_sender(self, target: int, piece: int, color: TreeColor):
        def fire() -> None:
            assert self.keys is not None
            self._slice_seq += 1
            seq = self._slice_seq
            nonce = make_nonce(self.id, target, self.round_id, seq)
            key = self.keys.link_key(self.id, target)
            self.send(
                SliceMessage(
                    src=self.id,
                    dst=target,
                    round_id=self.round_id,
                    color=color,
                    seq=seq,
                    ciphertext=seal(piece, key, nonce),
                )
            )

        return fire

    def _handle_slice(self, message: SliceMessage) -> None:
        if message.color is None:
            raise ProtocolError("slice without a colour tag")
        assembler = self.assemblers.get(message.color)
        if assembler is None:
            return
        assert self.keys is not None
        key = self.keys.link_key(message.src, self.id)
        nonce = make_nonce(message.src, self.id, message.round_id, message.seq)
        assembler.receive(
            message.src, open_sealed(message.ciphertext, key, nonce)
        )

    # -- Phase III -----------------------------------------------------------
    def _schedule_report(self) -> None:
        assert self.hops is not None
        timing = self.config.timing
        start = (
            timing.tree_construction_window
            + timing.slicing_window
            + timing.assembly_guard
        )
        when = (
            start
            + max(MAX_DEPTH_SLOTS - self.hops, 0) * timing.aggregation_slot
            + float(self.rng.uniform(0.0, 0.8 * timing.aggregation_slot))
        )
        self.engine.schedule_at(max(when, self.now), self._guarded(self._report))

    def _report(self) -> None:
        if self.color is None or self.parent is None:
            return
        value = (
            self.assemblers[self.color].assembled_value()
            + self.child_sum[self.color]
            + self.pollution_offset
        )
        self.send(
            AggregateMessage(
                src=self.id,
                dst=self.parent,
                round_id=self.round_id,
                color=self.color,
                value=value,
            )
        )

    def _handle_aggregate(self, message: AggregateMessage) -> None:
        if message.color is not self.color:
            return
        self.child_sum[message.color] += message.value

    @property
    def is_covered(self) -> bool:
        """Heard at least one aggregator of every colour."""
        return all(self.heard[color] for color in self.colors)


class _MipdaBaseStation(_MipdaNode):
    """Root of all m trees."""

    def configure(self, colors: Tuple[TreeColor, ...]) -> None:
        super().configure(colors)
        self.decided = True
        self.assemblers = {
            color: SliceAssembler(self.id) for color in colors
        }

    def start(self) -> None:
        """Flood one HELLO per colour."""
        for color in self.colors:
            self.send(
                HelloMessage(
                    src=self.id,
                    dst=BROADCAST,
                    color=color,
                    hops=0,
                    round_id=self.round_id,
                )
            )

    def _handle_hello(self, message: HelloMessage) -> None:
        return

    def _handle_aggregate(self, message: AggregateMessage) -> None:
        if message.color is None or message.color not in self.child_sum:
            raise ProtocolError("m-iPDA aggregate with unknown colour")
        self.child_sum[message.color] += message.value

    def tree_sum(self, color: TreeColor) -> int:
        """``S_color`` at the root."""
        return self.assemblers[color].assembled_value() + self.child_sum[color]


class MipdaProtocol:
    """Runner for m-tree iPDA rounds over the full radio stack."""

    name = "mipda"

    def __init__(
        self,
        tree_count: int = 3,
        config: Optional[IpdaConfig] = None,
        *,
        key_scheme_factory=PairwiseKeyScheme,
        radio_config: Optional[RadioConfig] = None,
        mac_config: Optional[MacConfig] = None,
        base_station: int = 0,
    ):
        self.colors = TreeColor.palette(tree_count)
        self.tree_count = tree_count
        self.config = config if config is not None else IpdaConfig()
        self.key_scheme_factory = key_scheme_factory
        self.radio_config = radio_config
        self.mac_config = mac_config
        self.base_station = base_station

    def run_round(
        self,
        topology: Topology,
        readings: Mapping[int, int],
        *,
        streams: RngStreams,
        round_id: int = 0,
        contributors: Optional[Set[int]] = None,
        polluters: Optional[Mapping[int, int]] = None,
    ) -> MipdaOutcome:
        """Run one m-tree round and majority-verify the sums."""
        validate_readings(topology, readings, self.base_station)
        keys = self.key_scheme_factory(topology.node_count)
        magnitude = self.config.effective_magnitude(readings.values())
        pollution = dict(polluters) if polluters else {}

        def factory(node_id: int, network: Network) -> Node:
            cls = (
                _MipdaBaseStation
                if node_id == self.base_station
                else _MipdaNode
            )
            node = cls(node_id, network)
            node.config = self.config
            node.keys = keys
            node.round_id = round_id
            node.magnitude = magnitude
            node.base_station = self.base_station
            node.configure(self.colors)
            node.reading = int(readings.get(node_id, 0))
            node.contributes = node_id != self.base_station and (
                contributors is None or node_id in contributors
            )
            node.pollution_offset = int(pollution.get(node_id, 0))
            return node

        with Network(
            topology,
            factory,
            streams=streams.spawn("mipda", self.tree_count, round_id),
            radio_config=self.radio_config,
            mac_config=self.mac_config,
        ) as network:
            root = network.node(self.base_station)
            assert isinstance(root, _MipdaBaseStation)
            timing = self.config.timing
            t_slice = timing.tree_construction_window
            horizon = (
                t_slice
                + timing.slicing_window
                + timing.assembly_guard
                + (MAX_DEPTH_SLOTS + 2) * timing.aggregation_slot
            )
            root.start()
            for node in network.iter_nodes():
                if node.id != self.base_station and isinstance(
                    node, _MipdaNode
                ):
                    network.engine.schedule_at(t_slice, _starter(node))
            network.run(until=horizon)
            network.run()

            sums = [root.tree_sum(color) for color in self.colors]
            verification = MultiTreeVerification(
                sums=sums, threshold=self.config.threshold
            )
            participants = {
                node.id
                for node in network.iter_nodes()
                if isinstance(node, _MipdaNode)
                and node.id != self.base_station
                and node.participant
            }
            covered = {
                node.id
                for node in network.iter_nodes()
                if isinstance(node, _MipdaNode)
                and node.id != self.base_station
                and node.is_covered
            }
            return MipdaOutcome(
                round_id=round_id,
                colors=self.colors,
                sums=sums,
                verification=verification,
                participants=participants,
                covered=covered,
                true_total=sum(int(v) for v in readings.values()),
                participant_total=sum(int(readings[i]) for i in participants),
                bytes_sent=network.trace.total_bytes_sent,
                frames_sent=network.trace.total_frames_sent,
                stats={
                    "sensor_count": topology.node_count - 1,
                    "aggregators_by_color": {
                        color.value: sum(
                            1
                            for node in network.iter_nodes()
                            if isinstance(node, _MipdaNode)
                            and node.color is color
                        )
                        for color in self.colors
                    },
                    "loss_rate": network.trace.loss_rate(),
                    "trace": network.trace.summary(),
                },
            )


def _starter(node: _MipdaNode):
    def fire() -> None:
        node.begin_slicing()

    return fire
