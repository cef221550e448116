"""PDA / SMART-style slicing-only aggregation (the paper's ref [11]).

The predecessor scheme iPDA tailors its slicing from: readings are cut
into ``l`` encrypted pieces scattered to neighbours, then a *single*
spanning tree aggregates the assembled values.  Privacy matches iPDA's
slicing, but there is no redundancy — a polluter on the lone tree is
undetectable.  Implemented here as an ablation baseline so the
benchmarks can separate the cost of privacy (slicing) from the cost of
integrity (the second tree).

The implementation reuses the TAG tree-construction/convergecast cycle
with a slicing phase in between.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Optional, Set

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
from .base import AggregationProtocol, RoundOutcome, validate_readings

__all__ = ["PdaParams", "PdaProtocol"]


@dataclass
class PdaParams:
    """Timing and slicing knobs for PDA rounds."""

    slices: int = 2
    hello_window: float = 10.0
    slicing_window: float = 10.0
    assembly_guard: float = 1.0
    slot: float = 2.0
    max_depth: int = 32
    forward_jitter: float = 0.2
    magnitude: Optional[int] = None

    def __post_init__(self) -> None:
        if self.slices < 1:
            raise ProtocolError("slices must be >= 1")
        if min(self.hello_window, self.slicing_window, self.slot) <= 0:
            raise ProtocolError("windows and slot must be positive")


class _PdaNode(Node):
    """A sensor running slicing-only PDA."""

    def __init__(self, node_id: int, network: Network):
        super().__init__(node_id, network)
        self.params = PdaParams()
        self.keys: Optional[KeyManagementScheme] = None
        self.round_id = 0
        self.reading = 0
        self.contributes = False
        self.parent: Optional[int] = None
        self.hops: Optional[int] = None
        self.assembler = SliceAssembler(node_id)
        self.child_sum = 0
        self.participant = False
        self._slice_seq = 0

    def on_receive(self, message: Message) -> None:
        if isinstance(message, HelloMessage):
            self._handle_hello(message)
        elif isinstance(message, SliceMessage):
            assert self.keys is not None
            key = self.keys.link_key(message.src, self.id)
            nonce = make_nonce(message.src, self.id, message.round_id, message.seq)
            self.assembler.receive(
                message.src, open_sealed(message.ciphertext, key, nonce)
            )
        elif isinstance(message, AggregateMessage):
            self.child_sum += message.value

    def _handle_hello(self, message: HelloMessage) -> None:
        if self.parent is not None:
            return
        self.parent = message.src
        self.hops = message.hops + 1
        jitter = float(self.rng.uniform(0.0, self.params.forward_jitter))
        self.schedule(
            jitter,
            lambda: self.send(
                HelloMessage(
                    src=self.id, dst=BROADCAST, hops=self.hops or 0,
                    round_id=self.round_id,
                )
            ),
        )
        self._schedule_report()

    # -- slicing ---------------------------------------------------------
    def begin_slicing(self) -> None:
        if not self.contributes or self.parent is None:
            return
        assert self.keys is not None
        candidates = sorted(
            nbr
            for nbr in self.neighbors()
            if self.keys.can_communicate(self.id, nbr)
        )
        remote_needed = self.params.slices - 1
        if len(candidates) < remote_needed:
            return
        self.participant = True
        magnitude = self.params.magnitude or max(4, 2 * abs(self.reading))
        pieces = slice_value(
            self.reading, self.params.slices, self.rng, magnitude=magnitude
        )
        self.assembler.keep(pieces[0])
        if remote_needed == 0:
            return
        picked = self.rng.choice(len(candidates), size=remote_needed, replace=False)
        targets = [candidates[int(i)] for i in sorted(picked)]
        window = 0.9 * self.params.slicing_window
        for target, piece in zip(targets, pieces[1:]):
            delay = float(self.rng.uniform(0.0, window))
            self.schedule(delay, self._slice_sender(target, piece))

    def _slice_sender(self, target: int, piece: int):
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
                    color=TreeColor.RED,  # single logical tree
                    seq=seq,
                    ciphertext=seal(piece, key, nonce),
                )
            )

        return fire

    # -- convergecast ------------------------------------------------------
    def _schedule_report(self) -> None:
        assert self.hops is not None
        start = (
            self.params.hello_window
            + self.params.slicing_window
            + self.params.assembly_guard
            + max(self.params.max_depth - self.hops, 0) * self.params.slot
            + float(self.rng.uniform(0.0, 0.8 * self.params.slot))
        )
        self.engine.schedule_at(max(start, self.now), self._guarded(self._report))

    def _report(self) -> None:
        if self.parent is None:
            return
        self.send(
            AggregateMessage(
                src=self.id,
                dst=self.parent,
                round_id=self.round_id,
                color=TreeColor.RED,
                value=self.assembler.assembled_value() + self.child_sum,
            )
        )


class _PdaBaseStation(_PdaNode):
    """Root of the single tree."""

    def start(self) -> None:
        self.hops = 0
        self.send(
            HelloMessage(src=self.id, dst=BROADCAST, hops=0, round_id=self.round_id)
        )

    def _handle_hello(self, message: HelloMessage) -> None:
        return

    @property
    def collected(self) -> int:
        return self.assembler.assembled_value() + self.child_sum


class PdaProtocol(AggregationProtocol):
    """Runner for slicing-only PDA rounds."""

    name = "pda"

    def __init__(
        self,
        params: Optional[PdaParams] = None,
        *,
        key_scheme_factory=PairwiseKeyScheme,
        radio_config: Optional[RadioConfig] = None,
        mac_config: Optional[MacConfig] = None,
        base_station: int = 0,
    ):
        self.params = params if params is not None else PdaParams()
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
    ) -> RoundOutcome:
        validate_readings(topology, readings, self.base_station)
        keys = self.key_scheme_factory(topology.node_count)
        magnitude = self.params.magnitude or max(
            4, 2 * max((abs(int(v)) for v in readings.values()), default=0)
        )
        round_params = replace(self.params, magnitude=magnitude)

        def factory(node_id: int, network: Network) -> Node:
            cls = _PdaBaseStation if node_id == self.base_station else _PdaNode
            node = cls(node_id, network)
            node.params = round_params
            node.keys = keys
            node.round_id = round_id
            node.reading = int(readings.get(node_id, 0))
            node.contributes = node_id != self.base_station and (
                contributors is None or node_id in contributors
            )
            return node

        with Network(
            topology,
            factory,
            streams=streams.spawn("pda", round_id),
            radio_config=self.radio_config,
            mac_config=self.mac_config,
        ) as network:
            root = network.node(self.base_station)
            assert isinstance(root, _PdaBaseStation)
            root.start()
            for node in network.iter_nodes():
                if node.id != self.base_station and isinstance(node, _PdaNode):
                    network.engine.schedule_at(
                        self.params.hello_window, _begin_slicing(node)
                    )
            horizon = (
                self.params.hello_window
                + self.params.slicing_window
                + self.params.assembly_guard
                + (self.params.max_depth + 2) * self.params.slot
            )
            network.run(until=horizon)
            network.run()

            participants = {
                node.id
                for node in network.iter_nodes()
                if isinstance(node, _PdaNode)
                and node.id != self.base_station
                and node.participant
            }
            return RoundOutcome(
                protocol=self.name,
                round_id=round_id,
                reported=root.collected,
                true_total=sum(int(v) for v in readings.values()),
                participant_total=sum(int(readings[i]) for i in participants),
                participants=participants,
                bytes_sent=network.trace.total_bytes_sent,
                frames_sent=network.trace.total_frames_sent,
                stats={
                    "sensor_count": topology.node_count - 1,
                    "slices": self.params.slices,
                    "loss_rate": network.trace.loss_rate(),
                    "sent_bytes_by_node": dict(
                        network.trace.sent_bytes_by_node
                    ),
                    "trace": network.trace.summary(),
                },
            )


def _begin_slicing(node: _PdaNode):
    def fire() -> None:
        node.begin_slicing()

    return fire
