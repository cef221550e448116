"""TAG: Tiny AGgregation (Madden et al., OSDI'02) — the paper's baseline.

A single spanning tree rooted at the base station is built by a HELLO
flood (first HELLO heard wins as parent); aggregation then runs as a
depth-scheduled convergecast — nodes at hop ``h`` transmit their
partial sum in the epoch slot for depth ``h``, deepest first, exactly
as TAG divides its epoch.  No privacy, no integrity: each node sends
two frames per query (HELLO + partial result), the 2-message budget
Figure 4(a) shows.

Loss tolerance (``robustness=``, opt-in, mirroring iPDA's): partial
results become end-to-end acknowledged with bounded retransmissions
under jittered backoff; on exhausting the per-parent retry budget a
node fails over to the next strictly-shallower parent candidate it
heard during the HELLO flood.  Each partial result carries the node
ids it covers so merge points can drop re-delivered subtrees (an ACK
lost after delivery otherwise double-counts the whole branch).  The
default remains TAG's classic fire-and-forget convergecast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Set

from ..core.config import RobustnessConfig
from ..errors import ProtocolError
from ..net.topology import Topology
from ..sim.engine import ScheduledEvent
from ..sim.mac import MacConfig
from ..sim.messages import (
    BROADCAST,
    AckMessage,
    AggregateMessage,
    HelloMessage,
    Message,
)
from ..sim.network import Network
from ..sim.node import Node
from ..sim.radio import RadioConfig
from ..sim.rng import RngStreams
from .base import AggregationProtocol, RoundOutcome, validate_readings

__all__ = ["TagParams", "TagProtocol"]


@dataclass
class _PendingReport:
    """An unacknowledged partial result awaiting its end-to-end ACK."""

    message: AggregateMessage
    attempt: int
    tried: Set[int]
    timer: Optional[ScheduledEvent]


@dataclass
class TagParams:
    """Timing knobs for the TAG rounds.

    ``max_depth`` bounds the convergecast schedule: a node at hop ``h``
    transmits in slot ``max_depth - h`` so parents always listen after
    their children.
    """

    hello_window: float = 10.0
    slot: float = 2.0
    max_depth: int = 32
    forward_jitter: float = 0.2

    def __post_init__(self) -> None:
        if self.hello_window <= 0 or self.slot <= 0:
            raise ProtocolError("hello_window and slot must be positive")
        if self.max_depth < 1:
            raise ProtocolError("max_depth must be >= 1")


class _TagNode(Node):
    """A sensor running TAG."""

    def __init__(self, node_id: int, network: Network):
        super().__init__(node_id, network)
        self.parent: Optional[int] = None
        self.hops: Optional[int] = None
        self.reading = 0
        self.contributes = False
        self.child_sum = 0
        self.child_count = 0
        self.params: TagParams = TagParams()
        self.round_id = 0
        # --- loss-tolerant mode state (inert when robust is None) ---
        self.robust: Optional[RobustnessConfig] = None
        #: every HELLO heard, src -> best hops: the fail-over candidates.
        self.heard: Dict[int, int] = {}
        self._pending: Dict[int, _PendingReport] = {}
        self._seen_aggregates: Set[int] = set()
        #: node ids already folded into ``child_sum`` — the duplicate
        #: filter for fail-over paths.
        self._merged_origins: Set[int] = set()
        self._reported = False
        self.retries_used = 0
        self.reparent_count = 0

    # -- Phase 1: tree construction ------------------------------------
    def on_receive(self, message: Message) -> None:
        if isinstance(message, HelloMessage):
            self._handle_hello(message)
        elif isinstance(message, AggregateMessage):
            self._handle_aggregate(message)
        elif isinstance(message, AckMessage):
            state = self._pending.pop(message.ref, None)
            if state is not None and state.timer is not None:
                state.timer.cancel()

    def _handle_aggregate(self, message: AggregateMessage) -> None:
        if self.robust is not None:
            if message.frame_id in self._seen_aggregates:
                self._ack(message)  # duplicate: our ACK was lost, re-ACK
                return
            self._seen_aggregates.add(message.frame_id)
            self._ack(message)
            if self._merged_origins & set(message.origins):
                # A fail-over path re-delivered a branch we already
                # merged: drop it whole (values and counts go together,
                # so the root's coverage stays honest).
                return
            self._merged_origins.update(message.origins)
        self.child_sum += message.value
        self.child_count += message.contributor_count
        if (
            self.robust is not None
            and self._reported
            and self.parent is not None
        ):
            # Late child (it retried past our own report): forward its
            # contribution upstream as a supplemental partial result.
            self._send_report(
                AggregateMessage(
                    src=self.id,
                    dst=self.parent,
                    round_id=self.round_id,
                    value=message.value,
                    contributor_count=message.contributor_count,
                    origins=message.origins,
                ),
                1,
                {self.parent},
            )

    def _ack(self, message: Message) -> None:
        self.send(
            AckMessage(
                src=self.id,
                dst=message.src,
                round_id=self.round_id,
                ref=message.frame_id,
            )
        )

    def _handle_hello(self, message: HelloMessage) -> None:
        if self.robust is not None:
            best = self.heard.get(message.src)
            if best is None or message.hops < best:
                self.heard[message.src] = message.hops
        if self.parent is not None:
            return
        self.parent = message.src
        self.hops = message.hops + 1
        jitter = float(self.rng.uniform(0.0, self.params.forward_jitter))
        self.schedule(jitter, self._forward_hello)
        self._schedule_report()

    def _forward_hello(self) -> None:
        self.send(
            HelloMessage(
                src=self.id, dst=BROADCAST, hops=self.hops or 0,
                round_id=self.round_id,
            )
        )

    # -- Phase 2: depth-scheduled convergecast -------------------------
    def _schedule_report(self) -> None:
        assert self.hops is not None
        depth_slot = max(self.params.max_depth - self.hops, 0)
        start = (
            self.params.hello_window
            + depth_slot * self.params.slot
            + float(self.rng.uniform(0.0, 0.8 * self.params.slot))
        )
        self.engine.schedule_at(max(start, self.now), self._guarded(self._report))

    def _report(self) -> None:
        if self.parent is None:
            return
        own = self.reading if self.contributes else 0
        own_count = 1 if self.contributes else 0
        origins = (
            tuple(sorted({self.id} | self._merged_origins))
            if self.robust is not None
            else ()
        )
        message = AggregateMessage(
            src=self.id,
            dst=self.parent,
            round_id=self.round_id,
            value=own + self.child_sum,
            contributor_count=own_count + self.child_count,
            origins=origins,
        )
        self._reported = True
        self._send_report(message, 1, {self.parent})

    def _send_report(
        self, message: AggregateMessage, attempt: int, tried: Set[int]
    ) -> None:
        self.send(message)
        if self.robust is None:
            return
        frame_id = message.frame_id
        # Unguarded, so a timeout that comes due while this node is down
        # still drops its record (which would otherwise hold the node
        # in a cycle through the timer's callback).
        timer = self.engine.schedule(
            self.robust.report_ack_timeout,
            lambda: self._report_timeout(frame_id),
        )
        self._pending[frame_id] = _PendingReport(
            message=message, attempt=attempt, tried=set(tried), timer=timer
        )

    def _report_timeout(self, frame_id: int) -> None:
        """Retry the partial result; after the per-parent cap, fail over."""
        robust = self.robust
        state = self._pending.pop(frame_id, None)
        if state is None or robust is None or not self.alive:
            return  # settled, or due while down: the timer is lost
        self.retries_used += 1
        jitter = float(self.rng.uniform(0.5, 1.5))
        delay = jitter * robust.retry_backoff * (2 ** (state.attempt - 1))
        if state.attempt < robust.report_retry_limit:
            # Same frame, same parent: duplicates dedup by frame_id.
            self.schedule(
                delay,
                lambda: self._send_report(
                    state.message, state.attempt + 1, state.tried
                ),
            )
            return
        backup = self._backup_parent(state.tried)
        if backup is None:
            return  # no shallower candidate left; this subtree is cut off
        self.reparent_count += 1
        self.parent = backup
        fresh = AggregateMessage(
            src=self.id,
            dst=backup,
            round_id=state.message.round_id,
            value=state.message.value,
            contributor_count=state.message.contributor_count,
            origins=state.message.origins,
        )
        self.schedule(
            delay,
            lambda: self._send_report(fresh, 1, state.tried | {backup}),
        )

    def _backup_parent(self, tried: Set[int]) -> Optional[int]:
        """Next untried HELLO source strictly shallower than this node.

        Strict shallowness keeps fail-over acyclic: a re-routed partial
        result always moves toward the base station.
        """
        if self.hops is None:
            return None
        candidates = [
            src
            for src, hops in self.heard.items()
            if hops < self.hops and src not in tried
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda s: (self.heard[s], s))


class _TagBaseStation(_TagNode):
    """The root: floods the HELLO and keeps the final sums."""

    def __init__(self, node_id: int, network: Network):
        super().__init__(node_id, network)
        #: when the last partial result arrived — the round's latency.
        self.last_result_time = 0.0

    def on_receive(self, message: Message) -> None:
        super().on_receive(message)
        if isinstance(message, AggregateMessage):
            self.last_result_time = self.now

    def start(self) -> None:
        self.hops = 0
        self.send(HelloMessage(src=self.id, dst=BROADCAST, hops=0,
                               round_id=self.round_id))

    def _handle_hello(self, message: HelloMessage) -> None:
        return  # the root never re-parents

    @property
    def collected(self) -> int:
        return self.child_sum


class TagProtocol(AggregationProtocol):
    """Runner for TAG rounds over the full radio stack."""

    name = "tag"

    def __init__(
        self,
        params: Optional[TagParams] = None,
        *,
        radio_config: Optional[RadioConfig] = None,
        mac_config: Optional[MacConfig] = None,
        base_station: int = 0,
        robustness: Optional[RobustnessConfig] = None,
    ):
        self.params = params if params is not None else TagParams()
        self.radio_config = radio_config
        self.mac_config = mac_config
        self.base_station = base_station
        #: opt-in ACK'd convergecast; None keeps classic fire-and-forget.
        self.robustness = robustness

    def run_round(
        self,
        topology: Topology,
        readings: Mapping[int, int],
        *,
        streams: RngStreams,
        round_id: int = 0,
        contributors: Optional[Set[int]] = None,
        fault_plan=None,
    ) -> RoundOutcome:
        """Run one TAG round; ``fault_plan`` injects crashes/burst loss."""
        validate_readings(topology, readings, self.base_station)

        def factory(node_id: int, network: Network) -> Node:
            cls = _TagBaseStation if node_id == self.base_station else _TagNode
            node = cls(node_id, network)
            node.params = self.params
            node.robust = self.robustness
            node.round_id = round_id
            node.reading = int(readings.get(node_id, 0))
            node.contributes = node_id != self.base_station and (
                contributors is None or node_id in contributors
            )
            return node

        with Network(
            topology,
            factory,
            streams=streams.spawn("tag", round_id),
            radio_config=self.radio_config,
            mac_config=self.mac_config,
            fault_plan=fault_plan,
        ) as network:
            root = network.node(self.base_station)
            assert isinstance(root, _TagBaseStation)
            root.start()
            horizon = (
                self.params.hello_window
                + (self.params.max_depth + 2) * self.params.slot
            )
            network.run(until=horizon)
            network.run()  # drain any MAC backoff tails

            joined = {
                node.id
                for node in network.iter_nodes()
                if isinstance(node, _TagNode)
                and node.id != self.base_station
                and node.parent is not None
            }
            eligible = (
                contributors if contributors is not None else set(readings)
            )
            participants = joined & set(eligible)
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
                    "tree_size": len(joined),
                    "contributor_count_reported": root.child_count,
                    "coverage": (
                        root.child_count / max(len(eligible), 1)
                    ),
                    "retries_used": sum(
                        node.retries_used
                        for node in network.iter_nodes()
                        if isinstance(node, _TagNode)
                    ),
                    "reparent_count": sum(
                        node.reparent_count
                        for node in network.iter_nodes()
                        if isinstance(node, _TagNode)
                    ),
                    "loss_rate": network.trace.loss_rate(),
                    "sent_bytes_by_node": dict(
                        network.trace.sent_bytes_by_node
                    ),
                    "latency": root.last_result_time,
                    "trace": network.trace.summary(),
                },
            )
