"""Simulation tracing and byte accounting.

The evaluation compares protocols by total bytes on the air (Figure 7)
and per-node message counts (Figure 4), and the attacks need a record
of which frames crossed which links.  :class:`TraceCollector` gathers
all of that without the protocols having to know.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .messages import Message

__all__ = ["TraceCollector", "FrameRecord", "DropReason", "FaultEvent"]


class DropReason:
    """Why a frame failed to be delivered at a receiver."""

    COLLISION = "collision"
    HALF_DUPLEX = "half-duplex"
    RANDOM_LOSS = "random-loss"
    BURST_LOSS = "burst-loss"
    RECEIVER_DEAD = "receiver-dead"
    NO_RECEIVER = "no-receiver"


@dataclass(frozen=True, slots=True)
class FaultEvent:
    """One injected fault, as recorded by the fault layer.

    ``kind`` is ``"crash"``, ``"recovery"``, or ``"burst-loss-model"``;
    ``node`` is the affected node id (or -1 for channel-wide faults).
    """

    time: float
    kind: str
    node: int = -1


@dataclass(slots=True)
class FrameRecord:
    """One transmission attempt, as seen on the air.

    ``message`` is the frame itself — what a physical eavesdropper
    captures (ciphertext payloads included); retransmissions of the
    same frame share its ``frame_id``.
    """

    time: float
    kind: str
    src: int
    dst: int
    size_bytes: int
    message: Optional[Message] = None
    delivered_to: List[int] = field(default_factory=list)
    dropped_at: List[Tuple[int, str]] = field(default_factory=list)


class TraceCollector:
    """Accumulates counters and (optionally) a full frame log.

    Parameters
    ----------
    keep_frames:
        When true, every transmission is kept as a :class:`FrameRecord`
        (needed by the eavesdropper attack and debugging); counters are
        always kept.
    detail:
        ``"full"`` (default) keeps every counter, including the
        per-node and per-link breakdowns behind Figure 4 and the fault
        experiments.  ``"counters"`` keeps only the cheap aggregate
        counters (frames/bytes/deliveries/drops by kind), skipping the
        per-node dict updates on every frame — use it for throughput
        runs where only the totals matter.
    """

    def __init__(self, *, keep_frames: bool = False, detail: str = "full"):
        if detail not in ("full", "counters"):
            raise ValueError(
                f"detail must be 'full' or 'counters', got {detail!r}"
            )
        self.keep_frames = keep_frames
        self.detail = detail
        self._counters_only = detail == "counters"
        self.frames: List[FrameRecord] = []
        self.sent_count: Counter = Counter()  # kind -> frames sent
        self.sent_bytes: Counter = Counter()  # kind -> bytes sent
        self.sent_by_node: Counter = Counter()  # node -> frames sent
        self.sent_bytes_by_node: Counter = Counter()
        self.delivered_count: Counter = Counter()  # kind -> deliveries
        self.dropped_count: Counter = Counter()  # reason -> drops
        self.sent_kind_by_node: Dict[int, Counter] = defaultdict(Counter)
        self.received_kind_by_node: Dict[int, Counter] = defaultdict(Counter)
        #: (src, receiver) -> reason -> drops; lets fault experiments
        #: assert which links shed frames and why.
        self.dropped_by_link: Dict[Tuple[int, int], Counter] = defaultdict(
            Counter
        )
        #: injected faults (crashes, recoveries), in time order.
        self.fault_events: List[FaultEvent] = []
        self._round_checkpoint: Optional[Dict[str, object]] = None

    # ------------------------------------------------------------------
    # Recording (called by the radio layer)
    # ------------------------------------------------------------------
    def record_send(self, time: float, message: Message) -> Optional[FrameRecord]:
        """Record a transmission attempt; returns the record if kept."""
        kind = message.kind
        size = message.size_bytes
        self.sent_count[kind] += 1
        self.sent_bytes[kind] += size
        if not self._counters_only:
            src = message.src
            self.sent_by_node[src] += 1
            self.sent_bytes_by_node[src] += size
            self.sent_kind_by_node[src][kind] += 1
        if not self.keep_frames:
            return None
        record = FrameRecord(
            time=time,
            kind=kind,
            src=message.src,
            dst=message.dst,
            size_bytes=size,
            message=message,
        )
        self.frames.append(record)
        return record

    def record_delivery(
        self, record: Optional[FrameRecord], message: Message, receiver: int
    ) -> None:
        """Record a successful delivery of ``message`` at ``receiver``."""
        self.delivered_count[message.kind] += 1
        if not self._counters_only:
            self.received_kind_by_node[receiver][message.kind] += 1
        if record is not None:
            record.delivered_to.append(receiver)

    def record_delivery_batch(
        self,
        record: Optional[FrameRecord],
        message: Message,
        receivers: Sequence[int],
    ) -> None:
        """Record successful deliveries of one frame at many receivers.

        Equivalent to calling :meth:`record_delivery` once per receiver
        in sequence order, but a 10^4-neighbour broadcast does one
        aggregate counter update instead of 10^4 (the per-node
        breakdown, when kept, is still per-receiver by nature).
        """
        count = len(receivers)
        if count == 0:
            return
        kind = message.kind
        self.delivered_count[kind] += count
        if not self._counters_only:
            by_node = self.received_kind_by_node
            for receiver in receivers:
                by_node[receiver][kind] += 1
        if record is not None:
            record.delivered_to.extend(receivers)

    def record_drop(
        self,
        record: Optional[FrameRecord],
        message: Message,
        receiver: int,
        reason: str,
    ) -> None:
        """Record a failed delivery and its reason."""
        self.dropped_count[reason] += 1
        if not self._counters_only:
            self.dropped_by_link[(message.src, receiver)][reason] += 1
        if record is not None:
            record.dropped_at.append((receiver, reason))

    def record_drop_batch(
        self,
        record: Optional[FrameRecord],
        message: Message,
        drops: Sequence[Tuple[int, str]],
    ) -> None:
        """Record failed deliveries of one frame at many receivers.

        Equivalent to calling :meth:`record_drop` once per
        ``(receiver, reason)`` pair in sequence order — reason keys
        enter ``dropped_count`` in first-encounter order and the
        per-link breakdown is updated in pair order, so summaries are
        byte-identical to the sequential calls.  The batch form lets
        the radio's collision resolver account a whole ruined fan-out
        through one call instead of one per receiver.
        """
        if not drops:
            return
        src = message.src
        dropped_count = self.dropped_count
        if self._counters_only:
            for _receiver, reason in drops:
                dropped_count[reason] += 1
        else:
            by_link = self.dropped_by_link
            for receiver, reason in drops:
                dropped_count[reason] += 1
                by_link[(src, receiver)][reason] += 1
        if record is not None:
            record.dropped_at.extend(drops)

    def record_fault(self, time: float, kind: str, node: int = -1) -> None:
        """Record an injected fault (crash, recovery, ...)."""
        self.fault_events.append(FaultEvent(time=time, kind=kind, node=node))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def total_frames_sent(self) -> int:
        """Total transmission attempts across all kinds."""
        return sum(self.sent_count.values())

    @property
    def total_bytes_sent(self) -> int:
        """Total bytes on the air (the Figure 7 metric)."""
        return sum(self.sent_bytes.values())

    @property
    def total_drops(self) -> int:
        """Total failed deliveries across all reasons."""
        return sum(self.dropped_count.values())

    def messages_sent_by(self, node_id: int) -> int:
        """Frames transmitted by one node (the Figure 4 metric)."""
        return self.sent_by_node.get(node_id, 0)

    def link_drops(self, src: int, dst: int) -> int:
        """Total failed deliveries on one directed link."""
        return sum(self.dropped_by_link.get((src, dst), {}).values())

    def drops_at_node(self, node_id: int) -> int:
        """Failed deliveries where ``node_id`` was the receiver."""
        return sum(
            sum(reasons.values())
            for (_src, dst), reasons in self.dropped_by_link.items()
            if dst == node_id
        )

    def loss_rate(self) -> float:
        """Fraction of (frame, receiver) delivery attempts that failed."""
        delivered = sum(self.delivered_count.values())
        dropped = self.total_drops
        attempts = delivered + dropped
        if attempts == 0:
            return 0.0
        return dropped / attempts

    def summary(self) -> Dict[str, object]:
        """Return a plain-dict snapshot, convenient for tables/CSV."""
        return _summarize(
            self.sent_count,
            self.sent_bytes,
            self.delivered_count,
            self.dropped_count,
            self._link_totals(),
            len(self.fault_events),
        )

    def _link_totals(self) -> Dict[Tuple[int, int], int]:
        """Drops per directed link, over every reason."""
        return {
            link: sum(reasons.values())
            for link, reasons in self.dropped_by_link.items()
        }

    # ------------------------------------------------------------------
    # Per-round deltas
    # ------------------------------------------------------------------
    def begin_round(self) -> None:
        """Checkpoint the counters so :meth:`round_summary` is per-round.

        The collector lives as long as its :class:`Network`; multi-round
        sessions that reuse one network would otherwise read cumulative
        totals where a per-round figure is expected.  The per-link
        breakdown is checkpointed as one drop total per link: the
        summary reports nothing finer, so no per-reason counter is
        copied.
        """
        self._round_checkpoint = {
            "sent_count": Counter(self.sent_count),
            "sent_bytes": Counter(self.sent_bytes),
            "delivered_count": Counter(self.delivered_count),
            "dropped_count": Counter(self.dropped_count),
            "link_totals": self._link_totals(),
            "fault_events": len(self.fault_events),
        }

    def round_summary(self) -> Dict[str, object]:
        """:meth:`summary` restricted to activity since ``begin_round``.

        Before the first :meth:`begin_round` call this equals
        :meth:`summary` (the round is the whole history).
        """
        checkpoint = self._round_checkpoint
        if checkpoint is None:
            return self.summary()
        before = checkpoint["link_totals"]
        links = {}
        for link, total in self._link_totals().items():
            delta = total - before.get(link, 0)
            if delta:
                links[link] = delta
        return _summarize(
            self.sent_count - checkpoint["sent_count"],
            self.sent_bytes - checkpoint["sent_bytes"],
            self.delivered_count - checkpoint["delivered_count"],
            self.dropped_count - checkpoint["dropped_count"],
            links,
            len(self.fault_events) - checkpoint["fault_events"],
        )


def _summarize(
    sent_count: Counter,
    sent_bytes: Counter,
    delivered_count: Counter,
    dropped_count: Counter,
    link_drops: Dict[Tuple[int, int], int],
    fault_events: int,
) -> Dict[str, object]:
    delivered = sum(delivered_count.values())
    dropped = sum(dropped_count.values())
    attempts = delivered + dropped
    return {
        "frames_sent": sum(sent_count.values()),
        "bytes_sent": sum(sent_bytes.values()),
        "delivered": delivered,
        "dropped": dropped,
        "loss_rate": round(dropped / attempts, 6) if attempts else 0.0,
        "bytes_by_kind": dict(sent_bytes),
        "frames_by_kind": dict(sent_count),
        "drops_by_reason": dict(dropped_count),
        "drops_by_link": {
            f"{src}->{dst}": total
            for (src, dst), total in sorted(link_drops.items())
        },
        "lossiest_links": [
            (f"{src}->{dst}", total)
            for (src, dst), total in sorted(
                link_drops.items(), key=lambda item: (-item[1], item[0])
            )[:10]
        ],
        "fault_events": fault_events,
    }
