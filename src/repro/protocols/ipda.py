"""iPDA over the full radio stack (Sections III-B/C/D end to end).

Phase I — the base station floods HELLOs as an aggregator of every
colour; a node that has heard every colour waits
``role_decision_delay`` collecting more HELLOs, elects its role
(Equations 1–2), picks the shallowest same-colour aggregator as parent
and, if it became an aggregator, re-broadcasts the HELLO.

Phase II — every participating node cuts its reading once per colour,
link-encrypts each piece under the key-management scheme, and scatters
the pieces to ``l`` aggregators of each colour over the slicing window;
aggregators decrypt and assemble ``r(j)``.

Phase III — each tree runs a depth-scheduled convergecast of the
assembled values; the base station compares ``S_red`` and ``S_blue``
and accepts iff they agree within ``Th``.

The colours are a palette: red and blue here, m colours for Section
III-B's m > 2 trees, which :mod:`repro.protocols.mipda` runs on these
same nodes.

Attack hooks: ``polluters`` adds an offset to a node's outgoing
intermediate result (data-pollution, Section II-C); ``contributors``
restricts which sensors inject their reading (the bisection hook for
polluter localisation).

Loss tolerance (``IpdaConfig.robustness``, opt-in): slices and reports
become end-to-end acknowledged.  A slice that times out is resent to
the *same* aggregator under jittered exponential backoff — never to a
different one, because a piece whose delivery the sender cannot
confirm may have arrived, and re-scattering it elsewhere would count
it twice; if the target is truly dead the piece dies with the target's
assembler either way, which the piece accounting reports honestly.  A
report that exhausts its retries re-parents to a strictly shallower
same-colour aggregator heard in Phase I (shallower = no cycles); to
keep that duplicate-safe, every aggregate carries the origin
aggregator ids it folds in and merge points drop aggregates whose
origins they have already merged.  Child aggregates arriving after a
node already reported are forwarded upstream as supplemental reports.
Piece counts ride along with the sums so the base station can degrade
gracefully under benign loss instead of rejecting (see
:mod:`repro.core.integrity`).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from types import MappingProxyType
from typing import Dict, Iterator, Mapping, Optional, Set, Tuple

from ..core.config import IpdaConfig, RobustnessConfig
from ..core.integrity import VerificationResult, verify_round
from ..core.slicing import SliceAssembler, plan_slices, schedule_fanout
from ..core.trees import elect_color
from ..crypto.envelope import make_nonce, open_sealed, seal_batch
from ..crypto.keys import KeyManagementScheme, PairwiseKeyScheme
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
    SliceMessage,
    TreeColor,
)
from ..sim.network import Network
from ..sim.node import Node
from ..sim.radio import RadioConfig
from ..sim.rng import RngStreams
from .base import AggregationProtocol, RoundOutcome, validate_readings

__all__ = ["IpdaOutcome", "IpdaProtocol"]

#: Convergecast depth bound (slots), mirroring TAG's epoch division.
MAX_DEPTH_SLOTS = 32

#: the paper's two trees
_BOTH = TreeColor.palette(2)
_NOTHING: Mapping[int, int] = MappingProxyType({})


@dataclass
class _PendingSend:
    """An unacknowledged transfer awaiting its end-to-end ACK."""

    message: Message
    attempt: int
    tried: Set[int]
    timer: Optional[ScheduledEvent]
    piece: int = 0  # slice transfers only: the plaintext piece


@dataclass(slots=True)
class _RoundState:
    """Everything an iPDA node holds for one round; replaced each round.

    The runner's inputs sit next to what the round accumulates, so a
    new round is one assignment and nothing can leak into the next.
    Phase I tree state and lifetime fields (keys, ``_slice_seq``) stay
    on the node.  Per-colour fields hold one entry per palette colour.
    """

    round_id: int
    reading: int
    contributes: bool
    magnitude: int
    pollution_offset: int
    #: when Phase III starts; None schedules no report (the standing
    #: trees' construction, whose epochs schedule their own).
    phase3_start: Optional[float]
    assemblers: Dict[TreeColor, SliceAssembler]
    child_sum: Dict[TreeColor, int]
    #: cumulative slice-piece counts received from children's reports.
    child_pieces: Dict[TreeColor, int]
    #: origin aggregators already folded into ``child_sum`` — the
    #: duplicate filter for fail-over paths.
    merged_origins: Dict[TreeColor, Set[int]]
    participant: bool = False
    # --- loss-tolerant mode (inert when robustness is None) ---
    pending_slices: Dict[int, _PendingSend] = field(default_factory=dict)
    pending_reports: Dict[int, _PendingSend] = field(default_factory=dict)
    seen_slices: Set[Tuple[int, int]] = field(default_factory=set)
    seen_aggregates: Set[int] = field(default_factory=set)
    reported: bool = False
    retries_used: int = 0
    reparent_count: int = 0
    #: base station: when the last partial result arrived (the latency).
    last_result_time: float = 0.0


@dataclass
class _Tally:
    """What the base station counts over a finished round's nodes."""

    aggregators: Dict[TreeColor, int]
    participants: Set[int] = field(default_factory=set)
    covered: Set[int] = field(default_factory=set)
    blacklisting: int = 0
    retries_used: int = 0
    reparent_count: int = 0


@dataclass
class IpdaOutcome(RoundOutcome):
    """A :class:`RoundOutcome` extended with iPDA's dual-tree results."""

    s_red: int = 0
    s_blue: int = 0
    verification: Optional[VerificationResult] = None
    covered: Set[int] = field(default_factory=set)

    @property
    def accepted(self) -> bool:
        """Did the base station accept the round?"""
        return self.verification is not None and self.verification.accepted

    @property
    def degraded(self) -> bool:
        """Did the round land in the loss-explained degraded band?"""
        return self.verification is not None and self.verification.degraded

    @property
    def outcome(self) -> str:
        """``"accepted"``, ``"degraded"``, or ``"rejected"``."""
        if self.verification is None:
            return "rejected"
        return self.verification.outcome


class _IpdaNode(Node):
    """A sensor running iPDA; whoever builds it starts its first round."""

    round: _RoundState

    def __init__(self, node_id: int, network: Network, colors=_BOTH):
        super().__init__(node_id, network)
        self.config: IpdaConfig = IpdaConfig()
        self.keys: Optional[KeyManagementScheme] = None
        self.base_station = 0
        self.colors = colors  # the deployment's palette

        self.heard: Dict[TreeColor, Dict[int, int]] = {
            color: {} for color in colors
        }
        #: neighbours caught announcing two colours (Section III-B: the
        #: shared medium makes the duplicity visible; such nodes are
        #: excluded from every tree).
        self.blacklist: Set[int] = set()
        #: the first colour each neighbour announced.
        self._hello_colors: Dict[int, TreeColor] = {}
        self.color: Optional[TreeColor] = None
        self.parent: Optional[int] = None
        self.hops: Optional[int] = None
        self.decided = False
        self._decision_pending = False
        self.mismatched_aggregates = 0
        #: lifetime slice counter, so nonces and slice dedup keys never
        #: repeat across rounds.
        self._slice_seq = 0

    def _new_assemblers(self) -> Dict[TreeColor, SliceAssembler]:
        """Fresh assemblers for the colours this node aggregates."""
        if self.color is None:
            return {}
        return {self.color: SliceAssembler(self.id)}

    def start_round(
        self,
        readings: Mapping[int, int] = _NOTHING,
        contributors: Optional[Set[int]] = None,
        polluters: Mapping[int, int] = _NOTHING,
        *,
        round_id: int = 0,
        magnitude: int = 4,
        phase3_start: Optional[float] = None,
    ) -> None:
        """Begin a round: every per-round field is replaced at once.

        The node contributes when it has a reading and ``contributors``
        (None: everyone) includes it.  The defaults start the round of
        a standing deployment's Phase I: no reading and no report.
        """
        node_id = self.id
        colors = self.colors
        self.round = _RoundState(
            round_id=round_id,
            reading=int(readings.get(node_id, 0)),
            contributes=node_id in readings
            and (contributors is None or node_id in contributors),
            magnitude=magnitude,
            pollution_offset=int(polluters.get(node_id, 0)),
            phase3_start=phase3_start,
            assemblers=self._new_assemblers(),
            child_sum=dict.fromkeys(colors, 0),
            child_pieces=dict.fromkeys(colors, 0),
            merged_origins={color: set() for color in colors},
        )

    @property
    def retries_used(self) -> int:
        """Protocol-level retries this round (the benchmark reads it)."""
        return self.round.retries_used

    @property
    def robust(self) -> Optional[RobustnessConfig]:
        """The loss-tolerance knobs, or None in fire-and-forget mode."""
        return self.config.robustness

    def _backoff(self, attempt: int) -> float:
        """Jittered exponential backoff before protocol retry ``attempt``."""
        assert self.robust is not None
        jitter = float(self.rng.uniform(0.5, 1.5))
        return jitter * self.robust.retry_backoff * (2 ** (attempt - 1))

    def _ack(self, message: Message) -> None:
        """Acknowledge ``message`` end to end (loss-tolerant mode)."""
        self.send(
            AckMessage(
                src=self.id,
                dst=message.src,
                round_id=self.round.round_id,
                color=getattr(message, "color", None),
                ref=message.frame_id,
            )
        )

    # ------------------------------------------------------------------
    # Receive dispatch
    # ------------------------------------------------------------------
    def on_receive(self, message: Message) -> None:
        if isinstance(message, HelloMessage):
            self._handle_hello(message)
        elif isinstance(message, SliceMessage):
            self._handle_slice(message)
        elif isinstance(message, AggregateMessage):
            self._handle_aggregate(message)
        elif isinstance(message, AckMessage):
            self._handle_ack(message)

    def _handle_ack(self, message: AckMessage) -> None:
        """Settle the pending transfer the ACK references."""
        pending = self.round.pending_slices.pop(message.ref, None)
        if pending is None:
            pending = self.round.pending_reports.pop(message.ref, None)
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()

    # ------------------------------------------------------------------
    # Phase I: role election and tree joining
    # ------------------------------------------------------------------
    def _handle_hello(self, message: HelloMessage) -> None:
        if message.color is None:
            raise ProtocolError("iPDA HELLO must carry a colour")
        if message.src in self.blacklist:
            return
        # Two-faced detection (Section III-B): the same neighbour
        # announcing two colours is an adversary trying to sit on two
        # trees; the shared medium makes the duplicity visible.  The
        # base station legitimately roots every tree.
        if message.src != self.base_station:
            first = self._hello_colors.setdefault(message.src, message.color)
            if first is not message.color:
                self.blacklist.add(message.src)
                for table in self.heard.values():
                    table.pop(message.src, None)
                if self.parent == message.src and self.color is not None:
                    self._repick_parent()
                return
        table = self.heard[message.color]
        if message.src not in table or message.hops < table[message.src]:
            table[message.src] = message.hops
        if self.decided or self._decision_pending:
            return
        if self.is_covered:
            self._decision_pending = True
            self.schedule(self.config.timing.role_decision_delay, self._decide)

    def _repick_parent(self) -> None:
        """Re-parent after the current parent was blacklisted."""
        assert self.color is not None
        own_heard = self.heard[self.color]
        if own_heard:
            self.parent = min(own_heard, key=lambda a: (own_heard[a], a))
            self.hops = own_heard[self.parent] + 1
        else:
            self.parent = None  # orphaned: this subtree's data is lost

    def _decide(self) -> None:
        if self.decided:
            return
        if not self.is_covered:
            # A blacklisting emptied a colour's table after the timer
            # was armed: wait for a HELLO that restores every colour.
            self._decision_pending = False
            return
        self.decided = True
        self._elect()

    def _elect(self) -> None:
        """Draw this node's role (:func:`elect_color`) and join its tree."""
        color = elect_color(
            self.heard,
            mode=self.config.role_mode,
            budget=self.config.aggregator_budget,
            rng=self.rng,
        )
        if color is not None:
            self._join(color, (color,))

    def _join(self, color: TreeColor, announce: Tuple[TreeColor, ...]) -> None:
        """Aggregate on ``color``'s tree; send a HELLO per ``announce``."""
        self.color = color
        own_heard = self.heard[color]
        self.parent = min(own_heard, key=lambda a: (own_heard[a], a))
        self.hops = own_heard[self.parent] + 1
        self.round.assemblers = self._new_assemblers()
        for hello_color in announce:
            self.send(
                HelloMessage(
                    src=self.id,
                    dst=BROADCAST,
                    color=hello_color,
                    hops=self.hops,
                    round_id=self.round.round_id,
                )
            )
        self._schedule_report()

    # ------------------------------------------------------------------
    # Phase II: slicing and assembling
    # ------------------------------------------------------------------
    def schedule_slicing(self, when: float) -> None:
        """Start Phase II at ``when``, unless this node is down by then."""
        self.engine.schedule_at(when, self._guarded(self.begin_slicing))

    def begin_slicing(self) -> None:
        """Called at the start of the slicing window by the runner."""
        state = self.round
        if not state.contributes:
            return
        try:
            plans = plan_slices(
                self.id,
                state.reading,
                own_color=self.color,
                candidates={
                    color: self._slice_candidates(color)
                    for color in self.colors
                },
                pieces=self.config.slices,
                rng=self.rng,
                magnitude=state.magnitude,
            )
        except ProtocolError:
            return  # not enough aggregators in range: sit out (factor (b))
        state.participant = True
        window = 0.9 * self.config.timing.slicing_window
        for color, plan in plans.items():
            if plan.kept is not None:
                state.assemblers[color].keep(plan.kept)
        # Pre-assign sequence numbers in predicted fire order and seal
        # the whole fan-out in one batched cipher pass —
        # byte-identical to sealing lazily per send (the messages
        # themselves are still built at fire time, keeping frame-id
        # allocation order untouched).
        planned = schedule_fanout(
            plans, window, self.rng, first_seq=self._slice_seq + 1
        )
        self._slice_seq += len(planned)
        ciphertexts = seal_batch(
            [entry.piece for entry in planned],
            [self.keys.link_key(self.id, entry.target) for entry in planned],
            [
                make_nonce(self.id, entry.target, state.round_id, entry.seq)
                for entry in planned
            ],
        )
        for entry, ciphertext in zip(planned, ciphertexts):
            self.schedule(
                entry.delay,
                self._slice_sender(
                    entry.target,
                    entry.piece,
                    entry.color,
                    seq=entry.seq,
                    ciphertext=ciphertext,
                ),
            )

    def _slice_candidates(self, color: TreeColor) -> Set[int]:
        assert self.keys is not None
        out = set()
        for aggregator in self.heard[color]:
            if aggregator == self.id:
                continue
            if self.keys.can_communicate(self.id, aggregator):
                out.add(aggregator)
        return out

    def _slice_sender(
        self,
        target: int,
        piece: int,
        color: TreeColor,
        seq: int,
        ciphertext: bytes,
    ):
        def fire() -> None:
            # The frame is built at fire time, keeping frame-id
            # allocation in send order.
            message = SliceMessage(
                src=self.id,
                dst=target,
                round_id=self.round.round_id,
                color=color,
                seq=seq,
                ciphertext=ciphertext,
            )
            self._send_slice(piece, 1, message)

        return fire

    def _send_slice(
        self, piece: int, attempt: int, message: SliceMessage
    ) -> None:
        """Transmit one slice piece, arming the ACK timer in robust mode.

        Resends reuse the frame (stable ``frame_id``, so the receiver's
        dedup and a late ACK still match) and always address the
        original target: a silent target may still have received the
        piece, and scattering it to a second aggregator would double it
        into the tree sum.
        """
        self.send(message)
        if self.robust is None:
            return
        frame_id = message.frame_id
        # Unguarded, so a timeout that comes due while this node is down
        # still drops its record (which would otherwise hold the node
        # in a cycle through the timer's callback).
        timer = self.engine.schedule(
            self.robust.slice_ack_timeout,
            lambda: self._slice_timeout(frame_id),
        )
        self.round.pending_slices[frame_id] = _PendingSend(
            message=message,
            attempt=attempt,
            tried={message.dst},
            timer=timer,
            piece=piece,
        )

    def _slice_timeout(self, frame_id: int) -> None:
        """No ACK in time: back off and resend the same frame, or give up."""
        robust = self.robust
        state = self.round.pending_slices.pop(frame_id, None)
        if state is None or robust is None or not self.alive:
            return  # settled, or due while down: the timer is lost
        if state.attempt >= robust.slice_retry_limit:
            return  # retries exhausted; this piece is lost
        message = state.message
        assert isinstance(message, SliceMessage)
        self.round.retries_used += 1
        self.schedule(
            self._backoff(state.attempt),
            lambda: self._send_slice(state.piece, state.attempt + 1, message),
        )

    def _handle_slice(self, message: SliceMessage) -> None:
        if message.color is None:
            raise ProtocolError("slice without a colour tag")
        state = self.round
        assembler = state.assemblers.get(message.color)
        if assembler is None:
            return  # stray slice for a tree we are not on; drop it
        if self.robust is not None:
            dedup = (message.src, message.seq)
            if dedup in state.seen_slices:
                self._ack(message)  # our earlier ACK was lost; repeat it
                return
            state.seen_slices.add(dedup)
            self._ack(message)
        assert self.keys is not None
        key = self.keys.link_key(message.src, self.id)
        nonce = make_nonce(message.src, self.id, message.round_id, message.seq)
        assembler.receive(
            message.src, open_sealed(message.ciphertext, key, nonce)
        )

    # ------------------------------------------------------------------
    # Phase III: convergecast along the coloured trees
    # ------------------------------------------------------------------
    def _schedule_report(self) -> None:
        """Schedule this round's report: deepest hops transmit first.

        A round without a Phase III start schedules nothing.
        """
        phase3_start = self.round.phase3_start
        if phase3_start is None:
            return
        assert self.hops is not None
        slot = self.config.timing.aggregation_slot
        when = (
            phase3_start
            + max(MAX_DEPTH_SLOTS - self.hops, 0) * slot
            + float(self.rng.uniform(0.0, 0.8 * slot))
        )
        self.engine.schedule_at(max(when, self.now), self._guarded(self._report))

    def _report(self) -> None:
        if self.color is None or self.parent is None:
            return
        state = self.round
        assembler = state.assemblers[self.color]
        assembled = assembler.assembled_value()
        value = assembled + state.child_sum[self.color] + state.pollution_offset
        if self.robust is not None:
            # Cumulative piece count: what loss-aware verification sums.
            count = assembler.piece_count + state.child_pieces[self.color]
            origins = tuple(
                sorted({self.id} | state.merged_origins[self.color])
            )
        else:
            count = assembler.received_count
            origins = ()
        message = AggregateMessage(
            src=self.id,
            dst=self.parent,
            round_id=state.round_id,
            color=self.color,
            value=value,
            contributor_count=count,
            origins=origins,
        )
        state.reported = True
        self._send_report(message, 1, {self.parent})

    def _send_report(
        self, message: AggregateMessage, attempt: int, tried: Set[int]
    ) -> None:
        """Transmit a report upstream, arming its ACK timer in robust mode."""
        self.send(message)
        if self.robust is None:
            return
        frame_id = message.frame_id
        # Unguarded for the same reason as a slice's timer.
        timer = self.engine.schedule(
            self.robust.report_ack_timeout,
            lambda: self._report_timeout(frame_id),
        )
        self.round.pending_reports[frame_id] = _PendingSend(
            message=message, attempt=attempt, tried=set(tried), timer=timer
        )

    def _report_timeout(self, frame_id: int) -> None:
        """Retry the report; after the per-parent cap, fail over."""
        robust = self.robust
        state = self.round.pending_reports.pop(frame_id, None)
        if state is None or robust is None or not self.alive:
            return  # settled, or due while down: the timer is lost
        message = state.message
        assert isinstance(message, AggregateMessage)
        self.round.retries_used += 1
        delay = self._backoff(state.attempt)
        if state.attempt < robust.report_retry_limit:
            # Same frame, same parent: a duplicate at the receiver is
            # deduplicated by frame_id and simply re-ACKed.
            self.schedule(
                delay,
                lambda: self._send_report(
                    message, state.attempt + 1, state.tried
                ),
            )
            return
        backup = self._backup_parent(state.tried)
        if backup is None:
            return  # no shallower aggregator left; this subtree is cut off
        self.round.reparent_count += 1
        self.parent = backup
        fresh = AggregateMessage(
            src=self.id,
            dst=backup,
            round_id=message.round_id,
            color=message.color,
            value=message.value,
            contributor_count=message.contributor_count,
            origins=message.origins,
        )
        self.schedule(
            delay,
            lambda: self._send_report(fresh, 1, state.tried | {backup}),
        )

    def _backup_parent(self, tried: Set[int]) -> Optional[int]:
        """Next untried same-colour aggregator strictly shallower than us.

        Strict shallowness guarantees reports always flow toward the
        base station, so fail-over can never create a routing cycle.
        """
        if self.color is None or self.hops is None:
            return None
        own_heard = self.heard[self.color]
        candidates = [
            agg
            for agg, hops in own_heard.items()
            if hops < self.hops and agg not in tried
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda a: (own_heard[a], a))

    def _handle_aggregate(self, message: AggregateMessage) -> None:
        if message.color is None:
            raise ProtocolError("iPDA aggregate must carry a colour")
        if message.color is not self.color:
            self.mismatched_aggregates += 1
            return
        if not self._merge(message):
            return
        if (
            self.robust is not None
            and self.round.reported
            and self.parent is not None
        ):
            # Late child (it retried or re-parented past our own
            # report): forward its contribution as a supplemental
            # report so the value still reaches the base station.
            self._send_report(
                AggregateMessage(
                    src=self.id,
                    dst=self.parent,
                    round_id=self.round.round_id,
                    color=self.color,
                    value=message.value,
                    contributor_count=message.contributor_count,
                    origins=message.origins,
                ),
                1,
                {self.parent},
            )

    def _merge(self, message: AggregateMessage) -> bool:
        """Fold a child's aggregate into this round; False for a replay."""
        state = self.round
        if self.robust is not None:
            if message.frame_id in state.seen_aggregates:
                self._ack(message)  # duplicate: our ACK was lost, re-ACK
                return False
            state.seen_aggregates.add(message.frame_id)
            self._ack(message)
            merged = state.merged_origins[message.color]
            if merged & set(message.origins):
                # A fail-over path re-delivered a subtree we already
                # merged (under a different frame): drop it whole.
                # Partial overlap sacrifices the non-overlapping
                # origins, but their values and piece counts vanish
                # *together*, so the loss stays visible to the base
                # station's coverage accounting.
                return False
            merged.update(message.origins)
            state.child_pieces[message.color] += message.contributor_count
        state.child_sum[message.color] += message.value
        return True

    # ------------------------------------------------------------------
    # Introspection used by the runner
    # ------------------------------------------------------------------
    @property
    def is_covered(self) -> bool:
        """Heard at least one aggregator of every colour."""
        return all(self.heard.values())


class _TwoFacedNode(_IpdaNode):
    """The Section III-B adversary: announces itself on *every* tree.

    It elects red internally (so it aggregates somewhere) but also
    broadcasts a HELLO of every other colour, hoping to become a parent
    on all trees and defeat the disjointness redundancy.  Honest
    neighbours hear the contradictory HELLOs and blacklist it.
    """

    def _elect(self) -> None:
        self._join(TreeColor.RED, self.colors)

    def _new_assemblers(self) -> Dict[TreeColor, SliceAssembler]:
        """Once it has a tree, it assembles slices of every colour."""
        if self.color is None:
            return {}
        return {color: SliceAssembler(self.id) for color in self.colors}


class _IpdaBaseStation(_IpdaNode):
    """Root of every tree: floods one HELLO per colour, sums the results."""

    def _new_assemblers(self) -> Dict[TreeColor, SliceAssembler]:
        return {color: SliceAssembler(self.id) for color in self.colors}

    def start(self) -> None:
        for color in self.colors:
            self.send(
                HelloMessage(
                    src=self.id,
                    dst=BROADCAST,
                    color=color,
                    hops=0,
                    round_id=self.round.round_id,
                )
            )

    def _handle_hello(self, message: HelloMessage) -> None:
        return  # the root never re-parents or re-elects

    def _handle_aggregate(self, message: AggregateMessage) -> None:
        if message.color is None:
            raise ProtocolError("iPDA aggregate must carry a colour")
        if self._merge(message):
            self.round.last_result_time = self.now

    def tree_sum(self, color: TreeColor) -> int:
        """``S_color``: assembled slices at the root plus child results."""
        state = self.round
        return state.assemblers[color].assembled_value() + state.child_sum[color]

    def tree_pieces(self, color: TreeColor) -> int:
        """Slice pieces accounted for on one tree (robust mode only)."""
        state = self.round
        return state.assemblers[color].piece_count + state.child_pieces[color]

    def tally(self) -> _Tally:
        """One pass over the finished round's nodes.

        The base station never slices or hears a HELLO, so it never
        counts as a participant or as covered.
        """
        tally = _Tally(aggregators=dict.fromkeys(self.colors, 0))
        for node in self.network.iter_nodes():
            state = node.round
            if state.participant:
                tally.participants.add(node.id)
            if node.is_covered:
                tally.covered.add(node.id)
            if node.color is not None:
                tally.aggregators[node.color] += 1
            if node.blacklist:
                tally.blacklisting += 1
            tally.retries_used += state.retries_used
            tally.reparent_count += state.reparent_count
        return tally

    def verdict(self, magnitude: int, participants: int) -> VerificationResult:
        """Judge the red and blue tree sums (:func:`verify_round`)."""
        return verify_round(
            self.config,
            magnitude,
            self.tree_sum(TreeColor.RED),
            self.tree_sum(TreeColor.BLUE),
            self.tree_pieces(TreeColor.RED),
            self.tree_pieces(TreeColor.BLUE),
            participants,
        )


class IpdaProtocol(AggregationProtocol):
    """Runner for iPDA rounds over the full radio stack."""

    name = "ipda"

    def __init__(
        self,
        config: Optional[IpdaConfig] = None,
        *,
        key_scheme_factory=PairwiseKeyScheme,
        radio_config: Optional[RadioConfig] = None,
        mac_config: Optional[MacConfig] = None,
        base_station: int = 0,
        keep_frames: bool = False,
    ):
        self.config = config if config is not None else IpdaConfig()
        self.key_scheme_factory = key_scheme_factory
        self.radio_config = radio_config
        self.mac_config = mac_config
        self.base_station = base_station
        #: retain the full frame log in the outcome's stats — the
        #: capture surface for the radio-level eavesdropping attack.
        self.keep_frames = keep_frames

    def run_round(
        self,
        topology: Topology,
        readings: Mapping[int, int],
        *,
        streams: RngStreams,
        round_id: int = 0,
        contributors: Optional[Set[int]] = None,
        polluters: Optional[Mapping[int, int]] = None,
        failures: Optional[Mapping[int, float]] = None,
        two_faced: Optional[Set[int]] = None,
        fault_plan=None,
    ) -> IpdaOutcome:
        """Run one iPDA round.

        ``failures`` maps node ids to fail-stop times (simulated
        seconds): the node goes silent at that instant — the crash
        injection used by the robustness tests.  ``fault_plan`` is the
        declarative alternative (a :class:`repro.faults.FaultPlan`):
        crashes with optional recovery plus Gilbert–Elliott burst loss,
        injected by the network's fault injector.  ``two_faced`` marks
        nodes running the both-colours HELLO attack of Section III-B.
        """
        with self._play_round(
            topology,
            readings,
            streams.spawn("ipda", round_id),
            colors=_BOTH,
            round_id=round_id,
            contributors=contributors,
            polluters=polluters,
            failures=failures,
            two_faced=two_faced,
            fault_plan=fault_plan,
        ) as (network, root, magnitude):
            tally = root.tally()
            participants = tally.participants
            verification = root.verdict(magnitude, len(participants))
            return IpdaOutcome(
                protocol=self.name,
                round_id=round_id,
                reported=verification.report_value,
                true_total=sum(int(v) for v in readings.values()),
                participant_total=sum(
                    int(readings[i]) for i in participants
                ),
                participants=participants,
                bytes_sent=network.trace.total_bytes_sent,
                frames_sent=network.trace.total_frames_sent,
                s_red=verification.s_red,
                s_blue=verification.s_blue,
                verification=verification,
                covered=tally.covered,
                stats={
                    "sensor_count": topology.node_count - 1,
                    "red_aggregators": tally.aggregators[TreeColor.RED],
                    "blue_aggregators": tally.aggregators[TreeColor.BLUE],
                    "adversary_blacklisted_by": tally.blacklisting,
                    "slices": self.config.slices,
                    "magnitude": magnitude,
                    "retries_used": tally.retries_used,
                    "reparent_count": tally.reparent_count,
                    "loss_rate": network.trace.loss_rate(),
                    "sent_bytes_by_node": dict(
                        network.trace.sent_bytes_by_node
                    ),
                    "latency": root.round.last_result_time,
                    "trace": network.trace.summary(),
                    "frames": (
                        network.trace.frames if self.keep_frames else None
                    ),
                },
            )

    @contextmanager
    def _play_round(
        self,
        topology: Topology,
        readings: Mapping[int, int],
        streams: RngStreams,
        *,
        colors: Tuple[TreeColor, ...],
        round_id: int,
        contributors: Optional[Set[int]],
        polluters: Optional[Mapping[int, int]],
        failures: Optional[Mapping[int, float]] = None,
        two_faced: Optional[Set[int]] = None,
        fault_plan=None,
    ) -> Iterator[Tuple[Network, _IpdaBaseStation, int]]:
        """Play one round over ``colors``; yield ``(network, root, magnitude)``.

        The network is drained but still open inside the ``with`` block.
        """
        validate_readings(topology, readings, self.base_station)
        keys = self.key_scheme_factory(topology.node_count)
        magnitude = self.config.effective_magnitude(readings.values())
        pollution = dict(polluters) if polluters else {}

        adversaries = set(two_faced) if two_faced else set()
        if self.base_station in adversaries:
            raise ProtocolError("the base station cannot be the adversary")

        timing = self.config.timing
        t_slice = timing.tree_construction_window
        phase3_start = t_slice + timing.slicing_window + timing.assembly_guard

        def factory(node_id: int, network: Network) -> Node:
            if node_id == self.base_station:
                cls = _IpdaBaseStation
            elif node_id in adversaries:
                cls = _TwoFacedNode
            else:
                cls = _IpdaNode
            node = cls(node_id, network, colors)
            node.config = self.config
            node.keys = keys
            node.base_station = self.base_station
            node.start_round(
                readings,
                contributors,
                pollution,
                round_id=round_id,
                magnitude=magnitude,
                phase3_start=phase3_start,
            )
            return node

        with Network(
            topology,
            factory,
            streams=streams,
            radio_config=self.radio_config,
            mac_config=self.mac_config,
            keep_frames=self.keep_frames,
            fault_plan=fault_plan,
        ) as network:
            root = network.node(self.base_station)
            assert isinstance(root, _IpdaBaseStation)

            root.start()
            for node in network.iter_nodes():
                if node.id != self.base_station:
                    node.schedule_slicing(t_slice)
            if failures:
                for node_id, when in failures.items():
                    network.engine.schedule_at(
                        float(when), partial(network.kill_node, node_id)
                    )
            network.run(
                until=phase3_start
                + (MAX_DEPTH_SLOTS + 2) * timing.aggregation_slot
            )
            network.run()  # drain MAC backoff and protocol-retry tails
            yield network, root, magnitude
