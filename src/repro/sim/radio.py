"""Shared wireless medium.

Models the physical layer the paper's evaluation rides on (ns-2 in the
original): disc propagation over the deployment topology, per-frame
airtime at a configurable data rate (1 Mbps in Section IV-B), and the
*protocol interference model* for collisions — a frame is lost at a
receiver iff another frame's airtime overlaps it there, or the receiver
was itself transmitting (half-duplex).  A Bernoulli loss knob exists
for controlled experiments; both mechanisms can be disabled to get a
perfect channel for unit tests.

Because the medium is shared, every neighbour of a sender *hears* every
frame, which is exactly the surface the eavesdropping attack (Section
II-C) exploits.  Unicast frames are delivered only to their addressee.
Each bystander's reception is still physical (it can be ruined or
dropped, and it is billed), but its overheard copy is dispatched only
when the bystander is in the ``overhearers`` set: the network passes
the nodes whose class handles overheard frames.

Hot-path notes: neighbour iteration order must be sorted (it fixes the
RNG draw order and therefore byte-for-byte reproducibility), so the
sorted tuples are cached per node and invalidated via
``Topology.version``.  When collisions are disabled the medium takes a
perfect-channel fast path that skips per-receiver bookkeeping entirely
(``_finish_fast``); with collisions enabled, in-flight frames live in a
struct-of-arrays ledger (:class:`_InFlightFrame`: one record of
``(start, end, receivers, ruin map)`` per frame) so half-duplex and
overlap ruin are O(1) probes per *frame pair* instead of
per-receiver Python objects, and end-of-frame resolution draws all
Bernoulli losses in one ``rng.random(k)`` call and accounts the whole
fan-out through the batch trace APIs.  Both shortcuts are observably
identical to the historical per-:class:`Reception` loop (same receiver
order, same RNG stream, same trace records), which
``tests/sim/test_radio_fastpath.py`` and
``tests/sim/test_radio_collisions_batch.py`` assert by running the
retained legacy resolver (``_force_legacy_collisions``) side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..net.topology import Topology
from .engine import EventEngine
from .messages import Message
from .trace import DropReason, FrameRecord, TraceCollector

__all__ = ["RadioConfig", "RadioMedium", "Reception"]

#: Paper's simulated data rate (Section IV-B): 1 Mbps.
PAPER_DATA_RATE_BPS: float = 1_000_000.0

#: Ruin codes stored in the ledger's ``ruin`` map.  A receiver's entry
#: records the *first* cause that ruined the reception, at the moment
#: it is ruined — not a reclassification at end-of-frame (which used to
#: misattribute half-duplex ruins as collisions once the receiver's own
#: transmission had ended).
_RUIN_NONE = 0
_RUIN_HALF_DUPLEX = 1
_RUIN_COLLISION = 2

#: Ledger size at which the transmit-time pair screen switches from a
#: scalar Python loop to one vectorized pass over the ``_if_*``
#: columns.  Small ledgers (the MAC-paced common case) stay on the
#: scalar loop, which beats numpy's fixed call overhead below roughly
#: this many live frames.
_VECTOR_SCAN_MIN = 24

_RUIN_REASON = {
    _RUIN_HALF_DUPLEX: DropReason.HALF_DUPLEX,
    _RUIN_COLLISION: DropReason.COLLISION,
}


@dataclass
class RadioConfig:
    """Physical-layer parameters.

    Attributes
    ----------
    data_rate_bps:
        Link speed; airtime of a frame is ``size * 8 / data_rate_bps``.
    collisions_enabled:
        Apply the overlap-collision rule.  Disable for a perfect channel.
    loss_probability:
        Independent Bernoulli loss applied per (frame, receiver) after
        collision filtering; models fading/noise beyond collisions.
    propagation_delay:
        Constant propagation latency added to every delivery (seconds).
    """

    data_rate_bps: float = PAPER_DATA_RATE_BPS
    collisions_enabled: bool = True
    loss_probability: float = 0.0
    propagation_delay: float = 1e-6

    def __post_init__(self) -> None:
        if self.data_rate_bps <= 0:
            raise SimulationError("data_rate_bps must be positive")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise SimulationError("loss_probability must be in [0, 1]")
        if self.propagation_delay < 0:
            raise SimulationError("propagation_delay must be >= 0")


@dataclass(slots=True)
class Reception:
    """An in-flight frame as experienced by one receiver (legacy model).

    Only the retained legacy resolver allocates these; the production
    collision path keeps one :class:`_InFlightFrame` per frame instead.
    """

    message: Message
    receiver: int
    start: float
    end: float
    collided: bool = False
    #: the cause recorded when ``collided`` was first set.
    ruin_reason: Optional[str] = None
    record: Optional[FrameRecord] = None
    #: position inside ``RadioMedium._active_receptions[receiver]`` so
    #: conclusion can swap-pop instead of an O(n) list.remove.
    _active_index: int = -1


@dataclass(slots=True)
class _Transmission:
    """An in-flight frame as produced by its sender (legacy model)."""

    message: Message
    sender: int
    start: float
    end: float
    receptions: List[Reception] = field(default_factory=list)


@dataclass(slots=True, eq=False)
class _InFlightFrame:
    """One frame on the air, as a struct-of-arrays ledger record.

    ``receivers``/``receiver_set``/``slot_index`` are the sender's
    cached sorted-neighbour views (shared across all its frames, never
    rebuilt per transmission); ``ruin`` maps a ruined receiver's id to
    its ``_RUIN_*`` cause code — one hash probe to test-and-mark, and
    ``len(ruin) == n_receivers`` is the "fully ruined" saturation test
    that lets a contended storm skip already-settled frame pairs.  A
    frame that never collides carries an empty map.  ``sx``/``sy`` are
    the sender's coordinates, pre-extracted for the pair-level spatial
    reject.  No per-receiver Python object exists anywhere on the
    collision path.
    """

    message: Message
    sender: int
    start: float
    end: float
    sx: float
    sy: float
    receivers: Tuple[int, ...]
    receiver_set: frozenset
    slot_index: Dict[int, int]
    n_receivers: int
    ruin: Dict[int, int]
    record: Optional[FrameRecord]


DeliverFn = Callable[[int, Message, bool], None]
NotifySenderFn = Callable[[Message, bool], None]
#: ``loss_model(src, dst, now) -> bool`` — True means the frame is lost
#: on that directed link at that instant (e.g. a Gilbert–Elliott burst
#: channel from :mod:`repro.faults`).  Applied after collision filtering
#: and the flat Bernoulli knob, which it generalises.
LossModelFn = Callable[[int, int, float], bool]
#: ``node_alive(node_id) -> bool`` — a dead radio decodes nothing, so
#: link-layer ARQ sees the crash instead of a phantom delivery.
NodeAliveFn = Callable[[int], bool]


class RadioMedium:
    """The shared channel connecting all nodes of a topology.

    Parameters
    ----------
    engine:
        The event engine driving the simulation.
    topology:
        Deployment; defines who hears whom.
    trace:
        Byte/frame accounting sink.
    deliver:
        Callback ``deliver(receiver_id, message, addressed)`` invoked at
        end-of-frame for every successful reception that is dispatched
        (see ``overhearers``).  ``addressed`` is False for overheard
        unicast frames.
    notify_sender:
        Callback ``notify_sender(message, delivered)`` invoked at
        end-of-frame, telling the sender's MAC whether the addressee
        decoded the frame (the abstracted link-layer ACK).  Broadcasts
        always report ``delivered=True``.
    rng:
        Generator used for Bernoulli losses.
    node_alive:
        Initial value of the :attr:`node_alive` hook.
    overhearers:
        Ids of the bystanders whose decoded copies of unicast frames are
        dispatched (``deliver(..., addressed=False)``); the addressee
        always is.  ``None`` (the default) means every node.  Bystanders
        outside the set still receive physically: their drops are
        recorded and their reception is billed.
    """

    def __init__(
        self,
        engine: EventEngine,
        topology: Topology,
        trace: TraceCollector,
        deliver: DeliverFn,
        rng: np.random.Generator,
        config: Optional[RadioConfig] = None,
        notify_sender: Optional[NotifySenderFn] = None,
        node_alive: Optional[NodeAliveFn] = None,
        overhearers: Optional[Iterable[int]] = None,
    ):
        self.engine = engine
        self.topology = topology
        self.trace = trace
        self.config = config if config is not None else RadioConfig()
        self._deliver = deliver
        self._notify_sender = notify_sender
        self._rng = rng
        #: per-node transmission end time (-inf when idle).  All
        #: channel-state queries — MAC carrier sense included — are
        #: strict ``> now`` comparisons against this array, so entries
        #: never need pruning and fan-out busy checks vectorize.
        self._tx_until = np.full(topology.node_count, -np.inf)
        #: frames currently on the air (cheap early-out for carrier
        #: sense on an idle channel).
        self._tx_count = 0
        #: the in-flight ledger: one struct-of-arrays record per frame
        #: on the air (collision path only; the perfect-channel fast
        #: path never touches it).  The parallel ``_if_*`` columns
        #: mirror the list index-for-index so a crowded ledger can be
        #: screened in one vectorized pass; removal swap-pops, which is
        #: safe because ruin marks are idempotent first-cause-wins and
        #: therefore insensitive to ledger order.
        self._in_flight: List[_InFlightFrame] = []
        self._if_end = np.empty(16)
        self._if_x = np.empty(16)
        self._if_y = np.empty(16)
        #: legacy per-receiver bookkeeping, used only when
        #: ``_force_legacy_collisions`` is set by equivalence tests.
        self._active_receptions: Dict[int, List[Reception]] = {}
        #: optional per-link loss process installed by the fault layer.
        self.loss_model: Optional[LossModelFn] = None
        #: optional liveness probe; ``None`` means every node is up, so
        #: end-of-frame resolution skips the per-receiver probes.
        self.node_alive: Optional[NodeAliveFn] = node_alive
        #: bystanders whose overheard unicast copies are dispatched
        #: (``None``: every node).
        self.overhearers: Optional[frozenset] = (
            None if overhearers is None else frozenset(overhearers)
        )
        #: sorted neighbour tuples, keyed on Topology.version (sorted
        #: order fixes the per-frame RNG draw order).
        self._neighbor_cache: Dict[int, Tuple[int, ...]] = {}
        #: the same neighbour sets as int64 arrays, for vectorized
        #: carrier sensing.
        self._neighbor_arrays: Dict[int, np.ndarray] = {}
        #: ... as frozensets, for the ledger's O(1)/O(d) pair tests.
        self._neighbor_sets: Dict[int, frozenset] = {}
        #: ... and as node-id -> ruin-slot maps (slot = position in the
        #: sorted tuple), so flagging a ruined reception is a dict get.
        self._neighbor_slots: Dict[int, Dict[int, int]] = {}
        self._neighbor_cache_version = topology.version
        #: sender coordinates and the pair-level rejection radius: under
        #: the disc model (Topology: neighbours iff distance <=
        #: radio_range) two senders further apart than twice the range
        #: share no receiver and cannot hear each other, so their
        #: frames provably cannot interact.
        self._coords = topology.coords
        self._pair_reject_sq = (2.0 * topology.radio_range) ** 2
        #: frames concluded by the perfect-channel fast path vs the
        #: generic collision-aware path (observability counters).
        self.fast_path_frames = 0
        self.generic_frames = 0
        #: test hook — when True the perfect-channel fast path is
        #: disabled so equivalence tests can diff it against the
        #: generic resolver.  Set it before the first transmit; the
        #: paths do not share in-flight bookkeeping.
        self._force_generic_finish = False
        #: test hook — when True the generic path uses the retained
        #: per-Reception legacy resolver instead of the batch ledger,
        #: so the differential suite can run old and new resolution
        #: side by side.  Set it before the first transmit.
        self._force_legacy_collisions = False

    def _check_neighbor_caches(self) -> None:
        if self._neighbor_cache_version != self.topology.version:
            self._neighbor_cache.clear()
            self._neighbor_arrays.clear()
            self._neighbor_sets.clear()
            self._neighbor_slots.clear()
            self._neighbor_cache_version = self.topology.version

    def _sorted_neighbors(self, node_id: int) -> Tuple[int, ...]:
        """Sorted one-hop neighbours of ``node_id`` (cached)."""
        self._check_neighbor_caches()
        neighbors = self._neighbor_cache.get(node_id)
        if neighbors is None:
            neighbors = tuple(sorted(self.topology.neighbors(node_id)))
            self._neighbor_cache[node_id] = neighbors
        return neighbors

    def _neighbor_array(self, node_id: int) -> np.ndarray:
        """The sorted neighbour tuple as a cached int64 array."""
        self._check_neighbor_caches()
        array = self._neighbor_arrays.get(node_id)
        if array is None:
            array = np.array(
                self._sorted_neighbors(node_id), dtype=np.int64
            )
            self._neighbor_arrays[node_id] = array
        return array

    def _neighbor_set(self, node_id: int) -> frozenset:
        """The neighbour set as a cached frozenset."""
        neighbor_set = self._neighbor_sets.get(node_id)
        if neighbor_set is None:
            neighbor_set = frozenset(self._sorted_neighbors(node_id))
            self._neighbor_sets[node_id] = neighbor_set
        return neighbor_set

    def _neighbor_slot_index(self, node_id: int) -> Dict[int, int]:
        """Neighbour id -> slot in the sorted tuple (cached)."""
        slots = self._neighbor_slots.get(node_id)
        if slots is None:
            slots = {
                neighbor: slot
                for slot, neighbor in enumerate(
                    self._sorted_neighbors(node_id)
                )
            }
            self._neighbor_slots[node_id] = slots
        return slots

    # ------------------------------------------------------------------
    # Channel state queries (used by the MAC for carrier sensing)
    # ------------------------------------------------------------------
    def airtime(self, message: Message) -> float:
        """Seconds the frame occupies the channel."""
        return message.size_bytes * 8.0 / self.config.data_rate_bps

    def is_transmitting(self, node_id: int) -> bool:
        """True while ``node_id`` has a frame on the air."""
        return self._tx_until[node_id] > self.engine.now

    def senses_busy(self, node_id: int) -> bool:
        """Carrier sense: the node or any neighbour is transmitting.

        One vectorized comparison over the cached neighbour array; an
        idle channel (no frame anywhere on the air) short-circuits
        before touching it.
        """
        now = self.engine.now
        tx_until = self._tx_until
        if tx_until[node_id] > now:
            return True
        if not self._tx_count:
            return False
        neighbors = self._neighbor_array(node_id)
        if not len(neighbors):
            return False
        return bool((tx_until[neighbors] > now).any())

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def transmit(self, message: Message) -> float:
        """Put ``message`` on the air; returns its end-of-frame time.

        The sender must not already be transmitting (the MAC serialises
        each node's queue; violating this indicates a protocol bug).
        """
        sender = message.src
        now = self.engine.now
        if self._tx_until[sender] > now:
            raise SimulationError(
                f"node {sender} started a frame while already transmitting"
            )
        config = self.config
        start = now + config.propagation_delay
        end = start + message.size_bytes * 8.0 / config.data_rate_bps
        self._tx_until[sender] = end
        self._tx_count += 1

        record = self.trace.record_send(now, message)
        receivers = self._sorted_neighbors(sender)

        if self._force_legacy_collisions:
            return self._transmit_legacy(
                message, sender, start, end, record, receivers
            )

        if not config.collisions_enabled and not self._force_generic_finish:
            # Perfect channel: no frame can collide, so skip the
            # in-flight ledger and conclude straight from the cached
            # neighbour tuple at end-of-frame.
            self.engine.post_at(
                end,
                lambda: self._finish_fast(message, receivers, record),
                priority=-1,
            )
            return end

        coords = self._coords
        entry = _InFlightFrame(
            message=message,
            sender=sender,
            start=start,
            end=end,
            sx=float(coords[sender, 0]),
            sy=float(coords[sender, 1]),
            receivers=receivers,
            receiver_set=self._neighbor_set(sender),
            slot_index=self._neighbor_slot_index(sender),
            n_receivers=len(receivers),
            ruin={},
            record=record,
        )

        in_flight = self._in_flight
        if config.collisions_enabled and in_flight:
            self._flag_interactions(entry, start, sender)
        slot = len(in_flight)
        if slot == len(self._if_end):
            self._if_end = np.resize(self._if_end, slot * 2)
            self._if_x = np.resize(self._if_x, slot * 2)
            self._if_y = np.resize(self._if_y, slot * 2)
        self._if_end[slot] = end
        self._if_x[slot] = entry.sx
        self._if_y[slot] = entry.sy
        in_flight.append(entry)
        self.engine.post_at(
            end, lambda: self._finish_entry(entry), priority=-1
        )
        return end

    def _flag_interactions(
        self, entry: _InFlightFrame, start: float, sender: int
    ) -> None:
        """Flag every ruin the new frame causes or suffers at transmit time.

        Two passes over the in-flight ledger so that, exactly like the
        legacy per-reception checks, half-duplex ruin is recorded
        before overlap ruin at any slot eligible for both (first cause
        wins).  Pair tests are O(1) hash probes behind a spatial
        reject: senders further apart than twice the radio range
        provably share no receiver and cannot hear each other under the
        disc model, so the test for the overwhelmingly common far-apart
        pair of a large deployment is two float multiplies.  At the
        other extreme — a saturated storm where everything overlaps —
        a pair whose frames are both already fully ruined is settled by
        two ``len`` checks, with no set work at all.
        """
        reject_sq = self._pair_reject_sq
        sx = entry.sx
        sy = entry.sy
        recv_set = entry.receiver_set
        ruin = entry.ruin
        in_flight = self._in_flight
        count = len(in_flight)
        if count >= _VECTOR_SCAN_MIN:
            # Crowded ledger (a contended storm): screen end-times and
            # sender distances for every live frame in one vectorized
            # pass instead of count Python-level iterations.  The
            # comparisons are the same strict/float64 expressions as
            # the scalar branch below, so the survivor set is
            # identical.
            dx = self._if_x[:count] - sx
            dy = self._if_y[:count] - sy
            np.multiply(dx, dx, out=dx)
            np.multiply(dy, dy, out=dy)
            dx += dy
            keep = np.flatnonzero(
                (dx <= reject_sq) & (self._if_end[:count] > start)
            )
            near = [in_flight[index] for index in keep] if len(keep) else None
        else:
            near = None
            for other in in_flight:
                if other.end <= start:
                    # Ends at/before this frame's first bit arrives
                    # (overlap tests are strict, matching the legacy
                    # per-reception comparisons).
                    continue
                dx = other.sx - sx
                dy = other.sy - sy
                if dx * dx + dy * dy > reject_sq:
                    continue
                if near is None:
                    near = [other]
                else:
                    near.append(other)
        if near is None:
            return
        for other in near:
            # Half-duplex (receiver side): a receiver with its own
            # frame still on the air — i.e. the sender of a live ledger
            # entry — cannot decode this one.
            other_sender = other.sender
            if other_sender in recv_set and other_sender not in ruin:
                ruin[other_sender] = _RUIN_HALF_DUPLEX
            # Half-duplex (sender side): anything this sender was
            # still receiving is ruined by its own transmission.
            other_ruin = other.ruin
            if sender in other.receiver_set and sender not in other_ruin:
                other_ruin[sender] = _RUIN_HALF_DUPLEX
        n_mine = entry.n_receivers
        for other in near:
            # Overlap: both frames die at every common receiver.
            # Receivers already ruined (e.g. half-duplex above) keep
            # their first cause, and the marks are idempotent, so the
            # set iteration order is immaterial.  A side that is
            # already fully ruined cannot be marked further; when both
            # sides are, the pair is settled without touching the sets.
            other_ruin = other.ruin
            if (
                len(ruin) == n_mine
                and len(other_ruin) == other.n_receivers
            ):
                continue
            other_set = other.receiver_set
            if recv_set.isdisjoint(other_set):
                continue
            for receiver in recv_set & other_set:
                if receiver not in ruin:
                    ruin[receiver] = _RUIN_COLLISION
                if receiver not in other_ruin:
                    other_ruin[receiver] = _RUIN_COLLISION

    def _finish_entry(self, entry: _InFlightFrame) -> None:
        """Batch end-of-frame resolution for one ledger record.

        Observably identical to the legacy per-:class:`Reception` loop
        (``_finish_transmission``): same receiver order, same
        ``node_alive``/``loss_model`` call sequences, same single
        ``rng.random(k)`` Bernoulli draw over the eligible receivers,
        same trace records.  Like ``_finish_fast``, outcome resolution
        is hoisted ahead of the deliver callbacks — safe because nodes
        draw from their own per-node streams, never the radio's.
        """
        self.generic_frames += 1
        in_flight = self._in_flight
        last = len(in_flight) - 1
        for index, other in enumerate(in_flight):
            if other is entry:
                # Swap-pop, keeping the _if_* columns aligned.  Ledger
                # order is free to change: ruin marks are idempotent
                # first-cause-wins, so scan order is unobservable.
                if index != last:
                    in_flight[index] = in_flight[last]
                    self._if_end[index] = self._if_end[last]
                    self._if_x[index] = self._if_x[last]
                    self._if_y[index] = self._if_y[last]
                in_flight.pop()
                break
        self._tx_until[entry.sender] = -np.inf
        self._tx_count -= 1

        message = entry.message
        record = entry.record
        receivers = entry.receivers
        trace = self.trace
        dst = message.dst
        is_broadcast = message.is_broadcast
        node_alive = self.node_alive
        loss_model = self.loss_model
        loss_p = self.config.loss_probability

        ruin_map = entry.ruin
        if (
            not ruin_map
            and node_alive is None
            and loss_model is None
            and loss_p == 0.0
        ):
            # Nothing can drop: resolve the whole fan-out as delivered.
            self._record_deliveries(
                message,
                record,
                receivers,
                is_broadcast,
                dst,
                addressee_decoded=True
                if is_broadcast or dst in entry.receiver_set
                else None,
            )
            return

        if len(ruin_map) == entry.n_receivers:
            # Every reception was ruined at flag time (a saturated
            # storm): nothing survives to probe liveness, draw loss, or
            # consult the loss model — exactly as in the legacy loop,
            # which only runs those for non-ruined receptions.  Emit
            # the drops straight from the ruin map, in receiver order.
            trace.record_drop_batch(
                record,
                message,
                [
                    (receiver, _RUIN_REASON[ruin_map[receiver]])
                    for receiver in receivers
                ],
            )
            self._record_deliveries(
                message,
                record,
                (),
                is_broadcast,
                dst,
                addressee_decoded=True
                if is_broadcast
                else (False if dst in entry.receiver_set else None),
            )
            return

        # Outcome codes per slot: 0 = delivered, otherwise the drop
        # reason.  Start from the ruin causes recorded at flag time.
        code = np.zeros(entry.n_receivers, dtype=np.int8)
        if ruin_map:
            slot_index = entry.slot_index
            for receiver, cause in ruin_map.items():
                code[slot_index[receiver]] = cause
        if node_alive is not None:
            # Liveness probes only for the non-ruined receivers, in
            # receiver order — the exact call pattern of the legacy
            # pre-pass.
            if ruin_map:
                dead = [
                    slot
                    for slot in np.flatnonzero(code == _RUIN_NONE)
                    if not node_alive(receivers[slot])
                ]
            else:
                dead = [
                    slot
                    for slot, receiver in enumerate(receivers)
                    if not node_alive(receiver)
                ]
            if dead:
                code[dead] = _CODE_DEAD
        eligible = np.flatnonzero(code == _RUIN_NONE)
        if loss_p > 0.0 and len(eligible):
            # ONE vectorized draw for every eligible receiver —
            # elementwise- and state-identical to k scalar draws.
            draws = self._rng.random(len(eligible))
            lost = eligible[draws < loss_p]
            if len(lost):
                code[lost] = _CODE_RANDOM_LOSS
        if loss_model is not None:
            now = self.engine.now
            src = message.src
            for slot in np.flatnonzero(code == _RUIN_NONE):
                if loss_model(src, receivers[slot], now):
                    code[slot] = _CODE_BURST_LOSS

        dropped_slots = np.flatnonzero(code)
        if len(dropped_slots):
            trace.record_drop_batch(
                record,
                message,
                [
                    (receivers[slot], _CODE_REASON[code[slot]])
                    for slot in dropped_slots
                ],
            )
        if dst in entry.receiver_set:
            addressee_decoded = bool(code[entry.slot_index[dst]] == _RUIN_NONE)
        else:
            addressee_decoded = None
        self._record_deliveries(
            message,
            record,
            [receivers[slot] for slot in np.flatnonzero(code == _RUIN_NONE)],
            is_broadcast,
            dst,
            addressee_decoded=addressee_decoded,
        )

    def _record_deliveries(
        self,
        message: Message,
        record: Optional[FrameRecord],
        delivered,
        is_broadcast: bool,
        dst: int,
        addressee_decoded: Optional[bool] = True,
    ) -> None:
        """Account and dispatch the delivered fan-out, then notify.

        ``delivered`` is the decoded subset in receiver order;
        ``addressee_decoded`` the unicast ACK outcome (``None`` when the
        addressee is out of radio range — recorded as NO_RECEIVER);
        broadcasts always acknowledge.  A decoded unicast frame is
        dispatched to its addressee and to the bystanders in
        :attr:`overhearers`, in receiver order — the rule the legacy
        :meth:`_conclude_reception` applies per reception.
        """
        trace = self.trace
        deliver = self._deliver
        if is_broadcast:
            trace.record_delivery_batch(record, message, delivered)
            for receiver in delivered:
                deliver(receiver, message, True)
            if self._notify_sender is not None:
                self._notify_sender(message, True)
            return
        overhearers = self.overhearers
        for receiver in delivered:
            if receiver == dst:
                trace.record_delivery(record, message, receiver)
                deliver(receiver, message, True)
            elif overhearers is None or receiver in overhearers:
                deliver(receiver, message, False)
        if addressee_decoded is None:
            # Unicast to a node outside radio range: nobody to decode it.
            trace.record_drop(None, message, dst, DropReason.NO_RECEIVER)
        if self._notify_sender is not None:
            self._notify_sender(message, bool(addressee_decoded))

    # ------------------------------------------------------------------
    # Legacy per-reception resolver (equivalence-test oracle)
    # ------------------------------------------------------------------
    def _transmit_legacy(
        self,
        message: Message,
        sender: int,
        start: float,
        end: float,
        record: Optional[FrameRecord],
        receivers: Tuple[int, ...],
    ) -> float:
        """The historical Reception-object collision path, kept so the
        differential suite can prove the ledger byte-identical."""
        config = self.config
        transmission = _Transmission(
            message=message, sender=sender, start=start, end=end
        )

        if config.collisions_enabled:
            # Half-duplex: anything the sender was receiving is ruined.
            for reception in self._active_receptions.get(sender, []):
                if reception.end > start and not reception.collided:
                    reception.collided = True
                    reception.ruin_reason = DropReason.HALF_DUPLEX

        active_map = self._active_receptions
        for receiver in receivers:
            reception = Reception(
                message=message,
                receiver=receiver,
                start=start,
                end=end,
                record=record,
            )
            if config.collisions_enabled:
                self._apply_collisions(reception)
            transmission.receptions.append(reception)
            active = active_map.get(receiver)
            if active is None:
                active = active_map[receiver] = []
            reception._active_index = len(active)
            active.append(reception)

        self.engine.post_at(
            end, lambda: self._finish_transmission(transmission), priority=-1
        )
        return end

    def _apply_collisions(self, reception: Reception) -> None:
        receiver = reception.receiver
        # Receiver busy sending: the incoming frame is unreadable.
        if self._tx_until[receiver] > reception.start:
            reception.collided = True
            reception.ruin_reason = DropReason.HALF_DUPLEX
        # Overlap with any other in-flight frame at this receiver ruins both.
        for other in self._active_receptions.get(receiver, []):
            if other.end > reception.start:
                if not other.collided:
                    other.collided = True
                    other.ruin_reason = DropReason.COLLISION
                if not reception.collided:
                    reception.collided = True
                    reception.ruin_reason = DropReason.COLLISION

    def _finish_transmission(self, transmission: _Transmission) -> None:
        message = transmission.message
        self.generic_frames += 1
        self._tx_until[transmission.sender] = -np.inf
        self._tx_count -= 1
        addressee_got_it = message.is_broadcast
        addressee_seen = message.is_broadcast
        active_map = self._active_receptions
        receptions = transmission.receptions
        # Hoist the Bernoulli losses into ONE vectorized draw for the
        # receptions that reach the loss stage (not collided, alive) —
        # stream-identical to the historical per-reception scalar
        # draws.  The pre-pass sees exactly what the loop would:
        # collision flags are frozen by end-of-frame (overlap tests
        # are strict, so a frame starting `now` cannot retro-collide
        # one ending `now`) and liveness only changes through
        # scheduled fault events, never mid-event.
        loss_p = self.config.loss_probability
        node_alive = self.node_alive
        eligible = None
        draws = None
        if loss_p > 0.0 and receptions:
            eligible = [
                not r.collided
                and (node_alive is None or node_alive(r.receiver))
                for r in receptions
            ]
            drawn = sum(eligible)
            if drawn:
                draws = self._rng.random(drawn)
        draw_index = 0
        for slot, reception in enumerate(receptions):
            active = active_map.get(reception.receiver)
            if active is not None:
                # Swap-pop using the reception's recorded slot; order
                # inside the active list is immaterial (collision
                # checks only set flags).
                index = reception._active_index
                last = active[-1]
                if last is not reception:
                    active[index] = last
                    last._active_index = index
                active.pop()
                if not active:
                    del active_map[reception.receiver]
            if eligible is None:
                decoded = self._conclude_reception(reception, message)
            elif eligible[slot]:
                loss_draw = float(draws[draw_index])
                draw_index += 1
                decoded = self._conclude_reception(
                    reception, message, alive=True, loss_draw=loss_draw
                )
            else:
                decoded = self._conclude_reception(
                    reception,
                    message,
                    alive=False if not reception.collided else None,
                )
            if not message.is_broadcast and reception.receiver == message.dst:
                addressee_seen = True
                addressee_got_it = decoded
        if not addressee_seen:
            # Unicast to a node outside radio range: nobody to decode it.
            self.trace.record_drop(
                None, message, message.dst, DropReason.NO_RECEIVER
            )
        if self._notify_sender is not None:
            self._notify_sender(message, addressee_got_it)

    def _finish_fast(
        self,
        message: Message,
        receivers: Tuple[int, ...],
        record: Optional[FrameRecord],
    ) -> None:
        """Perfect-channel end-of-frame, resolved for the whole receiver set.

        Must stay observably identical to the generic resolvers with
        ``collided`` always False: same receiver order, same drop-check
        order (alive -> Bernoulli -> loss model), same trace-record
        contents, same RNG stream.  The Bernoulli losses for the alive
        receivers are ONE vectorized ``random(k)`` call — elementwise-
        and state-identical to ``k`` scalar draws — and broadcast
        deliveries go through
        :meth:`TraceCollector.record_delivery_batch`, so a
        10^4-neighbour broadcast costs one draw and one aggregate
        counter update, not 10^4 of each.  Hoisting the draws ahead of
        the deliver callbacks is safe because nodes draw from their own
        per-node streams, never the radio's, and the per-link loss
        model keeps independent per-link generators.
        """
        self.fast_path_frames += 1
        self._tx_until[message.src] = -np.inf
        self._tx_count -= 1
        src = message.src
        dst = message.dst
        is_broadcast = message.is_broadcast
        trace = self.trace
        node_alive = self.node_alive
        loss_model = self.loss_model
        loss_p = self.config.loss_probability

        if node_alive is None and loss_model is None and loss_p == 0.0:
            # Lossless channel — the path a 10^5-node scale run takes:
            # every neighbour decodes, nothing draws, nothing drops.
            self._record_deliveries(
                message,
                record,
                receivers,
                is_broadcast,
                dst,
                addressee_decoded=True
                if is_broadcast or dst in receivers
                else None,
            )
            return

        # Faulty channel: drops must be recorded in receiver order, so
        # resolve outcomes receiver-by-receiver — but batch the draws.
        if node_alive is None:
            alive_flags = None
            n_alive = len(receivers)
        else:
            alive_flags = [node_alive(receiver) for receiver in receivers]
            n_alive = sum(alive_flags)
        draws = (
            self._rng.random(n_alive) if loss_p > 0.0 and n_alive else None
        )
        now = self.engine.now
        # The unicast ACK outcome; None while the addressee is unseen.
        addressee_decoded = True if is_broadcast else None
        delivered: List[int] = []
        draw_index = 0
        for slot, receiver in enumerate(receivers):
            if alive_flags is not None and not alive_flags[slot]:
                trace.record_drop(
                    record, message, receiver, DropReason.RECEIVER_DEAD
                )
                decoded = False
            else:
                if draws is not None:
                    lost = draws[draw_index] < loss_p
                    draw_index += 1
                else:
                    lost = False
                if lost:
                    trace.record_drop(
                        record, message, receiver, DropReason.RANDOM_LOSS
                    )
                    decoded = False
                elif loss_model is not None and loss_model(
                    src, receiver, now
                ):
                    trace.record_drop(
                        record, message, receiver, DropReason.BURST_LOSS
                    )
                    decoded = False
                else:
                    delivered.append(receiver)
                    decoded = True
            if receiver == dst:
                addressee_decoded = decoded
        self._record_deliveries(
            message,
            record,
            delivered,
            is_broadcast,
            dst,
            addressee_decoded=addressee_decoded,
        )

    def _conclude_reception(
        self,
        reception: Reception,
        message: Message,
        alive: Optional[bool] = None,
        loss_draw: Optional[float] = None,
    ) -> bool:
        """Conclude one reception; returns True when it was decoded.

        ``alive``/``loss_draw``, when given, carry outcomes precomputed
        by the batch pre-pass in :meth:`_finish_transmission` (one
        liveness probe, one vectorized draw) so they are not redone here.
        """
        receiver = reception.receiver
        if reception.collided:
            # The ruin cause was recorded when the reception was
            # flagged; re-deriving it here from is_transmitting() at
            # end-of-frame misattributed half-duplex ruins whose
            # blocking transmission had already ended.
            reason = reception.ruin_reason or DropReason.COLLISION
            self.trace.record_drop(reception.record, message, receiver, reason)
            return False
        if alive is None:
            alive = self.node_alive is None or self.node_alive(receiver)
        if not alive:
            self.trace.record_drop(
                reception.record, message, receiver, DropReason.RECEIVER_DEAD
            )
            return False
        loss_p = self.config.loss_probability
        if loss_p > 0.0:
            draw = self._rng.random() if loss_draw is None else loss_draw
            if draw < loss_p:
                self.trace.record_drop(
                    reception.record, message, receiver, DropReason.RANDOM_LOSS
                )
                return False
        if self.loss_model is not None and self.loss_model(
            message.src, receiver, self.engine.now
        ):
            self.trace.record_drop(
                reception.record, message, receiver, DropReason.BURST_LOSS
            )
            return False
        if message.is_broadcast or message.dst == receiver:
            self.trace.record_delivery(reception.record, message, receiver)
            self._deliver(receiver, message, True)
        elif self.overhearers is None or receiver in self.overhearers:
            self._deliver(receiver, message, False)
        return True


#: Outcome codes used by the batch resolver beyond the ruin codes.
_CODE_DEAD = 3
_CODE_RANDOM_LOSS = 4
_CODE_BURST_LOSS = 5

_CODE_REASON = {
    _RUIN_HALF_DUPLEX: DropReason.HALF_DUPLEX,
    _RUIN_COLLISION: DropReason.COLLISION,
    _CODE_DEAD: DropReason.RECEIVER_DEAD,
    _CODE_RANDOM_LOSS: DropReason.RANDOM_LOSS,
    _CODE_BURST_LOSS: DropReason.BURST_LOSS,
}
