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
``Topology.version``.  With collisions enabled, in-flight frames live
in a struct-of-arrays ledger (:class:`_InFlightFrame`: one record of
``(end, receivers, ruin map)`` per frame), so half-duplex and overlap
ruin are O(1) probes per *frame pair* instead of per-receiver Python
objects.  Every frame ends in one resolver, :meth:`RadioMedium._resolve`:
a ledger frame once it is taken off the ledger, a collisions-off frame
straight from its sender's cached receiver tuple, with no ledger record
at all.  The resolver draws all Bernoulli losses in one
``rng.random(k)`` call and accounts the whole fan-out through the batch
trace APIs.  All of this is observably identical to concluding each
(frame, receiver) reception on its own — same receiver order, same RNG
stream, same trace records — which ``tests/sim/test_radio_fastpath.py``
and ``tests/sim/test_radio_collisions_batch.py`` assert against that
per-reception resolver, kept as a test oracle in
``tests/radio_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..errors import SimulationError
from ..net.topology import Topology
from .engine import EventEngine
from .messages import Message
from .trace import DropReason, FrameRecord, TraceCollector

__all__ = ["RadioConfig", "RadioMedium"]

#: Paper's simulated data rate (Section IV-B): 1 Mbps.
PAPER_DATA_RATE_BPS: float = 1_000_000.0

#: Ruin causes stored in the ledger's ``ruin`` map.  A receiver's entry
#: records the *first* cause that ruined the reception, at the moment
#: it is ruined — not a reclassification at end-of-frame (which used to
#: misattribute half-duplex ruins as collisions once the receiver's own
#: transmission had ended).
_HALF_DUPLEX = DropReason.HALF_DUPLEX
_COLLISION = DropReason.COLLISION

#: Ledger size at which the transmit-time pair screen switches from a
#: scalar Python loop to one vectorized pass over the ``_if_*``
#: columns.  Small ledgers (the MAC-paced common case) stay on the
#: scalar loop, which beats numpy's fixed call overhead below roughly
#: this many live frames.
_VECTOR_SCAN_MIN = 24


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
        # Written as negated comparisons so NaN, which fails every
        # comparison, is rejected too.
        if not self.data_rate_bps > 0:
            raise SimulationError("data_rate_bps must be positive")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise SimulationError("loss_probability must be in [0, 1]")
        if not self.propagation_delay >= 0:
            raise SimulationError("propagation_delay must be >= 0")


@dataclass(slots=True, eq=False)
class _InFlightFrame:
    """One frame on the air, as a struct-of-arrays ledger record.

    ``receivers``/``receiver_set`` are the sender's cached
    sorted-neighbour views (shared across all its frames, never rebuilt
    per transmission); ``ruin`` maps a ruined receiver's id to its
    :class:`DropReason` — one hash probe to test-and-mark, and
    ``len(ruin) == n_receivers`` is the "fully ruined" saturation test
    that lets a contended storm skip already-settled frame pairs.  A
    frame that never collides carries an empty map.  ``sx``/``sy`` are
    the sender's coordinates, pre-extracted for the pair-level spatial
    reject.  No per-receiver Python object exists anywhere on the
    collision path.
    """

    message: Message
    sender: int
    end: float
    sx: float
    sy: float
    receivers: Tuple[int, ...]
    receiver_set: frozenset
    n_receivers: int
    ruin: Dict[int, str]
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
        #: on the air (collisions enabled only; a collisions-off frame
        #: never has a record).  The parallel ``_if_*`` columns mirror
        #: the list index-for-index so a crowded ledger can be screened
        #: in one vectorized pass; removal swap-pops, which is safe
        #: because ruin marks are idempotent first-cause-wins and
        #: therefore insensitive to ledger order.
        self._in_flight: List[_InFlightFrame] = []
        self._if_end = np.empty(16)
        self._if_x = np.empty(16)
        self._if_y = np.empty(16)
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
        #: ... and as frozensets, for the ledger's O(1)/O(d) pair tests.
        self._neighbor_sets: Dict[int, frozenset] = {}
        self._neighbor_cache_version = topology.version
        #: sender coordinates and the pair-level rejection radius: under
        #: the disc model (Topology: neighbours iff distance <=
        #: radio_range) two senders further apart than twice the range
        #: share no receiver and cannot hear each other, so their
        #: frames provably cannot interact.
        self._coords = topology.coords
        self._pair_reject_sq = (2.0 * topology.radio_range) ** 2
        #: frames resolved without a ledger record (collisions off) vs
        #: off the in-flight ledger (observability counters).
        self.fast_path_frames = 0
        self.generic_frames = 0

    def _check_neighbor_caches(self) -> None:
        if self._neighbor_cache_version != self.topology.version:
            self._neighbor_cache.clear()
            self._neighbor_arrays.clear()
            self._neighbor_sets.clear()
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

        if not config.collisions_enabled:
            # Perfect channel: no frame can collide, so no ledger
            # record; end-of-frame resolves straight from the cached
            # neighbour tuple.
            self.engine.post_at(
                end,
                lambda: self._resolve(message, record, receivers),
                priority=-1,
            )
            return end

        coords = self._coords
        entry = _InFlightFrame(
            message=message,
            sender=sender,
            end=end,
            sx=float(coords[sender, 0]),
            sy=float(coords[sender, 1]),
            receivers=receivers,
            receiver_set=self._neighbor_set(sender),
            n_receivers=len(receivers),
            ruin={},
            record=record,
        )

        in_flight = self._in_flight
        if in_flight:
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

        Two passes over the in-flight ledger so that half-duplex ruin is
        recorded before overlap ruin at any slot eligible for both
        (first cause wins).  Pair tests are O(1) hash probes behind a
        spatial reject: senders further apart than twice the radio range
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
                    # (overlap tests are strict).
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
                ruin[other_sender] = _HALF_DUPLEX
            # Half-duplex (sender side): anything this sender was
            # still receiving is ruined by its own transmission.
            other_ruin = other.ruin
            if sender in other.receiver_set and sender not in other_ruin:
                other_ruin[sender] = _HALF_DUPLEX
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
                    ruin[receiver] = _COLLISION
                if receiver not in other_ruin:
                    other_ruin[receiver] = _COLLISION

    # ------------------------------------------------------------------
    # End of frame
    # ------------------------------------------------------------------
    def _finish_entry(self, entry: _InFlightFrame) -> None:
        """Take ``entry`` off the in-flight ledger, then resolve it."""
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
        self._resolve(entry.message, entry.record, entry.receivers, entry)

    def _resolve(
        self,
        message: Message,
        record: Optional[FrameRecord],
        receivers: Tuple[int, ...],
        entry: Optional[_InFlightFrame] = None,
    ) -> None:
        """End-of-frame resolution of one frame over its receiver tuple.

        ``entry`` is the frame's ledger record, already off the ledger,
        whose ruin map holds the receptions ruined at transmit time; a
        collisions-off frame has none.  The surviving receptions then
        face the drop checks in order — alive, Bernoulli, loss model —
        each over the receivers the previous check left, in receiver
        order, as plain lists.  The Bernoulli losses are ONE vectorized
        ``random(k)`` call, elementwise- and state-identical to ``k``
        scalar draws, and the fan-out is accounted through the batch
        trace APIs, so a 10^4-neighbour broadcast costs one draw and one
        aggregate counter update.  Resolving every outcome ahead of the
        deliver callbacks is safe because nodes draw from their own
        per-node streams, never the radio's, and the per-link loss model
        keeps independent per-link generators.
        """
        self._tx_until[message.src] = -np.inf
        self._tx_count -= 1
        if entry is None:
            self.fast_path_frames += 1
            ruin: Dict[int, str] = {}
            reach: Collection[int] = receivers
        else:
            self.generic_frames += 1
            ruin = entry.ruin
            reach = entry.receiver_set
        node_alive = self.node_alive
        loss_model = self.loss_model
        loss_p = self.config.loss_probability

        if (
            not ruin
            and node_alive is None
            and loss_model is None
            and loss_p == 0.0
        ):
            # Nothing can drop — the path a 10^5-node perfect-channel
            # run takes: every receiver decodes, nothing draws.
            self._record_deliveries(message, record, receivers, reach)
            return

        if len(ruin) == len(receivers):
            # Every reception was ruined at flag time (a saturated
            # storm): nothing survives to probe liveness, draw loss, or
            # consult the loss model.  Emit the drops straight from the
            # ruin map, in receiver order.
            self.trace.record_drop_batch(
                record,
                message,
                [(receiver, ruin[receiver]) for receiver in receivers],
            )
            self._record_deliveries(message, record, (), reach)
            return

        # ``dropped`` maps each dropped receiver to its reason, starting
        # from the ruin causes recorded at flag time; ``survivors`` are
        # the receptions every check so far let through, in receiver
        # order.
        if ruin:
            dropped = dict(ruin)
            survivors = [r for r in receivers if r not in ruin]
        else:
            dropped = {}
            survivors = receivers
        if node_alive is not None:
            alive = []
            for receiver in survivors:
                if node_alive(receiver):
                    alive.append(receiver)
                else:
                    dropped[receiver] = DropReason.RECEIVER_DEAD
            survivors = alive
        if loss_p > 0.0 and survivors:
            lost = (self._rng.random(len(survivors)) < loss_p).tolist()
            kept = []
            for receiver, is_lost in zip(survivors, lost):
                if is_lost:
                    dropped[receiver] = DropReason.RANDOM_LOSS
                else:
                    kept.append(receiver)
            survivors = kept
        if loss_model is not None:
            now = self.engine.now
            src = message.src
            kept = []
            for receiver in survivors:
                if loss_model(src, receiver, now):
                    dropped[receiver] = DropReason.BURST_LOSS
                else:
                    kept.append(receiver)
            survivors = kept

        if dropped:
            self.trace.record_drop_batch(
                record,
                message,
                [
                    (receiver, dropped[receiver])
                    for receiver in receivers
                    if receiver in dropped
                ],
            )
        self._record_deliveries(message, record, survivors, reach)

    def _record_deliveries(
        self,
        message: Message,
        record: Optional[FrameRecord],
        delivered,
        reach: Collection[int],
    ) -> None:
        """Account and dispatch the decoded fan-out, then notify.

        ``delivered`` is the decoded subset of the sender's receivers
        ``reach``, in receiver order.  A decoded unicast frame is
        dispatched to its addressee and to the bystanders in
        :attr:`overhearers`, in receiver order; the sender learns
        whether the addressee decoded it, and a unicast to a node out
        of radio range is recorded as NO_RECEIVER.  Broadcasts always
        acknowledge.
        """
        trace = self.trace
        deliver = self._deliver
        if message.is_broadcast:
            trace.record_delivery_batch(record, message, delivered)
            for receiver in delivered:
                deliver(receiver, message, True)
            if self._notify_sender is not None:
                self._notify_sender(message, True)
            return
        dst = message.dst
        overhearers = self.overhearers
        if overhearers is not None and not overhearers:
            # No bystander overhears: only the addressee is dispatched.
            decoded = dst in delivered
            if decoded:
                trace.record_delivery(record, message, dst)
                deliver(dst, message, True)
        else:
            decoded = False
            for receiver in delivered:
                if receiver == dst:
                    decoded = True
                    trace.record_delivery(record, message, receiver)
                    deliver(receiver, message, True)
                elif overhearers is None or receiver in overhearers:
                    deliver(receiver, message, False)
        if dst not in reach:
            # Unicast to a node outside radio range: nobody to decode it.
            trace.record_drop(None, message, dst, DropReason.NO_RECEIVER)
        if self._notify_sender is not None:
            self._notify_sender(message, decoded)
