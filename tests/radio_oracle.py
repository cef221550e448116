"""The per-reception radio resolver, kept as a differential-test oracle.

Before the in-flight ledger, the radio modelled every (frame, receiver)
pair as its own :class:`Reception`: ruin was flagged reception by
reception at transmit time, and each reception was concluded on its own
at end-of-frame.  :class:`ReceptionOracle` is that resolver.  Installed
on a :class:`~repro.sim.radio.RadioMedium` it takes over the radio's
``transmit`` and resolves every frame the old way, over the radio's own
channel state, callbacks, trace and RNG, so a test can run one workload
down the production resolver and down this one and diff everything the
simulator can observe.  It honours ``collisions_enabled``, so it is the
reference for both the collision ledger and the perfect channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.sim.messages import Message
from repro.sim.radio import RadioMedium
from repro.sim.trace import DropReason, FrameRecord


@dataclass(slots=True)
class Reception:
    """An in-flight frame as experienced by one receiver."""

    message: Message
    receiver: int
    start: float
    end: float
    collided: bool = False
    #: the cause recorded when ``collided`` was first set.
    ruin_reason: Optional[str] = None
    record: Optional[FrameRecord] = None
    #: position inside ``ReceptionOracle.active_receptions[receiver]``
    #: so conclusion can swap-pop instead of an O(n) list.remove.
    _active_index: int = -1


@dataclass(slots=True)
class _Transmission:
    """An in-flight frame as produced by its sender."""

    message: Message
    sender: int
    start: float
    end: float
    receptions: List[Reception] = field(default_factory=list)


class ReceptionOracle:
    """Per-:class:`Reception` resolution for one radio."""

    def __init__(self, radio: RadioMedium):
        self.radio = radio
        #: receiver id -> its receptions still on the air.
        self.active_receptions: Dict[int, List[Reception]] = {}

    def transmit(self, message: Message) -> float:
        """Stands in for :meth:`RadioMedium.transmit`."""
        radio = self.radio
        sender = message.src
        now = radio.engine.now
        if radio._tx_until[sender] > now:
            raise SimulationError(
                f"node {sender} started a frame while already transmitting"
            )
        config = radio.config
        start = now + config.propagation_delay
        end = start + radio.airtime(message)
        radio._tx_until[sender] = end
        radio._tx_count += 1
        record = radio.trace.record_send(now, message)
        transmission = _Transmission(
            message=message, sender=sender, start=start, end=end
        )

        if config.collisions_enabled:
            # Half-duplex: anything the sender was receiving is ruined.
            for reception in self.active_receptions.get(sender, []):
                if reception.end > start and not reception.collided:
                    reception.collided = True
                    reception.ruin_reason = DropReason.HALF_DUPLEX

        active_map = self.active_receptions
        for receiver in radio._sorted_neighbors(sender):
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

        radio.engine.post_at(
            end, lambda: self._finish_transmission(transmission), priority=-1
        )
        return end

    def _apply_collisions(self, reception: Reception) -> None:
        receiver = reception.receiver
        # Receiver busy sending: the incoming frame is unreadable.
        if self.radio._tx_until[receiver] > reception.start:
            reception.collided = True
            reception.ruin_reason = DropReason.HALF_DUPLEX
        # Overlap with any other in-flight frame at this receiver ruins both.
        for other in self.active_receptions.get(receiver, []):
            if other.end > reception.start:
                if not other.collided:
                    other.collided = True
                    other.ruin_reason = DropReason.COLLISION
                if not reception.collided:
                    reception.collided = True
                    reception.ruin_reason = DropReason.COLLISION

    def _finish_transmission(self, transmission: _Transmission) -> None:
        radio = self.radio
        message = transmission.message
        radio.generic_frames += 1
        radio._tx_until[transmission.sender] = -np.inf
        radio._tx_count -= 1
        addressee_got_it = message.is_broadcast
        addressee_seen = message.is_broadcast
        active_map = self.active_receptions
        receptions = transmission.receptions
        # Hoist the Bernoulli losses into ONE vectorized draw for the
        # receptions that reach the loss stage (not collided, alive) —
        # stream-identical to per-reception scalar draws.  The pre-pass
        # sees exactly what the loop would: collision flags are frozen
        # by end-of-frame (overlap tests are strict, so a frame starting
        # `now` cannot retro-collide one ending `now`) and liveness only
        # changes through scheduled fault events, never mid-event.
        loss_p = radio.config.loss_probability
        node_alive = radio.node_alive
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
                draws = radio._rng.random(drawn)
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
            radio.trace.record_drop(
                None, message, message.dst, DropReason.NO_RECEIVER
            )
        if radio._notify_sender is not None:
            radio._notify_sender(message, addressee_got_it)

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
        radio = self.radio
        trace = radio.trace
        receiver = reception.receiver
        if reception.collided:
            # The ruin cause was recorded when the reception was
            # flagged; re-deriving it here from is_transmitting() at
            # end-of-frame misattributed half-duplex ruins whose
            # blocking transmission had already ended.
            reason = reception.ruin_reason or DropReason.COLLISION
            trace.record_drop(reception.record, message, receiver, reason)
            return False
        if alive is None:
            alive = radio.node_alive is None or radio.node_alive(receiver)
        if not alive:
            trace.record_drop(
                reception.record, message, receiver, DropReason.RECEIVER_DEAD
            )
            return False
        loss_p = radio.config.loss_probability
        if loss_p > 0.0:
            draw = radio._rng.random() if loss_draw is None else loss_draw
            if draw < loss_p:
                trace.record_drop(
                    reception.record, message, receiver, DropReason.RANDOM_LOSS
                )
                return False
        if radio.loss_model is not None and radio.loss_model(
            message.src, receiver, radio.engine.now
        ):
            trace.record_drop(
                reception.record, message, receiver, DropReason.BURST_LOSS
            )
            return False
        if message.is_broadcast or message.dst == receiver:
            trace.record_delivery(reception.record, message, receiver)
            radio._deliver(receiver, message, True)
        elif radio.overhearers is None or receiver in radio.overhearers:
            radio._deliver(receiver, message, False)
        return True


def install_reception_oracle(radio: RadioMedium) -> ReceptionOracle:
    """Route every later ``radio.transmit`` through a new oracle.

    Install before the first transmit: the oracle and the production
    resolver do not share in-flight bookkeeping.
    """
    oracle = ReceptionOracle(radio)
    radio.transmit = oracle.transmit
    return oracle
