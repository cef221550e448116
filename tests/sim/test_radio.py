"""Tests for the shared-medium radio: delivery, overhearing, collisions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.net.topology import grid_deployment
from repro.sim.engine import EventEngine
from repro.sim.messages import BROADCAST, HelloMessage, Message
from repro.sim.radio import RadioConfig, RadioMedium
from repro.sim.trace import DropReason, TraceCollector


class Harness:
    """Bare radio over a line topology with recording callbacks."""

    def __init__(self, *, config=None, nodes=5):
        self.topology = grid_deployment(
            1, nodes, spacing=40.0, radio_range=50.0
        )
        self.engine = EventEngine()
        self.trace = TraceCollector(keep_frames=True)
        self.delivered = []  # (receiver, frame_id, addressed)
        self.feedback = []  # (frame_id, delivered)
        self.radio = RadioMedium(
            engine=self.engine,
            topology=self.topology,
            trace=self.trace,
            deliver=lambda r, m, a: self.delivered.append((r, m.frame_id, a)),
            rng=np.random.default_rng(0),
            config=config,
            notify_sender=lambda m, ok: self.feedback.append((m.frame_id, ok)),
        )

    def send(self, src, dst, *, at=0.0):
        msg = HelloMessage(src=src, dst=dst)
        self.engine.schedule_at(at, lambda: self.radio.transmit(msg))
        return msg


class TestDelivery:
    def test_broadcast_reaches_all_neighbors(self):
        h = Harness()
        msg = h.send(2, BROADCAST)
        h.engine.run()
        receivers = {r for r, fid, a in h.delivered if fid == msg.frame_id}
        assert receivers == {1, 3}

    def test_unicast_delivered_only_to_addressee(self):
        h = Harness()
        msg = h.send(2, 3)
        h.engine.run()
        addressed = [
            (r, a) for r, fid, a in h.delivered if fid == msg.frame_id
        ]
        assert (3, True) in addressed
        # Node 1 overhears the frame (shared medium) but is not addressed.
        assert (1, False) in addressed

    def test_out_of_range_not_delivered(self):
        h = Harness()
        msg = h.send(0, 4)  # 4 hops away
        h.engine.run()
        assert all(fid != msg.frame_id or r in {1} for r, fid, a in h.delivered)
        assert (msg.frame_id, False) in h.feedback
        assert h.trace.dropped_count[DropReason.NO_RECEIVER] == 1

    def test_airtime_scales_with_size(self):
        h = Harness()
        small = HelloMessage(src=0, dst=1)
        assert h.radio.airtime(small) == pytest.approx(
            small.size_bytes * 8 / 1_000_000
        )

    def test_sender_feedback_success(self):
        h = Harness()
        msg = h.send(1, 2)
        h.engine.run()
        assert (msg.frame_id, True) in h.feedback

    def test_broadcast_feedback_always_true(self):
        h = Harness()
        msg = h.send(1, BROADCAST)
        h.engine.run()
        assert (msg.frame_id, True) in h.feedback


class TestCollisions:
    def test_overlapping_frames_collide_at_common_receiver(self):
        h = Harness()
        # 1 and 3 both talk to 2 at the same instant: both frames die at 2.
        a = h.send(1, 2, at=0.0)
        b = h.send(3, 2, at=0.0)
        h.engine.run()
        delivered_ids = {fid for r, fid, _ in h.delivered if r == 2}
        assert a.frame_id not in delivered_ids
        assert b.frame_id not in delivered_ids
        assert h.trace.dropped_count[DropReason.COLLISION] >= 2

    def test_non_overlapping_frames_both_arrive(self):
        h = Harness()
        a = h.send(1, 2, at=0.0)
        b = h.send(3, 2, at=0.1)
        h.engine.run()
        delivered_ids = {fid for r, fid, _ in h.delivered if r == 2}
        assert {a.frame_id, b.frame_id} <= delivered_ids

    def test_distant_transmissions_do_not_interfere(self):
        h = Harness(nodes=7)
        a = h.send(0, 1, at=0.0)
        b = h.send(6, 5, at=0.0)
        h.engine.run()
        ok = {fid for fid, good in h.feedback if good}
        assert {a.frame_id, b.frame_id} <= ok

    def test_half_duplex_receiver_cannot_decode_while_sending(self):
        h = Harness()
        a = h.send(2, 3, at=0.0)
        b = h.send(1, 2, at=0.00001)  # arrives while 2 is transmitting
        h.engine.run()
        assert (b.frame_id, False) in h.feedback

    def test_collisions_disabled_by_config(self):
        h = Harness(config=RadioConfig(collisions_enabled=False))
        a = h.send(1, 2, at=0.0)
        b = h.send(3, 2, at=0.0)
        h.engine.run()
        delivered_ids = {fid for r, fid, _ in h.delivered if r == 2}
        assert {a.frame_id, b.frame_id} <= delivered_ids

    def test_sender_cannot_double_transmit(self):
        h = Harness()
        h.send(1, 2, at=0.0)
        h.send(1, 2, at=0.0)
        with pytest.raises(SimulationError):
            h.engine.run()


class TestRandomLoss:
    def test_loss_probability_one_drops_everything(self):
        h = Harness(config=RadioConfig(loss_probability=1.0))
        msg = h.send(1, 2)
        h.engine.run()
        assert not [d for d in h.delivered if d[1] == msg.frame_id]
        assert h.trace.dropped_count[DropReason.RANDOM_LOSS] >= 1

    def test_loss_probability_zero_keeps_everything(self):
        h = Harness(config=RadioConfig(loss_probability=0.0))
        msg = h.send(1, 2)
        h.engine.run()
        assert (msg.frame_id, True) in h.feedback

    def test_config_validation(self):
        with pytest.raises(SimulationError):
            RadioConfig(loss_probability=1.5)
        with pytest.raises(SimulationError):
            RadioConfig(data_rate_bps=0)
        with pytest.raises(SimulationError):
            RadioConfig(propagation_delay=-1.0)
        # NaN fails every comparison; accepted, it delivered frames at
        # time NaN and left the engine clock at NaN.
        with pytest.raises(SimulationError):
            RadioConfig(data_rate_bps=float("nan"))
        with pytest.raises(SimulationError):
            RadioConfig(propagation_delay=float("nan"))


class TestChannelSensing:
    def test_senses_busy_during_neighbor_transmission(self):
        h = Harness()
        h.send(1, 2, at=0.0)
        observed = []
        h.engine.schedule_at(
            1e-5, lambda: observed.append(h.radio.senses_busy(2))
        )
        h.engine.run()
        assert observed == [True]

    def test_idle_after_transmission_ends(self):
        h = Harness()
        h.send(1, 2, at=0.0)
        h.engine.run()
        assert not h.radio.senses_busy(2)

    def test_far_node_does_not_sense(self):
        h = Harness()
        h.send(1, 2, at=0.0)
        observed = []
        h.engine.schedule_at(
            1e-5, lambda: observed.append(h.radio.senses_busy(4))
        )
        h.engine.run()
        assert observed == [False]
