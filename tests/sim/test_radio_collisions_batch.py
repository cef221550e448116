"""Equivalence and regression tests for the batch collision resolver.

With collisions enabled the medium tracks each frame as one
struct-of-arrays ledger record (:class:`_InFlightFrame`) and resolves
the whole fan-out at end-of-frame in vectorized batches.  That rewrite
is only legal if it is *observably identical* to the historical
per-``Reception`` loop: same deliveries in the same order, same drop
records and reasons, same RNG draw sequence, same sender feedback.
These tests run identical workloads down both resolvers (the old one is
kept as the test oracle in ``tests/radio_oracle.py``) and diff
everything the simulator can observe — plus regression tests for the
drop-reason misattribution bug fixed alongside the ledger.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.topology import grid_deployment
from repro.sim.engine import EventEngine
from repro.sim.messages import BROADCAST, HelloMessage
from repro.sim.radio import RadioConfig, RadioMedium
from repro.sim.trace import DropReason, TraceCollector
from tests.radio_oracle import install_reception_oracle


class CollisionRun:
    """One contended run over a 4x4 grid, recording everything.

    Every node fires ``frames_per_node`` frames; the schedule staggers
    starts by less than one airtime (22-byte HELLO at 1 Mbps = 176 µs),
    so neighbouring fan-outs overlap heavily: collisions, half-duplex
    ruins (feedback-driven follow-up frames start while the sender is
    still receiving others), and clean deliveries all occur in bulk.
    """

    def __init__(
        self,
        *,
        oracle: bool,
        loss_probability: float = 0.0,
        dead_nodes=(),
        loss_model=None,
        keep_frames: bool = True,
        detail: str = "full",
        frames_per_node: int = 4,
        unicast: bool = False,
        stagger: float = 1e-4,
    ):
        self.topology = grid_deployment(4, 4, spacing=30.0, radio_range=45.0)
        self.engine = EventEngine()
        self.trace = TraceCollector(keep_frames=keep_frames, detail=detail)
        self.delivered = []
        self.feedback = []
        dead = set(dead_nodes)
        self.radio = RadioMedium(
            engine=self.engine,
            topology=self.topology,
            trace=self.trace,
            # Record src, not frame_id: frame ids come from a global
            # counter and differ between the two runs being diffed.
            deliver=lambda r, m, a: self.delivered.append(
                (self.engine.now, r, m.src, a)
            ),
            rng=np.random.default_rng(777),
            config=RadioConfig(
                collisions_enabled=True, loss_probability=loss_probability
            ),
            notify_sender=self._on_feedback,
            node_alive=(lambda nid: nid not in dead) if dead else None,
        )
        if oracle:
            install_reception_oracle(self.radio)
        if loss_model is not None:
            self.radio.loss_model = loss_model
        self._remaining = {
            nid: frames_per_node for nid in range(self.topology.node_count)
        }
        self._unicast = unicast
        for nid in range(self.topology.node_count):
            self.engine.schedule(
                stagger * (nid + 1), lambda nid=nid: self._send(nid)
            )
        self.engine.run()

    def _send(self, nid):
        self._remaining[nid] -= 1
        dst = (
            (nid + 1) % self.topology.node_count
            if self._unicast
            else BROADCAST
        )
        self.radio.transmit(HelloMessage(src=nid, dst=dst))

    def _on_feedback(self, message, ok):
        self.feedback.append((message.src, ok))
        if self._remaining[message.src]:
            # Re-send immediately at end-of-frame: back-to-back frames
            # whose receptions elsewhere overlap the follow-up exactly
            # at its start boundary, plus sender-side half-duplex ruin
            # of everything still inbound.
            self._send(message.src)


def _assert_equivalent(**kwargs):
    batch = CollisionRun(oracle=False, **kwargs)
    legacy = CollisionRun(oracle=True, **kwargs)
    # Every observable the simulator exposes must match bit-for-bit.
    assert batch.delivered == legacy.delivered
    assert batch.feedback == legacy.feedback
    assert batch.trace.summary() == legacy.trace.summary()
    assert batch.engine.now == legacy.engine.now
    assert batch.radio.generic_frames == legacy.radio.generic_frames
    # The post-run RNG state proves both paths drew identically.
    assert batch.radio._rng.random() == legacy.radio._rng.random()
    if kwargs.get("keep_frames", True):
        batch_frames = [
            (f.kind, f.src, f.dst, f.delivered_to, f.dropped_at)
            for f in batch.trace.frames
        ]
        legacy_frames = [
            (f.kind, f.src, f.dst, f.delivered_to, f.dropped_at)
            for f in legacy.trace.frames
        ]
        assert batch_frames == legacy_frames
    return batch, legacy


class TestBatchResolverEquivalence:
    def test_contended_broadcast_storm(self):
        batch, _ = _assert_equivalent()
        # The schedule must actually have produced collisions, or this
        # suite proves nothing.
        assert batch.trace.dropped_count[DropReason.COLLISION] > 0

    def test_half_duplex_ruins_present(self):
        batch, _ = _assert_equivalent(frames_per_node=6, stagger=0.9e-4)
        assert batch.trace.dropped_count[DropReason.HALF_DUPLEX] > 0

    def test_unicast_feedback_and_out_of_range_addressee(self):
        # (nid+1) addressing includes the 15 -> 0 wrap, which is out of
        # radio range on the grid: exercises the NO_RECEIVER drop and
        # the per-addressee ACK outcome under contention.
        _assert_equivalent(unicast=True)

    def test_bernoulli_loss_draws_in_same_order(self):
        _assert_equivalent(loss_probability=0.3)

    def test_dead_receivers(self):
        _assert_equivalent(dead_nodes=(5, 6, 10), loss_probability=0.2)

    def test_bernoulli_and_burst_model_stacking(self):
        # Gilbert–Elliott-style stateful model on top of the flat
        # Bernoulli knob: the call sequence into the model must match
        # exactly, or its internal state diverges between runs.
        calls_batch, calls_legacy = [], []

        def model_factory(log):
            def model(src, dst, now):
                log.append((src, dst, round(now, 9)))
                return (src * 31 + dst + len(log)) % 7 == 0

            return model

        batch = CollisionRun(
            oracle=False,
            loss_probability=0.15,
            loss_model=model_factory(calls_batch),
        )
        legacy = CollisionRun(
            oracle=True,
            loss_probability=0.15,
            loss_model=model_factory(calls_legacy),
        )
        assert calls_batch == calls_legacy
        assert batch.delivered == legacy.delivered
        assert batch.feedback == legacy.feedback
        assert batch.trace.summary() == legacy.trace.summary()
        assert batch.radio._rng.random() == legacy.radio._rng.random()

    def test_everything_at_once(self):
        batch, _ = _assert_equivalent(
            unicast=True,
            loss_probability=0.25,
            dead_nodes=(3, 9),
            frames_per_node=5,
            stagger=1.8e-4,
        )
        reasons = set(batch.trace.dropped_count)
        assert DropReason.COLLISION in reasons
        assert DropReason.HALF_DUPLEX in reasons
        assert DropReason.RANDOM_LOSS in reasons
        assert DropReason.RECEIVER_DEAD in reasons

    def test_counters_only_trace(self):
        _assert_equivalent(keep_frames=False, detail="counters")


def _bare_radio(nodes=5, **config_kwargs):
    topology = grid_deployment(1, nodes, spacing=40.0, radio_range=50.0)
    engine = EventEngine()
    trace = TraceCollector(keep_frames=True)
    radio = RadioMedium(
        engine=engine,
        topology=topology,
        trace=trace,
        deliver=lambda r, m, a: None,
        rng=np.random.default_rng(0),
        config=RadioConfig(
            collisions_enabled=True,
            propagation_delay=0.0,
            **config_kwargs,
        ),
    )
    return engine, radio, trace


AIRTIME = 22 * 8 / 1e6  # 22-byte HELLO at 1 Mbps


class TestBoundaryScenarios:
    """Hand-built timelines where the exact comparison operator matters."""

    def _run_both(self, schedule):
        results = []
        for legacy in (False, True):
            engine, radio, trace = _bare_radio()
            if legacy:
                install_reception_oracle(radio)
            for time, src, dst in schedule:
                engine.schedule(
                    time,
                    lambda src=src, dst=dst: radio.transmit(
                        HelloMessage(src=src, dst=dst)
                    ),
                )
            engine.run()
            results.append(trace)
        batch, legacy = results
        assert batch.summary() == legacy.summary()
        return batch

    def test_back_to_back_frames_do_not_collide(self):
        # B starts exactly when A ends (start == end): the overlap test
        # is strict, so both fan-outs deliver cleanly.
        trace = self._run_both([(0.0, 0, BROADCAST), (AIRTIME, 2, BROADCAST)])
        assert trace.total_drops == 0
        assert sum(trace.delivered_count.values()) == 3

    def test_one_tick_overlap_collides(self):
        # B starts one float tick before A ends: both die at the common
        # receiver (node 1), and node 1 was not transmitting, so both
        # drops are collisions.
        early = np.nextafter(AIRTIME, 0.0)
        trace = self._run_both([(0.0, 0, BROADCAST), (early, 2, BROADCAST)])
        assert trace.dropped_count[DropReason.COLLISION] == 2
        assert trace.dropped_count.get(DropReason.HALF_DUPLEX, 0) == 0

    def test_overlap_chain(self):
        # A(src 0) overlaps B(src 2) at node 1; B overlaps C(src 4) at
        # node 3; A and C never overlap in time.  Every common-receiver
        # pair dies, nothing else does.
        schedule = [
            (0.0, 0, BROADCAST),
            (AIRTIME * 0.75, 2, BROADCAST),
            (AIRTIME * 1.5, 4, BROADCAST),
        ]
        trace = self._run_both(schedule)
        assert trace.dropped_by_link[(0, 1)][DropReason.COLLISION] == 1
        assert trace.dropped_by_link[(2, 1)][DropReason.COLLISION] == 1
        assert trace.dropped_by_link[(2, 3)][DropReason.COLLISION] == 1
        assert trace.dropped_by_link[(4, 3)][DropReason.COLLISION] == 1
        # On the 1x5 line those four line-interior slots are the only
        # receptions: A and C (which never overlap) die only where they
        # meet B, with no cross-ruin between each other.
        assert trace.total_drops == 4
        assert trace.delivered_count["hello"] == 0

    def test_sender_half_duplex_ruins_inbound(self):
        # Node 2 starts sending while node 1's frame is still inbound:
        # 1's frame dies at 2 (sender-side ruin of an in-flight
        # reception) and 2's frame dies at the still-transmitting node
        # 1 (receiver-busy) — both HALF-DUPLEX, captured at flag time.
        schedule = [(0.0, 1, BROADCAST), (AIRTIME * 0.5, 2, BROADCAST)]
        trace = self._run_both(schedule)
        assert dict(trace.dropped_by_link[(1, 2)]) == {
            DropReason.HALF_DUPLEX: 1
        }
        assert dict(trace.dropped_by_link[(2, 1)]) == {
            DropReason.HALF_DUPLEX: 1
        }
        # The line-end receivers (0 and 3) hear only one frame each.
        assert trace.delivered_count["hello"] == 2

    def test_ledger_empty_after_run(self):
        for legacy in (False, True):
            engine, radio, trace = _bare_radio()
            oracle = install_reception_oracle(radio) if legacy else None
            for src in (0, 1, 2, 3, 4):
                engine.schedule(
                    AIRTIME * 0.3 * src,
                    lambda src=src: radio.transmit(
                        HelloMessage(src=src, dst=BROADCAST)
                    ),
                )
            engine.run()
            assert radio._in_flight == []
            assert not (radio._tx_until > -np.inf).any()
            assert radio._tx_count == 0
            if oracle is not None:
                assert oracle.active_receptions == {}


class TestDropReasonRegression:
    """The drop-reason misattribution bug (fixed in this PR).

    ``_conclude_reception`` used to classify HALF_DUPLEX vs COLLISION
    from ``is_transmitting(receiver)`` *at end-of-frame*, so a frame
    ruined by the receiver's own earlier transmission was mislabeled
    COLLISION once that transmission ended.  Both resolvers must now
    record the cause captured when the reception was flagged.
    """

    @pytest.mark.parametrize("legacy", [False, True])
    def test_receiver_busy_at_start_is_half_duplex(self, legacy):
        # Node 2 transmits at t=0 (ends at one airtime).  Node 1 sends
        # to node 2 at t=0.5 airtime; node 2 is still busy then, but
        # idle by the *end* of node 1's frame — the pre-fix code
        # therefore mislabeled this drop COLLISION.
        engine, radio, trace = _bare_radio()
        if legacy:
            install_reception_oracle(radio)
        engine.schedule(
            0.0, lambda: radio.transmit(HelloMessage(src=2, dst=BROADCAST))
        )
        engine.schedule(
            AIRTIME * 0.5,
            lambda: radio.transmit(HelloMessage(src=1, dst=2)),
        )
        engine.run()
        drops = dict(trace.dropped_by_link[(1, 2)])
        assert drops == {DropReason.HALF_DUPLEX: 1}
        assert trace.dropped_count.get(DropReason.COLLISION, 0) == 0
        # 2's own broadcast dies at 1 (which transmitted mid-reception):
        # also half-duplex, captured at flag time.
        assert dict(trace.dropped_by_link[(2, 1)]) == {
            DropReason.HALF_DUPLEX: 1
        }

    @pytest.mark.parametrize("legacy", [False, True])
    def test_busy_receiver_overlapped_by_two_frames_stays_half_duplex(
        self, legacy
    ):
        # Node 2 is busy sending when frames from 1 AND 3 arrive and
        # also overlap each other there: first cause (half-duplex) wins
        # over the later collision ruin.
        engine, radio, trace = _bare_radio()
        if legacy:
            install_reception_oracle(radio)
        engine.schedule(
            0.0, lambda: radio.transmit(HelloMessage(src=2, dst=BROADCAST))
        )
        engine.schedule(
            AIRTIME * 0.4,
            lambda: radio.transmit(HelloMessage(src=1, dst=2)),
        )
        engine.schedule(
            AIRTIME * 0.6,
            lambda: radio.transmit(HelloMessage(src=3, dst=2)),
        )
        engine.run()
        assert dict(trace.dropped_by_link[(1, 2)]) == {
            DropReason.HALF_DUPLEX: 1
        }
        assert dict(trace.dropped_by_link[(3, 2)]) == {
            DropReason.HALF_DUPLEX: 1
        }
