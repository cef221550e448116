"""Equivalence and bookkeeping tests for the radio's perfect channel.

With collisions disabled a frame never enters the in-flight ledger: its
end-of-frame resolution runs straight off the sender's cached receiver
tuple.  That shortcut is only legal if it is *observably identical* to
concluding every (frame, receiver) reception on its own: same
deliveries in the same order, same drop records, same RNG draw
sequence, same sender feedback.  These tests run identical workloads
through the production radio and through the per-reception resolver
kept in ``tests/radio_oracle.py``, and diff everything the simulator
can observe.
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


class Run:
    """One broadcast-storm run over a 4x4 grid, recording everything."""

    def __init__(
        self,
        *,
        oracle: bool,
        loss_probability: float = 0.0,
        dead_nodes=(),
        liveness_probe: bool = True,
        loss_model=None,
        keep_frames: bool = True,
        frames_per_node: int = 4,
        unicast: bool = False,
    ):
        self.topology = grid_deployment(4, 4, spacing=30.0, radio_range=45.0)
        self.engine = EventEngine()
        self.trace = TraceCollector(keep_frames=keep_frames)
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
                collisions_enabled=False, loss_probability=loss_probability
            ),
            notify_sender=self._on_feedback,
            node_alive=(
                (lambda nid: nid not in dead) if liveness_probe else None
            ),
        )
        self.oracle = install_reception_oracle(self.radio) if oracle else None
        if loss_model is not None:
            self.radio.loss_model = loss_model
        self._remaining = {
            nid: frames_per_node for nid in range(self.topology.node_count)
        }
        self._unicast = unicast
        for nid in range(self.topology.node_count):
            self.engine.schedule(
                1e-4 * (nid + 1), lambda nid=nid: self._send(nid)
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
            self._send(message.src)


def _assert_equivalent(**kwargs):
    fast = Run(oracle=False, **kwargs)
    reference = Run(oracle=True, **kwargs)
    # Every observable the simulator exposes must match bit-for-bit.
    assert fast.delivered == reference.delivered
    assert fast.feedback == reference.feedback
    assert fast.trace.summary() == reference.trace.summary()
    assert fast.engine.now == reference.engine.now
    # The post-run RNG state proves both paths drew identically.
    assert fast.radio._rng.random() == reference.radio._rng.random()
    if kwargs.get("keep_frames", True):
        fast_frames = [
            (f.kind, f.src, f.dst, f.delivered_to, f.dropped_at)
            for f in fast.trace.frames
        ]
        reference_frames = [
            (f.kind, f.src, f.dst, f.delivered_to, f.dropped_at)
            for f in reference.trace.frames
        ]
        assert fast_frames == reference_frames


class TestFastPathEquivalence:
    def test_clean_broadcast(self):
        _assert_equivalent()
        # No probe, no loss: the resolver's nothing-can-drop shortcut.
        _assert_equivalent(liveness_probe=False)

    def test_bernoulli_loss_draws_in_same_order(self):
        _assert_equivalent(loss_probability=0.3)

    def test_dead_receivers(self):
        _assert_equivalent(dead_nodes=(5, 6, 10), loss_probability=0.2)

    def test_unicast_with_overhearing_and_out_of_range_addressee(self):
        # (nid+1) addressing includes the 15 -> 0 wrap, which is out of
        # radio range on the grid: exercises the NO_RECEIVER drop.
        _assert_equivalent(unicast=True, loss_probability=0.1)
        _assert_equivalent(unicast=True, liveness_probe=False)

    def test_burst_loss_model_called_identically(self):
        calls_fast, calls_reference = [], []

        def model_factory(log):
            def model(src, dst, now):
                log.append((src, dst, round(now, 9)))
                return (src + dst) % 5 == 0

            return model

        fast = Run(oracle=False, loss_model=model_factory(calls_fast))
        reference = Run(oracle=True, loss_model=model_factory(calls_reference))
        assert calls_fast == calls_reference
        assert fast.delivered == reference.delivered
        assert fast.trace.summary() == reference.trace.summary()

    def test_counters_only_trace(self):
        _assert_equivalent(keep_frames=False)

    def test_fast_path_leaves_no_reception_state(self):
        run = Run(oracle=False, loss_probability=0.1)
        reference = Run(oracle=True, loss_probability=0.1)
        assert reference.oracle.active_receptions == {}
        assert run.radio._in_flight == []
        assert not (run.radio._tx_until > -np.inf).any()
        assert run.radio._tx_count == 0

    def test_clean_frames_never_enter_the_ledger(self):
        # Step a collisions-off storm one event at a time: frames are
        # on the air at once, yet none of them ever has a ledger record.
        topology = grid_deployment(4, 4, spacing=30.0, radio_range=45.0)
        engine = EventEngine()
        radio = RadioMedium(
            engine=engine,
            topology=topology,
            trace=TraceCollector(),
            deliver=lambda r, m, a: None,
            rng=np.random.default_rng(0),
            config=RadioConfig(collisions_enabled=False),
        )
        for nid in range(topology.node_count):
            engine.schedule(
                1e-5 * (nid + 1),
                lambda nid=nid: radio.transmit(
                    HelloMessage(src=nid, dst=BROADCAST)
                ),
            )
        most_on_air = 0
        while engine.pending_events:
            engine.run(max_events=1)
            assert radio._in_flight == []
            most_on_air = max(most_on_air, radio._tx_count)
        assert most_on_air > 1
        assert radio.fast_path_frames == topology.node_count
        assert radio.generic_frames == 0


class TestStaleTransmitterPruning:
    """Channel-state queries against the `_tx_until` array."""

    def _radio(self, **config_kwargs):
        topology = grid_deployment(1, 3, spacing=40.0, radio_range=50.0)
        engine = EventEngine()
        radio = RadioMedium(
            engine=engine,
            topology=topology,
            trace=TraceCollector(),
            deliver=lambda r, m, a: None,
            rng=np.random.default_rng(0),
            config=RadioConfig(**config_kwargs),
        )
        return engine, radio

    def test_is_transmitting_ignores_expired_entry(self):
        engine, radio = self._radio()
        radio._tx_until[1] = engine.now - 1.0
        assert not radio.is_transmitting(1)

    def test_is_transmitting_sees_live_entry(self):
        engine, radio = self._radio()
        radio._tx_until[1] = engine.now + 1.0
        assert radio.is_transmitting(1)

    def test_senses_busy_ignores_expired_neighbor_entries(self):
        engine, radio = self._radio()
        radio._tx_until[0] = engine.now - 0.5
        radio._tx_until[2] = engine.now - 0.5
        radio._tx_count = 2
        assert not radio.senses_busy(1)

    def test_senses_busy_still_sees_live_neighbor(self):
        engine, radio = self._radio()
        radio._tx_until[0] = engine.now + 0.5
        radio._tx_count = 1
        assert radio.senses_busy(1)

    def test_idle_channel_short_circuits_carrier_sense(self):
        engine, radio = self._radio()
        assert radio._tx_count == 0
        assert not radio.senses_busy(1)

    def test_array_idle_after_traffic(self):
        for collisions in (False, True):
            engine, radio = self._radio(collisions_enabled=collisions)
            for src in (0, 1, 2):
                engine.schedule(
                    0.01 * (src + 1),
                    lambda src=src: radio.transmit(
                        HelloMessage(src=src, dst=BROADCAST)
                    ),
                )
            engine.run()
            assert not (radio._tx_until > -np.inf).any()
            assert radio._tx_count == 0
            assert radio._in_flight == []


class TestNeighborCache:
    def test_cache_populated_sorted(self):
        engine, radio = TestStaleTransmitterPruning()._radio()
        assert radio._sorted_neighbors(1) == (0, 2)
        assert radio._neighbor_cache[1] == (0, 2)
        # Second call hits the cache (same object).
        assert radio._sorted_neighbors(1) is radio._neighbor_cache[1]

    def test_topology_version_bump_invalidates(self):
        engine, radio = TestStaleTransmitterPruning()._radio()
        assert radio._sorted_neighbors(1) == (0, 2)
        # Simulate an in-place topology edit (e.g. a link removed).
        radio.topology.adjacency[1] = frozenset({2})
        radio.topology.invalidate_caches()
        assert radio._sorted_neighbors(1) == (2,)
        assert radio._sorted_neighbors(0) == (1,)
