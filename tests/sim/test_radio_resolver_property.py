"""Generated differential test of the radio's end-of-frame resolver.

``test_radio_fastpath.py`` and ``test_radio_collisions_batch.py`` pin
the production resolver to the per-reception oracle in
``tests/radio_oracle.py`` on fixed scenarios.  Here hypothesis picks
the scenario: a small grid, collisions on or off, a Bernoulli loss
probability, a set of dead receivers, a deterministic per-link loss
model, broadcast and unicast traffic (addressees out of range
included) and who overhears — every drop cause stacked in one run.
Both resolvers must produce the same deliveries, sender feedback,
trace summaries, frame records (drops in receiver order), loss-model
calls and radio RNG state.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.topology import grid_deployment
from repro.sim.engine import EventEngine
from repro.sim.messages import BROADCAST, HelloMessage
from repro.sim.radio import RadioConfig, RadioMedium
from repro.sim.trace import DropReason, TraceCollector
from tests.radio_oracle import install_reception_oracle


@st.composite
def scenarios(draw):
    rows = draw(st.integers(1, 4))
    cols = draw(st.integers(2, 4))
    nodes = rows * cols
    node_ids = st.integers(0, nodes - 1)
    overhear = draw(st.sampled_from(["all", "none", "some"]))
    return {
        "rows": rows,
        "cols": cols,
        "collisions": draw(st.booleans()),
        "loss_probability": draw(st.sampled_from([0.0, 0.1, 0.35, 1.0])),
        "dead": draw(st.frozensets(node_ids, max_size=nodes // 2)),
        # The loss model drops (src, dst) when (src*a + dst*b) % m == 0;
        # m = 0 means no loss model at all.
        "model": draw(
            st.tuples(
                st.integers(1, 7),
                st.integers(1, 7),
                st.sampled_from([0, 2, 3, 5]),
            )
        ),
        "overhearers": (
            None
            if overhear == "all"
            else frozenset()
            if overhear == "none"
            else draw(st.frozensets(node_ids))
        ),
        # Per node: how many frames, and each frame's addressee offset
        # (0 = broadcast, otherwise (src + offset) % nodes).
        "frames": draw(
            st.lists(
                st.lists(st.integers(0, 3), min_size=1, max_size=3),
                min_size=nodes,
                max_size=nodes,
            )
        ),
        "stagger": draw(st.sampled_from([1e-5, 6e-5, 1e-4, 2.5e-4])),
        "keep_frames": draw(st.booleans()),
    }


class _Run:
    """One scenario through one resolver, recording every observable."""

    def __init__(self, scenario, *, oracle: bool):
        self.topology = grid_deployment(
            scenario["rows"], scenario["cols"], spacing=30.0, radio_range=45.0
        )
        nodes = self.topology.node_count
        self.engine = EventEngine()
        self.trace = TraceCollector(keep_frames=scenario["keep_frames"])
        self.delivered = []
        self.feedback = []
        self.model_calls = []
        dead = scenario["dead"]
        self.radio = RadioMedium(
            engine=self.engine,
            topology=self.topology,
            trace=self.trace,
            # Record src, not frame_id: frame ids come from a global
            # counter and differ between the two runs being diffed.
            deliver=lambda r, m, a: self.delivered.append(
                (self.engine.now, r, m.src, m.dst, a)
            ),
            rng=np.random.default_rng(2024),
            config=RadioConfig(
                collisions_enabled=scenario["collisions"],
                loss_probability=scenario["loss_probability"],
            ),
            notify_sender=self._feedback_then_next,
            node_alive=(lambda nid: nid not in dead) if dead else None,
            overhearers=scenario["overhearers"],
        )
        if oracle:
            install_reception_oracle(self.radio)
        a, b, m = scenario["model"]
        if m:

            def model(src, dst, now):
                self.model_calls.append((src, dst, now))
                return (src * a + dst * b) % m == 0

            self.radio.loss_model = model
        self._queue = {
            nid: list(scenario["frames"][nid]) for nid in range(nodes)
        }
        self._nodes = nodes
        stagger = scenario["stagger"]
        for nid in range(nodes):
            self.engine.schedule(
                stagger * (nid + 1), lambda nid=nid: self._send(nid)
            )
        self.engine.run()

    def _send(self, nid):
        offset = self._queue[nid].pop(0)
        dst = BROADCAST if offset == 0 else (nid + offset) % self._nodes
        self.radio.transmit(HelloMessage(src=nid, dst=dst))

    def _feedback_then_next(self, message, ok):
        self.feedback.append((self.engine.now, message.src, message.dst, ok))
        if self._queue[message.src]:
            # Back-to-back follow-up frames: half-duplex ruin of
            # everything the sender was still receiving.
            self._send(message.src)


#: Every drop cause at once: contention on a 4x4 grid (collisions and
#: half-duplex), Bernoulli loss, dead receivers, a loss model, and
#: unicasts whose addressee is out of range (NO_RECEIVER).
STACKED = {
    "rows": 4,
    "cols": 4,
    "collisions": True,
    "loss_probability": 0.1,
    "dead": frozenset({5, 10}),
    "model": (3, 1, 5),
    "overhearers": frozenset({0, 6, 9}),
    "frames": [[0, 3, 1]] * 16,
    "stagger": 1.8e-4,
    "keep_frames": True,
}


def _assert_equivalent(scenario):
    production = _Run(scenario, oracle=False)
    reference = _Run(scenario, oracle=True)
    assert production.delivered == reference.delivered
    assert production.feedback == reference.feedback
    assert production.model_calls == reference.model_calls
    assert production.trace.summary() == reference.trace.summary()
    assert production.engine.now == reference.engine.now
    assert (
        production.radio._rng.bit_generator.state
        == reference.radio._rng.bit_generator.state
    )
    frames = [
        [
            (f.kind, f.src, f.dst, f.delivered_to, f.dropped_at)
            for f in run.trace.frames
        ]
        for run in (production, reference)
    ]
    assert frames[0] == frames[1]
    assert production.radio._in_flight == []
    assert production.radio._tx_count == 0
    return production


@settings(max_examples=200, deadline=None)
@given(scenario=scenarios())
def test_production_resolver_matches_per_reception_oracle(scenario):
    _assert_equivalent(scenario)


def test_stacked_scenario_hits_every_drop_cause():
    production = _assert_equivalent(STACKED)
    assert set(production.trace.dropped_count) == {
        DropReason.COLLISION,
        DropReason.HALF_DUPLEX,
        DropReason.RANDOM_LOSS,
        DropReason.RECEIVER_DEAD,
        DropReason.BURST_LOSS,
        DropReason.NO_RECEIVER,
    }
