"""A finished round leaves nothing for the cycle collector.

Each one-shot runner closes its network once the outcome is built, so
the run's nodes, MACs, radio and injector are freed by reference
counting the moment the runner returns.  Every test here runs with the
garbage collector disabled and never calls ``gc.collect()``: a weak
reference that is still alive afterwards belongs to a cycle that only a
full collection would free.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro import (
    CrashEvent,
    FaultPlan,
    IpdaProtocol,
    PdaProtocol,
    RngStreams,
    TagProtocol,
    random_deployment,
)
from repro.core.config import IpdaConfig, RobustnessConfig
from repro.protocols import MipdaProtocol
from repro.serve import LOSS_PRESETS
from repro.sim.network import Network
from repro.sim.node import Node

TOPOLOGY = random_deployment(60, area=180.0, seed=1)

#: a crash with recovery, a permanent crash and light burst loss.  Both
#: crashes land in the slicing window, while node 7 still waits for a
#: slice's ACK: its timeout comes due while it is down.
PLAN = FaultPlan(
    crashes=(
        CrashEvent(node=3, at=11.0, recover_at=21.0),
        CrashEvent(node=7, at=12.5),
    ),
    burst_loss=LOSS_PRESETS["light"],
    seed=1,
)

#: TAG's convergecast runs late in its round; a crash wave at 68.15 s
#: lands while some reports still wait for their ACKs.
TAG_TOPOLOGY = random_deployment(60, area=180.0, seed=2)
TAG_CRASHES = FaultPlan(
    crashes=tuple(
        CrashEvent(node=node, at=68.15 + 0.001 * node)
        for node in range(1, TAG_TOPOLOGY.node_count, 4)
    ),
    burst_loss=LOSS_PRESETS["light"],
    seed=2,
)

ROBUST = RobustnessConfig()


def _round(protocol, topology=TOPOLOGY, seed=1, **kwargs):
    readings = {i: (7 * i) % 11 for i in range(1, topology.node_count)}
    return protocol.run_round(
        topology, readings, streams=RngStreams(seed), **kwargs
    )


CASES = {
    "ipda": lambda: _round(IpdaProtocol()),
    "ipda-robust-faults": lambda: _round(
        IpdaProtocol(IpdaConfig(robustness=ROBUST)), fault_plan=PLAN
    ),
    "ipda-two-faced-frames": lambda: _round(
        IpdaProtocol(keep_frames=True), two_faced={9}
    ),
    "ipda-failures": lambda: _round(
        IpdaProtocol(), failures={5: 12.0, 9: 25.0}
    ),
    "tag": lambda: _round(TagProtocol()),
    "tag-robust-faults": lambda: _round(
        TagProtocol(robustness=ROBUST), fault_plan=PLAN
    ),
    "tag-robust-convergecast-crashes": lambda: _round(
        TagProtocol(robustness=ROBUST),
        topology=TAG_TOPOLOGY,
        seed=2,
        fault_plan=TAG_CRASHES,
    ),
    "pda": lambda: _round(PdaProtocol()),
    "mipda-3": lambda: _round(MipdaProtocol(tree_count=3)),
}


@pytest.fixture
def no_collector():
    """Run the test with the cyclic garbage collector switched off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.fixture
def built(monkeypatch):
    """Weak references to every network built, and to its nodes."""
    refs = []
    init = Network.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))
        refs.extend(weakref.ref(node) for node in self.nodes.values())

    monkeypatch.setattr(Network, "__init__", tracking_init)
    return refs


def _alive(refs):
    return [index for index, ref in enumerate(refs) if ref() is not None]


@pytest.mark.parametrize("case", sorted(CASES))
def test_round_is_freed_when_the_runner_returns(case, built, no_collector):
    outcome = CASES[case]()
    assert built
    assert _alive(built) == []
    assert outcome.frames_sent > 0


def test_outcome_keeps_the_frame_log(built, no_collector):
    outcome = CASES["ipda-two-faced-frames"]()
    assert _alive(built) == []
    frames = outcome.stats["frames"]
    assert len(frames) == outcome.frames_sent


def test_close_frees_an_armed_network_with_pending_events(no_collector):
    network = Network(TOPOLOGY, Node, streams=RngStreams(1), fault_plan=PLAN)
    node = network.node(4)
    node.schedule(20.0, lambda: None)  # its closure holds the node
    network.run(until=11.5)  # node 3 is down, its recovery still due
    assert network.engine.pending_events > 0
    assert network.down == {3}
    injector = network.injector
    assert injector is not None and injector.channel is not None
    refs = [weakref.ref(network), weakref.ref(injector)]
    refs += [weakref.ref(n) for n in network.nodes.values()]
    refs.append(weakref.ref(network.mac(4)))
    del node, injector

    network.close()
    assert network.engine.pending_events == 0
    assert network.nodes == {}
    assert network.radio is None and network.injector is None
    # What the caller reads after a round stays readable.
    assert network.trace.fault_events
    assert network.engine.now == 11.5
    del network
    assert _alive(refs) == []
