"""The radio -> network -> node delivery contract, under generated runs.

The network dispatches an overheard unicast frame only to nodes whose
class overrides :meth:`Node.on_overhear`, and installs the radio's
liveness probe only while some node is down.  Both are shortcuts: the
contract is that nothing observable changes.  Every generated run
(collisions, mixed broadcast/unicast traffic, crashes and recoveries
through both :meth:`Node.kill` and :meth:`Network.kill_node`, a mix of
node classes) is replayed on :class:`ReferenceNetwork`, the wiring
without either shortcut, and everything the two runs expose must match.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.net.topology import grid_deployment
from repro.sim.mac import MacConfig
from repro.sim.messages import BROADCAST, HelloMessage
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.radio import RadioConfig
from tests.radio_oracle import install_reception_oracle


def _seen(node: Node, message) -> tuple:
    # Frame ids come from a global counter and differ between runs.
    return (node.now, type(message).__name__, message.src, message.dst)


class Quiet(Node):
    """Handles addressed frames; inherits the no-op ``on_overhear``.

    Answers some broadcasts with a unicast to their sender, so the
    traffic depends on what was decoded.
    """

    def __init__(self, node_id, network):
        super().__init__(node_id, network)
        self.received = []

    def on_receive(self, message) -> None:
        self.received.append(_seen(self, message))
        if message.is_broadcast and (self.id + message.src) % 3 == 0:
            self.send(HelloMessage(src=self.id, dst=message.src))


class Listener(Quiet):
    """Also handles overheard unicast frames."""

    def __init__(self, node_id, network):
        super().__init__(node_id, network)
        self.overheard = []

    def on_overhear(self, message) -> None:
        self.overheard.append(_seen(self, message))


class RecordingNetwork(Network):
    """Production wiring that also logs MAC feedback and dispatches."""

    def __init__(self, *args, **kwargs):
        self.feedback = []
        self.dispatched = []
        super().__init__(*args, **kwargs)

    def _notify_sender(self, message, delivered: bool) -> None:
        self.feedback.append(
            (self.engine.now, message.src, message.dst, delivered)
        )
        super()._notify_sender(message, delivered)

    def _deliver(self, receiver, message, addressed: bool) -> None:
        self.dispatched.append((receiver, addressed))
        super()._deliver(receiver, message, addressed)


class ReferenceNetwork(RecordingNetwork):
    """The wiring without the shortcuts: every bystander is dispatched
    its overheard copy, and every reception probes liveness, read off
    the node objects themselves."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.radio.overhearers = None

    def _sync_liveness_hook(self) -> None:
        self.radio.node_alive = self._probe_alive

    def _probe_alive(self, node_id: int) -> bool:
        node = self.nodes.get(node_id)
        return node is None or node.alive


_FAULTS = ("node.kill", "node.revive", "net.kill_node", "net.revive_node")


@st.composite
def scenarios(draw):
    rows = draw(st.integers(min_value=1, max_value=3))
    cols = draw(st.integers(min_value=2, max_value=4))
    count = rows * cols
    node = st.integers(min_value=0, max_value=count - 1)
    # A HELLO's airtime is 176 us; with a short MAC send jitter, sends
    # this close together collide at hidden terminals.
    when = st.floats(min_value=0.0, max_value=1e-3, allow_nan=False)
    return {
        "rows": rows,
        "cols": cols,
        "listeners": draw(st.sets(node)),
        "resolver": draw(st.sampled_from(["ledger", "legacy", "fast"])),
        "jitter": draw(st.sampled_from([5e-3, 1e-4])),
        "loss": draw(st.sampled_from([0.0, 0.0, 0.3])),
        "burst": draw(st.booleans()),
        # (time, src, target): target None broadcasts, an int k
        # addresses node k (in range or not).
        "sends": draw(
            st.lists(
                st.tuples(when, node, st.none() | node), min_size=1,
                max_size=25,
            )
        ),
        "faults": draw(
            st.lists(
                st.tuples(when, node, st.sampled_from(_FAULTS)), max_size=8
            )
        ),
    }


def _factory(listeners):
    def make(node_id, network):
        cls = Listener if node_id in listeners else Quiet
        return cls(node_id, network)

    return make


def _fault(network, node_id, kind):
    if kind == "node.kill":
        network.node(node_id).kill()
    elif kind == "node.revive":
        network.node(node_id).revive()
    elif kind == "net.kill_node":
        network.kill_node(node_id)
    else:
        network.revive_node(node_id)


def _check_liveness_bookkeeping(network):
    dead = {n.id for n in network.nodes.values() if not n.alive}
    assert network.down == dead
    assert (network.radio.node_alive is None) == (not dead)


def _run(cls, scenario, *, check_steps: bool):
    topology = grid_deployment(
        scenario["rows"], scenario["cols"], spacing=30.0, radio_range=45.0
    )
    network = cls(
        topology,
        _factory(scenario["listeners"]),
        seed=5,
        radio_config=RadioConfig(
            collisions_enabled=scenario["resolver"] != "fast",
            loss_probability=scenario["loss"],
        ),
        mac_config=MacConfig(send_jitter=scenario["jitter"]),
        keep_frames=True,
    )
    radio = network.radio
    if scenario["resolver"] == "legacy":
        install_reception_oracle(radio)
    if scenario["burst"]:
        radio.loss_model = lambda src, dst, now: (src * 7 + dst) % 5 == 0
    engine = network.engine
    for at, src, target in scenario["sends"]:
        dst = BROADCAST if target is None else target
        if dst == src:
            continue
        node = network.node(src)
        engine.schedule_at(
            at, lambda node=node, dst=dst: node.send(
                HelloMessage(src=node.id, dst=dst)
            )
        )
    for at, node_id, kind in scenario["faults"]:
        engine.schedule_at(
            at, lambda n=node_id, k=kind: _fault(network, n, k)
        )
    if check_steps:
        _check_liveness_bookkeeping(network)
        while engine.pending_events:
            engine.run(max_events=1)
            _check_liveness_bookkeeping(network)
    else:
        engine.run()
    return network


def _observed(network):
    trace = network.trace
    macs = sorted(
        (node_id, mac.backoffs, mac.retransmissions, mac.dropped_frames)
        for node_id, mac in network._macs.items()
    )
    return {
        "summary": trace.summary(),
        # The summary totals per-link drops; keep their reasons too.
        "link_drop_reasons": {
            link: dict(reasons) for link, reasons in trace.dropped_by_link.items()
        },
        "frames": [
            (f.kind, f.src, f.dst, f.delivered_to, f.dropped_at)
            for f in trace.frames
        ],
        "feedback": network.feedback,
        "macs": macs,
        "received": {n.id: n.received for n in network.nodes.values()},
        "overheard": {
            n.id: n.overheard
            for n in network.nodes.values()
            if isinstance(n, Listener)
        },
        "now": network.engine.now,
        "events": network.engine.processed_events,
        "rng": network.radio._rng.random(),
    }


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(scenario=scenarios())
def test_shortcuts_are_unobservable(scenario):
    network = _run(RecordingNetwork, scenario, check_steps=True)
    reference = _run(ReferenceNetwork, scenario, check_steps=False)
    assert network.radio.overhearers == frozenset(scenario["listeners"])
    assert _observed(network) == _observed(reference)
    # Overheard copies went to listeners only (the reference sends
    # them to every bystander that decoded the frame).
    assert all(
        addressed or receiver in scenario["listeners"]
        for receiver, addressed in network.dispatched
    )


def _send_once(cls, topology, listeners):
    network = cls(topology, _factory(listeners))
    network.node(1).send(HelloMessage(src=1, dst=0))
    network.run()
    return network


def test_overheard_copy_reaches_only_listeners():
    # Node 1 is in range of 0, 2 and 3; it unicasts to 0.
    topology = grid_deployment(2, 2, spacing=30.0, radio_range=45.0)
    network = _send_once(RecordingNetwork, topology, {3})
    reference = _send_once(ReferenceNetwork, topology, {3})
    assert network.dispatched == [(0, True), (3, False)]
    assert reference.dispatched == [(0, True), (2, False), (3, False)]
    assert network.node(3).overheard == reference.node(3).overheard != []
    assert network.trace.summary() == reference.trace.summary()


def test_liveness_hook_tracks_down_set():
    topology = grid_deployment(1, 3, spacing=40.0, radio_range=50.0)
    network = Network(topology, Quiet)
    assert network.down == set() and network.radio.node_alive is None
    network.node(1).kill()
    assert network.down == {1}
    assert network.radio.node_alive is not None
    assert network.radio.node_alive(1) is False
    assert network.radio.node_alive(0) is True
    network.kill_node(2)
    network.revive_node(1)
    assert network.down == {2}
    network.node(2).revive()
    assert network.down == set() and network.radio.node_alive is None


def test_node_killed_by_its_factory_installs_the_hook():
    topology = grid_deployment(1, 3, spacing=40.0, radio_range=50.0)

    def make(node_id, network):
        node = Quiet(node_id, network)
        if node_id == 1:
            node.kill()
        return node

    network = Network(topology, make)
    assert network.down == {1}
    assert network.radio.node_alive is not None
    network.node(0).send(HelloMessage(src=0, dst=BROADCAST))
    network.run()
    assert network.node(1).received == []
    assert network.node(2).received == []  # out of node 0's range
