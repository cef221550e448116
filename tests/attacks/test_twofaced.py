"""Tests for the two-faced HELLO adversary and its detection (§III-B)."""

from __future__ import annotations

import pytest

from repro import RngStreams
from repro.errors import ProtocolError
from repro.net.topology import random_deployment
from repro.protocols.ipda import IpdaProtocol, _IpdaNode
from repro.sim.messages import BROADCAST, HelloMessage, TreeColor
from repro.sim.network import Network
from repro.sim.radio import RadioConfig


@pytest.fixture(scope="module")
def scenario():
    topology = random_deployment(200, area=300.0, seed=131)
    readings = {i: 1 for i in range(1, topology.node_count)}
    return topology, readings


def run_with_adversary(topology, readings, adversary, seed=131):
    # Perfect channel so every contradictory HELLO is actually heard.
    return IpdaProtocol(
        radio_config=RadioConfig(collisions_enabled=False)
    ).run_round(
        topology,
        readings,
        streams=RngStreams(seed),
        two_faced={adversary},
    )


class TestDetection:
    def test_neighbors_blacklist_the_adversary(self, scenario):
        topology, readings = scenario
        adversary = 25
        outcome = run_with_adversary(topology, readings, adversary)
        # Every honest neighbour that heard both HELLOs blacklisted it.
        # We verify through the outcome: the adversary is nobody's
        # parent and nobody's slice target -- i.e. no honest node
        # delivered it any slice or aggregate.
        assert outcome.stats["adversary_blacklisted_by"] > 0

    def test_round_integrity_survives(self, scenario):
        topology, readings = scenario
        outcome = run_with_adversary(topology, readings, 25)
        # The adversary cannot straddle both trees: the round either
        # stays balanced or its tampering is caught; with no pollution
        # offset here, the trees agree.
        assert outcome.accepted

    def test_clean_round_has_no_blacklists(self, scenario):
        topology, readings = scenario
        outcome = IpdaProtocol(
            radio_config=RadioConfig(collisions_enabled=False)
        ).run_round(topology, readings, streams=RngStreams(131))
        assert outcome.stats["adversary_blacklisted_by"] == 0

    def test_base_station_cannot_be_adversary(self, scenario):
        topology, readings = scenario
        with pytest.raises(ProtocolError):
            IpdaProtocol().run_round(
                topology,
                readings,
                streams=RngStreams(1),
                two_faced={0},
            )

    @pytest.mark.parametrize("collisions", [False, True])
    @pytest.mark.parametrize("adversary, seed", [(25, 131), (40, 7), (77, 19)])
    def test_blacklisted_by_every_node_that_decoded_both_hellos(
        self, scenario, adversary, seed, collisions
    ):
        topology, readings = scenario
        outcome = IpdaProtocol(
            radio_config=RadioConfig(collisions_enabled=collisions),
            keep_frames=True,
        ).run_round(
            topology,
            readings,
            streams=RngStreams(seed),
            two_faced={adversary},
        )
        decoded = {
            frame.message.color: set(frame.delivered_to)
            for frame in outcome.stats["frames"]
            if frame.src == adversary
            and isinstance(frame.message, HelloMessage)
        }
        both = decoded[TreeColor.RED] & decoded[TreeColor.BLUE] - {0}
        assert both
        assert outcome.stats["adversary_blacklisted_by"] == len(both)

    def test_base_station_twin_hellos_not_blacklisted(self, scenario):
        # The root legitimately announces both colours; honest nodes
        # must not blacklist it.
        topology, readings = scenario
        outcome = IpdaProtocol(
            radio_config=RadioConfig(collisions_enabled=False)
        ).run_round(topology, readings, streams=RngStreams(2))
        assert outcome.accepted
        assert len(outcome.covered) > 0.8 * (topology.node_count - 1)


class TestBlacklistEmptiesATable:
    """A blacklisting may empty a colour's table after the timer is armed.

    In this 200-node field node 122 hears red only from the adversary,
    node 40; blacklisting 40 used to leave node 122 drawing red from an
    empty table (``min() arg is an empty sequence``).
    """

    @pytest.mark.parametrize("collisions", [False, True])
    def test_round_completes(self, collisions):
        topology = random_deployment(200, area=300.0, seed=5)
        readings = {i: 1 for i in range(1, 200)}
        outcome = IpdaProtocol(
            radio_config=RadioConfig(collisions_enabled=collisions)
        ).run_round(
            topology, readings, streams=RngStreams(5), two_faced={40}
        )
        assert outcome.stats["adversary_blacklisted_by"] > 0
        assert outcome.accepted

    def test_a_later_hello_re_arms_the_decision(self):
        def hello(src, color):
            return HelloMessage(src=src, dst=BROADCAST, color=color, hops=1)

        def factory(node_id, network):
            node = _IpdaNode(node_id, network)
            node.start_round()
            return node

        topology = random_deployment(6, area=20.0, seed=1)
        with Network(topology, factory, streams=RngStreams(1)) as network:
            node = network.node(5)
            node.on_receive(hello(0, TreeColor.BLUE))
            node.on_receive(hello(2, TreeColor.RED))  # arms the timer
            node.on_receive(hello(2, TreeColor.BLUE))  # two-faced
            assert node.blacklist == {2}
            assert node.heard[TreeColor.RED] == {}
            network.run()
            assert not node.decided  # no draw from an empty table
            node.on_receive(hello(3, TreeColor.RED))
            network.run()
            assert node.decided
