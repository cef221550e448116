"""White-box tests of the iPDA node state machine.

Drives ``_IpdaNode`` handlers directly on a tiny wired network, pinning
the decision timing, HELLO bookkeeping, blacklist behaviour, and
defensive paths that are hard to reach through full rounds.
"""

from __future__ import annotations

import pytest

from repro.core.config import IpdaConfig
from repro.errors import ProtocolError
from repro.net.topology import grid_deployment
from repro.protocols.ipda import _IpdaNode
from repro.sim.messages import (
    BROADCAST,
    AggregateMessage,
    HelloMessage,
    SliceMessage,
    TreeColor,
)
from repro.sim.network import Network


@pytest.fixture
def harness():
    topology = grid_deployment(1, 4, spacing=40.0, radio_range=50.0)

    def factory(node_id, network):
        node = _IpdaNode(node_id, network)
        node.config = IpdaConfig()
        from repro.crypto.keys import PairwiseKeyScheme

        node.keys = PairwiseKeyScheme(topology.node_count)
        node.start_round()
        return node

    network = Network(topology, factory, seed=0)
    return network


def hello(src, color, hops=0):
    return HelloMessage(src=src, dst=BROADCAST, color=color, hops=hops)


class TestHelloBookkeeping:
    def test_single_color_does_not_trigger_decision(self, harness):
        node = harness.node(1)
        node.on_receive(hello(0, TreeColor.RED))
        harness.run()
        assert not node.decided

    def test_both_colors_trigger_decision_after_delay(self, harness):
        node = harness.node(1)
        node.on_receive(hello(0, TreeColor.RED))
        node.on_receive(hello(2, TreeColor.BLUE))
        assert not node.decided  # waits role_decision_delay
        harness.run()
        assert node.decided
        assert node.color in (TreeColor.RED, TreeColor.BLUE)

    def test_keeps_minimum_hop_count_per_sender(self, harness):
        node = harness.node(1)
        node.on_receive(hello(0, TreeColor.RED, hops=5))
        node.on_receive(hello(0, TreeColor.RED, hops=2))
        node.on_receive(hello(0, TreeColor.RED, hops=9))
        assert node.heard[TreeColor.RED][0] == 2

    def test_parent_is_shallowest_heard(self, harness):
        node = harness.node(1)
        node.on_receive(hello(0, TreeColor.RED, hops=4))
        node.on_receive(hello(2, TreeColor.RED, hops=1))
        node.on_receive(hello(2, TreeColor.BLUE, hops=1))
        harness.run()
        if node.color is TreeColor.RED:
            assert node.parent == 2  # hop 1 beats hop 4
            assert node.hops == 2

    def test_hello_without_color_rejected(self, harness):
        node = harness.node(1)
        with pytest.raises(ProtocolError):
            node.on_receive(HelloMessage(src=0, dst=BROADCAST, color=None))


class TestBlacklist:
    def test_contradictory_colors_blacklist_sender(self, harness):
        node = harness.node(1)
        node.on_receive(hello(2, TreeColor.RED))
        node.on_receive(hello(2, TreeColor.BLUE))
        assert 2 in node.blacklist
        assert 2 not in node.heard[TreeColor.RED]
        assert 2 not in node.heard[TreeColor.BLUE]

    def test_blacklisted_sender_stays_ignored(self, harness):
        node = harness.node(1)
        node.on_receive(hello(2, TreeColor.RED))
        node.on_receive(hello(2, TreeColor.BLUE))
        node.on_receive(hello(2, TreeColor.RED))
        assert 2 not in node.heard[TreeColor.RED]

    def test_base_station_exempt(self, harness):
        node = harness.node(1)
        node.base_station = 0
        node.on_receive(hello(0, TreeColor.RED))
        node.on_receive(hello(0, TreeColor.BLUE))
        assert 0 not in node.blacklist
        assert 0 in node.heard[TreeColor.RED]
        assert 0 in node.heard[TreeColor.BLUE]

    def test_reparents_away_from_blacklisted_parent(self, harness):
        node = harness.node(1)
        node.on_receive(hello(2, TreeColor.RED, hops=1))
        node.on_receive(hello(0, TreeColor.RED, hops=3))
        node.on_receive(hello(0, TreeColor.BLUE, hops=3))
        harness.run()  # decide
        if node.color is TreeColor.RED and node.parent == 2:
            node.on_receive(hello(2, TreeColor.BLUE, hops=1))
            assert node.parent == 0
            assert node.hops == 4


class TestSliceAndAggregateHandling:
    def test_stray_slice_for_foreign_tree_dropped(self, harness):
        node = harness.node(1)  # undecided: no assemblers
        message = SliceMessage(
            src=2,
            dst=1,
            color=TreeColor.RED,
            seq=1,
            ciphertext=b"\x00" * 8,
        )
        node.on_receive(message)  # silently dropped, no crash
        assert node.round.assemblers == {}

    def test_slice_without_color_rejected(self, harness):
        node = harness.node(1)
        with pytest.raises(ProtocolError):
            node.on_receive(
                SliceMessage(src=2, dst=1, color=None, ciphertext=b"\x00" * 8)
            )

    def test_mismatched_aggregate_counted_not_summed(self, harness):
        node = harness.node(1)
        node.on_receive(hello(0, TreeColor.RED))
        node.on_receive(hello(2, TreeColor.BLUE))
        harness.run()
        other = node.color.other
        node.on_receive(
            AggregateMessage(src=2, dst=1, color=other, value=999)
        )
        assert node.round.child_sum[other] == 0
        assert node.mismatched_aggregates == 1

    def test_matching_aggregate_summed(self, harness):
        node = harness.node(1)
        node.on_receive(hello(0, TreeColor.RED))
        node.on_receive(hello(2, TreeColor.BLUE))
        harness.run()
        node.on_receive(
            AggregateMessage(src=2, dst=1, color=node.color, value=7)
        )
        node.on_receive(
            AggregateMessage(src=0, dst=1, color=node.color, value=5)
        )
        assert node.round.child_sum[node.color] == 12

    def test_aggregate_without_color_rejected(self, harness):
        node = harness.node(1)
        node.on_receive(hello(0, TreeColor.RED))
        node.on_receive(hello(2, TreeColor.BLUE))
        harness.run()
        with pytest.raises(ProtocolError):
            node.on_receive(
                AggregateMessage(src=2, dst=1, color=None, value=1)
            )


class TestSlicingGuards:
    def test_non_contributor_never_participates(self, harness):
        node = harness.node(1)
        node.round.contributes = False
        node.begin_slicing()
        assert not node.round.participant

    def test_insufficient_candidates_sit_out(self, harness):
        node = harness.node(1)
        node.round.contributes = True
        node.round.reading = 5
        # Only one heard aggregator per colour; l=2 needs two blues.
        node.on_receive(hello(0, TreeColor.RED))
        node.on_receive(hello(2, TreeColor.BLUE))
        harness.run()
        node.begin_slicing()
        assert not node.round.participant
