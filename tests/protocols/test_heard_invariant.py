"""What a node hears in Phase I, on a perfect radio channel.

The logical builder (:func:`repro.core.trees.build_disjoint_trees`)
stores no heard tables: it derives a node's heard senders of a colour
as its neighbours among that colour's announcers.  This pins the same
fact at the radio level: after ``construct_trees()`` with collisions
off, every sensor's HELLO table for a colour holds exactly its
neighbours among that colour's aggregators, plus the base station when
it is in range.
"""

from __future__ import annotations

import pytest

from repro import IpdaConfig, RngStreams
from repro.net.topology import random_deployment
from repro.protocols.epochs import EpochedIpdaSession
from repro.sim.messages import TreeColor
from repro.sim.radio import RadioConfig


@pytest.mark.parametrize("node_count", [60, 200, 400])
def test_hello_tables_are_neighbours_among_aggregators(node_count):
    colors = TreeColor.palette(2)
    aggregators = dict.fromkeys(colors, 0)
    for seed in range(5):
        topology = random_deployment(node_count, seed=seed)
        session = EpochedIpdaSession(
            topology,
            IpdaConfig(),
            streams=RngStreams(seed),
            radio_config=RadioConfig(collisions_enabled=False),
        )
        session.construct_trees()
        base_station = session.base_station
        nodes = {node.id: node for node in session.network.iter_nodes()}
        for color in colors:
            members = {
                node_id
                for node_id, node in nodes.items()
                if node_id != base_station and node.color is color
            }
            aggregators[color] += len(members)
            announcers = members | {base_station}
            for node_id, node in nodes.items():
                if node_id == base_station:
                    continue
                expected = topology.neighbors(node_id) & announcers
                assert set(node.heard[color]) == expected, (
                    seed,
                    node_id,
                    color,
                )
    # The trees are worth checking: both colours have aggregators.
    assert all(aggregators.values())
