"""Phase I examines only this round's HELLO receivers; nothing else moves.

``build_disjoint_trees`` checks, each synchronous round, only the nodes
a HELLO reached in that round.  :func:`_full_scan_trees` is the earlier
builder, which scanned every node each round; it is kept here as the
reference.  On generated topologies, configurations, base stations and
round cut-offs both must elect the same roles, record the same
``heard`` sets and leave the generator at the same next draw.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import IpdaConfig, RoleMode
from repro.core.trees import NodeRole, build_disjoint_trees, role_probabilities
from repro.net.topology import Topology, random_deployment
from repro.sim.messages import TreeColor


def _full_scan_trees(
    topology: Topology,
    config: IpdaConfig,
    rng: np.random.Generator,
    *,
    base_station: int = 0,
    max_rounds: Optional[int] = None,
):
    """Reference Phase I: every undecided node is examined every round.

    Returns ``(roles, heard)`` in the shape :class:`DisjointTrees` holds.
    """
    n = topology.node_count
    limit = max_rounds if max_rounds is not None else n + 1
    heard: Dict[int, Dict[TreeColor, Set[int]]] = {
        node_id: {TreeColor.RED: set(), TreeColor.BLUE: set()}
        for node_id in range(n)
    }
    roles: Dict[int, NodeRole] = {}
    hops: Dict[int, int] = {base_station: 0}
    announcements: List[Tuple[int, TreeColor]] = [
        (base_station, TreeColor.RED),
        (base_station, TreeColor.BLUE),
    ]
    for _round in range(limit):
        if not announcements:
            break
        for sender, color in announcements:
            for nbr in topology.neighbors(sender):
                heard[nbr][color].add(sender)
        announcements = []
        for node_id in range(n):
            if node_id == base_station or node_id in roles:
                continue
            heard_red = heard[node_id][TreeColor.RED]
            heard_blue = heard[node_id][TreeColor.BLUE]
            if not heard_red or not heard_blue:
                continue
            p_red, p_blue = role_probabilities(
                len(heard_red),
                len(heard_blue),
                mode=config.role_mode,
                budget=config.aggregator_budget,
            )
            draw = float(rng.random())
            if draw < p_red:
                color: Optional[TreeColor] = TreeColor.RED
            elif draw < p_red + p_blue:
                color = TreeColor.BLUE
            else:
                color = None
            if color is None:
                roles[node_id] = NodeRole(color=None)
                continue
            heard_own = heard_red if color is TreeColor.RED else heard_blue
            parent = min(heard_own, key=lambda a: (hops.get(a, 0), a))
            node_hops = hops.get(parent, 0) + 1
            roles[node_id] = NodeRole(color=color, parent=parent, hops=node_hops)
            hops[node_id] = node_hops
            announcements.append((node_id, color))
    frozen = {
        node_id: {color: frozenset(senders) for color, senders in by_color.items()}
        for node_id, by_color in heard.items()
    }
    return roles, frozen


def _graph(n: int, edges) -> Topology:
    adjacency = {node: set() for node in range(n)}
    for a, b in edges:
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    return Topology(
        coords=np.zeros((n, 2)),
        radio_range=1.0,
        adjacency={node: frozenset(nbrs) for node, nbrs in adjacency.items()},
    )


@st.composite
def _topologies(draw) -> Topology:
    if draw(st.booleans()):
        # Geometric deployments from dense to sparse.
        return random_deployment(
            draw(st.integers(min_value=2, max_value=80)),
            area=draw(st.sampled_from([60.0, 120.0, 200.0, 400.0])),
            seed=draw(st.integers(min_value=0, max_value=2**16)),
        )
    n = draw(st.integers(min_value=1, max_value=24))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    return _graph(n, draw(st.lists(pairs, max_size=3 * n)))


def _assert_same_build(topology, config, seed, base_station, max_rounds):
    reference_rng = np.random.default_rng(seed)
    roles, heard = _full_scan_trees(
        topology,
        config,
        reference_rng,
        base_station=base_station,
        max_rounds=max_rounds,
    )
    rng = np.random.default_rng(seed)
    trees = build_disjoint_trees(
        topology, config, rng, base_station=base_station, max_rounds=max_rounds
    )
    assert trees.roles == roles
    assert list(trees.roles) == list(roles)  # same decision order
    assert trees.heard == heard
    assert rng.random() == reference_rng.random()


@settings(max_examples=120, deadline=None)
@given(
    topology=_topologies(),
    mode=st.sampled_from(list(RoleMode)),
    budget=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    base_pick=st.integers(min_value=0, max_value=10**6),
    max_rounds=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
)
def test_frontier_build_matches_full_scan(
    topology, mode, budget, seed, base_pick, max_rounds
):
    config = IpdaConfig(role_mode=mode, aggregator_budget=budget)
    base_station = base_pick % topology.node_count
    _assert_same_build(topology, config, seed, base_station, max_rounds)


def test_paper_sized_deployment_matches_full_scan():
    topology = random_deployment(600, seed=3)
    for mode in RoleMode:
        config = IpdaConfig(role_mode=mode)
        for max_rounds in (None, 1, 2, 5):
            _assert_same_build(topology, config, 11, 0, max_rounds)
