"""Phase I examines only this round's HELLO receivers; nothing else moves.

``build_disjoint_trees`` checks, each synchronous round, only the nodes
a HELLO reached in that round.  :func:`_full_scan_trees` is the earlier
builder, which scanned every node each round; it is kept here as the
reference, with its own copy of each role rule (Equations 1–2 over red
and blue, and the uniform m-colour rule that ``build_multi_trees``
ran).  On generated topologies, configurations, palettes, base
stations and round cut-offs both must elect the same roles, record the
same ``heard`` sets and leave the generator at the same next draw.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import IpdaConfig, RoleMode
from repro.core.multitree import build_multi_trees
from repro.core.trees import NodeRole, build_disjoint_trees, role_probabilities
from repro.errors import ConfigurationError, ProtocolError
from repro.net.topology import Topology, random_deployment
from repro.sim.messages import TreeColor


def _reference_color(heard, config, rng) -> Optional[TreeColor]:
    """The role rules as the full-scan builders drew them."""
    colors = list(heard)
    if config.role_mode is RoleMode.UNIFORM:
        return colors[int(rng.integers(0, len(colors)))]
    red, blue = colors
    p_red, p_blue = role_probabilities(
        len(heard[red]),
        len(heard[blue]),
        mode=config.role_mode,
        budget=config.aggregator_budget,
    )
    draw = float(rng.random())
    if draw < p_red:
        return red
    if draw < p_red + p_blue:
        return blue
    return None


def _full_scan_trees(
    topology: Topology,
    config: IpdaConfig,
    rng: np.random.Generator,
    *,
    base_station: int = 0,
    max_rounds: Optional[int] = None,
    colors: Tuple[TreeColor, ...] = TreeColor.palette(2),
):
    """Reference Phase I: every undecided node is examined every round.

    Returns ``(roles, heard)`` in the shape :class:`DisjointTrees` holds.
    """
    n = topology.node_count
    limit = max_rounds if max_rounds is not None else n + 1
    heard: Dict[int, Dict[TreeColor, Set[int]]] = {
        node_id: {color: set() for color in colors} for node_id in range(n)
    }
    roles: Dict[int, NodeRole] = {}
    hops: Dict[int, int] = {base_station: 0}
    announcements: List[Tuple[int, TreeColor]] = [
        (base_station, color) for color in colors
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
            if not all(heard[node_id][c] for c in colors):
                continue
            color = _reference_color(heard[node_id], config, rng)
            if color is None:
                roles[node_id] = NodeRole(color=None)
                continue
            heard_own = heard[node_id][color]
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


def _palette(mode: RoleMode, tree_count: int) -> Tuple[TreeColor, ...]:
    """The two paper colours, or ``tree_count`` for the uniform rule."""
    return TreeColor.palette(tree_count if mode is RoleMode.UNIFORM else 2)


def _assert_same_build(
    topology, config, seed, base_station, max_rounds, colors=None
):
    colors = colors or TreeColor.palette(2)
    reference_rng = np.random.default_rng(seed)
    roles, heard = _full_scan_trees(
        topology,
        config,
        reference_rng,
        base_station=base_station,
        max_rounds=max_rounds,
        colors=colors,
    )
    rng = np.random.default_rng(seed)
    trees = build_disjoint_trees(
        topology,
        config,
        rng,
        base_station=base_station,
        max_rounds=max_rounds,
        colors=colors,
    )
    assert trees.colors == colors
    assert trees.roles == roles
    assert list(trees.roles) == list(roles)  # same decision order
    assert trees.heard == heard
    assert rng.random() == reference_rng.random()


@settings(max_examples=120, deadline=None)
@given(
    topology=_topologies(),
    mode=st.sampled_from(list(RoleMode)),
    tree_count=st.integers(min_value=2, max_value=4),
    budget=st.integers(min_value=2, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    base_pick=st.integers(min_value=0, max_value=10**6),
    max_rounds=st.one_of(st.none(), st.integers(min_value=0, max_value=6)),
)
def test_frontier_build_matches_full_scan(
    topology, mode, tree_count, budget, seed, base_pick, max_rounds
):
    config = IpdaConfig(role_mode=mode, aggregator_budget=budget)
    base_station = base_pick % topology.node_count
    _assert_same_build(
        topology,
        config,
        seed,
        base_station,
        max_rounds,
        _palette(mode, tree_count),
    )


def test_paper_sized_deployment_matches_full_scan():
    topology = random_deployment(600, seed=3)
    for mode in RoleMode:
        config = IpdaConfig(role_mode=mode)
        tree_counts = (2, 3, 4) if mode is RoleMode.UNIFORM else (2,)
        for tree_count in tree_counts:
            for max_rounds in (None, 1, 2, 5):
                _assert_same_build(
                    topology,
                    config,
                    11,
                    0,
                    max_rounds,
                    _palette(mode, tree_count),
                )


@pytest.mark.parametrize("tree_count", [2, 3, 4])
def test_multi_trees_are_the_uniform_full_scan(tree_count):
    topology = random_deployment(400, seed=7)
    reference_rng = np.random.default_rng(21)
    roles, heard = _full_scan_trees(
        topology,
        IpdaConfig(role_mode=RoleMode.UNIFORM),
        reference_rng,
        colors=TreeColor.palette(tree_count),
    )
    rng = np.random.default_rng(21)
    trees = build_multi_trees(topology, tree_count, rng)
    assert trees.roles == roles
    assert list(trees.roles) == list(roles)
    assert trees.heard == heard
    assert rng.random() == reference_rng.random()
    # The uniform rule leaves no covered node a leaf.
    assert all(role.is_aggregator for role in trees.roles.values())


class TestPaletteValidation:
    @pytest.mark.parametrize("mode", [RoleMode.FIXED, RoleMode.ADAPTIVE])
    def test_two_colour_rules_reject_three_colours(self, mode):
        with pytest.raises(ConfigurationError):
            build_disjoint_trees(
                random_deployment(30, seed=1),
                IpdaConfig(role_mode=mode),
                np.random.default_rng(0),
                colors=TreeColor.palette(3),
            )

    def test_multi_trees_need_two_colours(self):
        with pytest.raises(ProtocolError):
            build_multi_trees(
                random_deployment(30, seed=1), 1, np.random.default_rng(0)
            )

    def test_colour_outside_the_palette_rejected(self):
        trees = build_multi_trees(
            random_deployment(60, seed=2), 3, np.random.default_rng(0)
        )
        with pytest.raises(ProtocolError):
            trees.aggregators(TreeColor.YELLOW)
