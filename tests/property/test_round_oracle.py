"""Property test: the derived-heard round equals the heard-storing round.

``build_disjoint_trees`` keeps only each colour's delivered announcers
and draws each Phase-I wave's roles in one call; ``run_lossless_round``
takes candidates from a per-scheme key mask, plans only the sensors
that can take part and sums the trees without assemblers.  Over
generated graphs, key schemes, slice counts, contributors, crashes,
polluters, magnitudes and reused (possibly cut-off) trees, both must
report the same sums, verdict, participants, transmissions and flows,
answer every tree query alike, and leave the generator at the same
next draw.  The reference is :mod:`tests.round_oracle`.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import IpdaConfig, RobustnessConfig, RoleMode
from repro.core.pipeline import run_lossless_round
from repro.core.trees import build_disjoint_trees
from repro.crypto.keys import (
    GlobalKeyScheme,
    PairwiseKeyScheme,
    RandomPredistributionScheme,
)
from repro.net.topology import Topology, random_deployment
from repro.sim.messages import TreeColor
from tests.round_oracle import (
    legacy_build_disjoint_trees,
    legacy_run_lossless_round,
)


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
        return random_deployment(
            draw(st.integers(min_value=2, max_value=70)),
            area=draw(st.sampled_from([60.0, 120.0, 200.0, 400.0])),
            seed=draw(st.integers(min_value=0, max_value=2**16)),
        )
    n = draw(st.integers(min_value=1, max_value=24))
    pairs = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    )
    return _graph(n, draw(st.lists(pairs, max_size=4 * n)))


def _key_scheme(label: str, n: int, seed: int):
    if label == "pairwise":
        return PairwiseKeyScheme(n, seed=seed)
    if label == "global":
        return GlobalKeyScheme(n, seed=seed)
    if label == "eg":
        # Rings this small leave some neighbours without a shared key.
        return RandomPredistributionScheme(
            n, pool_size=30, ring_size=3, seed=seed
        )
    return None


_MAGNITUDES = st.one_of(
    st.none(),
    st.integers(min_value=1, max_value=5_000),
    st.sampled_from([2**62 - 1, 2**62, 2**62 + 3, 2**70]),
)


def _subset(draw, nodes):
    return set(draw(st.lists(st.sampled_from(nodes), max_size=len(nodes))))


def _flow_view(flows):
    """Every recorded field, in dict and list order."""
    if flows is None:
        return None
    return [
        (
            node_id,
            flow.node_id,
            flow.reading,
            list(flow.outgoing.items()),
            flow.kept,
            flow.incoming,
            flow.kept_cut_color(),
        )
        for node_id, flow in flows.items()
    ]


def _assert_same_trees(ours, theirs, slices):
    n = ours.topology.node_count
    assert ours.colors == theirs.colors
    assert ours.roles == theirs.roles
    assert list(ours.roles) == list(theirs.roles)
    assert ours.heard == theirs.heard
    for color in ours.colors:
        # Iteration order too: callers take next(iter(...)).
        assert list(ours.aggregators(color)) == list(theirs.aggregators(color))
        for node_id in range(-1, n + 1):
            assert ours.heard_aggregators(
                node_id, color
            ) == theirs.heard_aggregators(node_id, color)
    for node_id in range(-1, n + 1):
        assert ours.is_covered(node_id) == theirs.is_covered(node_id)
        assert ours.can_participate(node_id, slices) == (
            theirs.can_participate(node_id, slices)
        )
    assert ours.covered_nodes() == theirs.covered_nodes()
    assert ours.participants(slices) == theirs.participants(slices)
    assert ours.summary() == theirs.summary()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_round_matches_heard_storing_oracle(data):
    draw = data.draw
    topology = draw(_topologies())
    n = topology.node_count
    base_station = draw(st.integers(min_value=0, max_value=n - 1))
    sensors = [node for node in range(n) if node != base_station]
    slices = draw(st.integers(min_value=1, max_value=4))
    config = IpdaConfig(
        slices=slices,
        role_mode=draw(st.sampled_from(list(RoleMode))),
        aggregator_budget=draw(st.integers(min_value=2, max_value=8)),
        threshold=draw(st.integers(min_value=0, max_value=20)),
        slice_magnitude=draw(_MAGNITUDES),
        robustness=draw(st.sampled_from([None, RobustnessConfig()])),
    )
    readings = {
        node: draw(st.integers(min_value=-1_000, max_value=10**6))
        for node in sensors
    }
    scheme = _key_scheme(
        draw(st.sampled_from(["none", "pairwise", "global", "eg"])),
        n,
        draw(st.integers(min_value=0, max_value=2**16)),
    )
    everyone = list(range(n))
    contributors = (
        _subset(draw, everyone) if sensors and draw(st.booleans()) else None
    )
    crashed = _subset(draw, everyone) if draw(st.booleans()) else None
    polluters = (
        {
            node: draw(st.integers(min_value=-50, max_value=50))
            for node in _subset(draw, everyone)
        }
        if draw(st.booleans())
        else None
    )
    record_flows = draw(st.booleans())
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))

    ours_trees = theirs_trees = None
    if draw(st.booleans()):
        max_rounds = draw(
            st.one_of(st.none(), st.integers(min_value=0, max_value=5))
        )
        tree_seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
        ours_trees = build_disjoint_trees(
            topology,
            config,
            np.random.default_rng(tree_seed),
            base_station=base_station,
            max_rounds=max_rounds,
        )
        theirs_trees = legacy_build_disjoint_trees(
            topology,
            config,
            np.random.default_rng(tree_seed),
            base_station=base_station,
            max_rounds=max_rounds,
        )

    ours_rng = np.random.default_rng(seed)
    theirs_rng = np.random.default_rng(seed)
    kwargs = dict(
        base_station=base_station,
        contributors=contributors,
        polluters=polluters,
        key_scheme=scheme,
        record_flows=record_flows,
        crashed=crashed,
    )
    ours = run_lossless_round(
        topology, readings, config, rng=ours_rng, trees=ours_trees, **kwargs
    )
    theirs = legacy_run_lossless_round(
        topology, readings, config, rng=theirs_rng, trees=theirs_trees, **kwargs
    )

    assert ours.s_red == theirs.s_red
    assert ours.s_blue == theirs.s_blue
    assert ours.verification == theirs.verification
    assert ours.participants == theirs.participants
    assert ours.slice_transmissions == theirs.slice_transmissions
    assert ours.true_total == theirs.true_total
    assert ours.participant_total == theirs.participant_total
    assert _flow_view(ours.flows) == _flow_view(theirs.flows)
    _assert_same_trees(ours.trees, theirs.trees, slices)
    assert ours_rng.random() == theirs_rng.random()


def test_paper_sized_round_matches_oracle():
    # A dense 300-node field where most sensors take part, with an
    # Eschenauer-Gligor scheme that cuts some links and crashed
    # aggregators, run twice on the same trees.
    topology = random_deployment(300, seed=12)
    config = IpdaConfig(robustness=RobustnessConfig())
    readings = {node: (node * 53) % 97 for node in range(1, 300)}
    scheme = RandomPredistributionScheme(300, pool_size=200, ring_size=12)
    ours_trees = build_disjoint_trees(
        topology, config, np.random.default_rng(4)
    )
    theirs_trees = legacy_build_disjoint_trees(
        topology, config, np.random.default_rng(4)
    )
    crashed = set(sorted(ours_trees.aggregators(TreeColor.BLUE))[:5])
    ours_rng = np.random.default_rng(9)
    theirs_rng = np.random.default_rng(9)
    for _epoch in range(2):
        ours = run_lossless_round(
            topology,
            readings,
            config,
            rng=ours_rng,
            key_scheme=scheme,
            trees=ours_trees,
            record_flows=True,
            crashed=crashed,
        )
        theirs = legacy_run_lossless_round(
            topology,
            readings,
            config,
            rng=theirs_rng,
            key_scheme=scheme,
            trees=theirs_trees,
            record_flows=True,
            crashed=crashed,
        )
        assert (ours.s_red, ours.s_blue) == (theirs.s_red, theirs.s_blue)
        assert ours.verification == theirs.verification
        assert ours.participants == theirs.participants
        assert _flow_view(ours.flows) == _flow_view(theirs.flows)
    _assert_same_trees(ours_trees, theirs_trees, config.slices)
    assert ours_rng.random() == theirs_rng.random()
    # The round is worth comparing: some sensors took part, some not.
    assert 0 < len(ours.participants) < len(readings) - len(crashed)
