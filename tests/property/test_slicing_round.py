"""Property test: a round planned from one draw equals the per-node planner.

``plan_round`` draws a whole round's Phase II with one array-bound
``Generator.integers`` call and hands each node its share.  Over
generated request lists it must produce exactly what the legacy
choice-based planner produces node by node on the same generator: the
same plans, the same nodes sitting out, and the same generator state
afterwards.  The lossless round built on it must agree with the round
built on the legacy planner, key schemes and crashed nodes included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.pipeline as pipeline
from repro import IpdaConfig, random_deployment, run_lossless_round
from repro.core.slicing import plan_round
from repro.privacy.evaluate import make_key_scheme
from repro.sim.messages import TreeColor
from tests.slicing_oracle import legacy_plan_round

MAGNITUDES = st.one_of(
    st.integers(1, 64),
    st.sampled_from([2**32, 2**61 - 1, 2**61]),
    st.integers(1, 2**70),
)


@st.composite
def requests(draw):
    """A round's planning requests over a palette of 2-4 colours.

    1-40 nodes, 0-15 candidates a colour.
    """
    palette = TreeColor.palette(draw(st.integers(2, 4)))
    node_ids = draw(
        st.lists(st.integers(0, 500), min_size=1, max_size=40, unique=True)
    )
    out = []
    for node_id in node_ids:
        others = st.integers(0, 500).filter(lambda a, me=node_id: a != me)
        candidates = {
            color: draw(st.lists(others, max_size=15, unique=True))
            for color in palette
        }
        value = draw(st.integers(-(10**6), 10**6))
        own_color = draw(st.sampled_from(palette + (None,)))
        out.append((node_id, value, own_color, candidates))
    return out


@settings(max_examples=150, deadline=None)
@given(
    requests(),
    st.integers(1, 4),
    MAGNITUDES,
    st.integers(0, 2**32),
)
def test_one_draw_round_equals_per_node_planner(reqs, pieces, magnitude, seed):
    ours = np.random.default_rng(seed)
    theirs = np.random.default_rng(seed)
    planned = plan_round(reqs, pieces=pieces, magnitude=magnitude, rng=ours)
    expected = legacy_plan_round(
        reqs, pieces=pieces, magnitude=magnitude, rng=theirs
    )
    assert [p is None for p in planned] == [p is None for p in expected]
    assert planned == expected
    assert ours.bit_generator.state == theirs.bit_generator.state


def _round(planner, monkeypatch, topology, readings, config, scheme, seed):
    monkeypatch.setattr(pipeline, "plan_round", planner)
    rng = np.random.default_rng(seed)
    result = run_lossless_round(
        topology,
        readings,
        config,
        rng=rng,
        key_scheme=scheme,
        record_flows=True,
        crashed={3, 11, 27},
    )
    return (
        result.s_red,
        result.s_blue,
        result.participants,
        result.slice_transmissions,
        result.flows,
        result.outcome,
        rng.bit_generator.state,
    )


@pytest.mark.parametrize("slices", [1, 2, 3])
@pytest.mark.parametrize(
    "scheme_label", ["eg-1000/50", "eg-200/20", "pairwise"]
)
def test_lossless_round_agrees_with_per_node_round(
    monkeypatch, slices, scheme_label
):
    topology = random_deployment(90, area=230.0, seed=slices)
    readings = {n: (n * 37) % 101 for n in range(1, 90)}
    scheme = make_key_scheme(scheme_label, 90, seed=5)
    config = IpdaConfig(slices=slices)
    ours = _round(
        plan_round, monkeypatch, topology, readings, config, scheme, 8
    )
    theirs = _round(
        legacy_plan_round, monkeypatch, topology, readings, config, scheme, 8
    )
    assert ours == theirs
    # The round is worth comparing: some nodes took part, some sat out.
    assert 0 < len(ours[2]) < len(readings) - 3
