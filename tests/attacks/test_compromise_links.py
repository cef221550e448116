"""``compromise_links`` draws one vector; the stream is unchanged.

:func:`_per_edge_compromise` is the earlier form, one scalar
``rng.random()`` per edge in edge order, kept as the reference.  The
vector draw must compromise the same links and leave the generator at
the same next draw, for any ``px`` (0 and 1 included) and for a
topology with no edges at all.
"""

from __future__ import annotations

from typing import Set, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks.eavesdropper import compromise_links
from repro.net.topology import Topology, random_deployment


def _per_edge_compromise(
    topology: Topology, px: float, rng: np.random.Generator
) -> Set[Tuple[int, int]]:
    compromised: Set[Tuple[int, int]] = set()
    for edge in topology.edges():
        if rng.random() < px:
            compromised.add(edge)
    return compromised


def _assert_same_draws(topology: Topology, px: float, seed: int) -> None:
    reference_rng = np.random.default_rng(seed)
    want = _per_edge_compromise(topology, px, reference_rng)
    rng = np.random.default_rng(seed)
    got = compromise_links(topology, px, rng)
    assert got == want
    assert all(type(a) is int and type(b) is int for a, b in got)
    assert rng.random() == reference_rng.random()


_px = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)


@settings(max_examples=80, deadline=None)
@given(
    nodes=st.integers(min_value=1, max_value=120),
    area=st.sampled_from([50.0, 150.0, 400.0, 5000.0]),
    deploy_seed=st.integers(min_value=0, max_value=2**16),
    px=_px,
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_vector_draw_matches_per_edge_draws(nodes, area, deploy_seed, px, seed):
    topology = random_deployment(nodes, area=area, seed=deploy_seed)
    _assert_same_draws(topology, px, seed)


def test_px_bounds_and_no_edges():
    dense = random_deployment(120, area=150.0, seed=4)
    isolated = random_deployment(5, area=1e6, seed=4)
    assert dense.edges() and not isolated.edges()
    for topology in (dense, isolated):
        for px in (0.0, 0.3, 1.0):
            _assert_same_draws(topology, px, seed=9)
    assert compromise_links(dense, 1.0, np.random.default_rng(0)) == set(
        dense.edges()
    )
    # No edges, no draws: the generator does not move.
    rng = np.random.default_rng(5)
    assert compromise_links(isolated, 0.5, rng) == set()
    assert rng.random() == np.random.default_rng(5).random()
