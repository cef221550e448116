"""Sampler exactness: Phase I's one-call wave draws against scalar draws.

``build_disjoint_trees`` takes a wave's ``k`` role draws in one call:
``Generator.random(k)`` for the FIXED and ADAPTIVE rules and
``Generator.integers([0] * k, [m] * k)`` for UNIFORM.  Both must give
the values, and leave the generator in the state, of ``k`` scalar
``random()`` or ``integers(0, m)`` calls, which is what each node's
:func:`~repro.core.trees.elect_color` takes.  A numpy release that
changed either stream fails here first.
"""

from __future__ import annotations

import numpy as np
import pytest

SEEDS = range(200)
WAVE_SIZES = (0, 1, 2, 7, 33)


def _next_draw(rng):
    return rng.bit_generator.state, float(rng.random())


@pytest.mark.parametrize("k", WAVE_SIZES)
def test_random_block_equals_scalar_draws(k):
    for seed in SEEDS:
        block = np.random.default_rng(seed)
        scalar = np.random.default_rng(seed)
        values = block.random(k).tolist()
        assert values == [float(scalar.random()) for _ in range(k)], seed
        assert _next_draw(block) == _next_draw(scalar), seed


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("k", WAVE_SIZES)
def test_integer_block_equals_scalar_draws(m, k):
    for seed in SEEDS:
        block = np.random.default_rng(seed)
        scalar = np.random.default_rng(seed)
        values = block.integers([0] * k, [m] * k).tolist()
        assert values == [int(scalar.integers(0, m)) for _ in range(k)], seed
        assert _next_draw(block) == _next_draw(scalar), seed


def test_integer_block_after_a_half_used_word():
    # A bounded 32-bit draw can leave half a 64-bit word buffered in the
    # bit generator; the block call must pick it up as a scalar would.
    for seed in range(50):
        block = np.random.default_rng(seed)
        scalar = np.random.default_rng(seed)
        block.integers(0, 3)
        scalar.integers(0, 3)
        values = block.integers([0] * 5, [3] * 5).tolist()
        assert values == [int(scalar.integers(0, 3)) for _ in range(5)]
        assert _next_draw(block) == _next_draw(scalar)
