"""Sampler exactness: the bounded-draw replay against numpy's own calls.

The planner draws a node's (or a whole round's) Phase II with one
array-bound ``Generator.integers(lows, highs)`` call and replays what
``Generator.choice(n, k, replace=False)`` and the scalar cut draws would
have made of those values.  These tests pin that equivalence, values
and ``bit_generator.state`` both, on the installed numpy: a numpy
release that changed how ``choice`` or array-bound ``integers`` draw
fails here first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.slicing import (
    _choice_bounds,
    _cut_bounds,
    _replay_choice,
    _replay_cut,
    plan_slices,
    slice_value,
)
from repro.errors import ProtocolError
from repro.sim.messages import TreeColor
from tests.slicing_oracle import legacy_plan_slices, legacy_slice_value


def _state(rng):
    return rng.bit_generator.state


def _replayed_choice(n, k, seed):
    rng = np.random.default_rng(seed)
    lows, highs = _choice_bounds(n, k)
    drawn = rng.integers(lows, highs).tolist() if lows else []
    picks, used = _replay_choice(n, k, drawn, 0)
    assert used == len(drawn)
    return picks, _state(rng)


def _numpy_choice(n, k, seed):
    rng = np.random.default_rng(seed)
    picks = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
    return picks, _state(rng)


class TestChoiceReplay:
    def test_small_populations(self):
        for seed in range(12):
            for n in range(1, 40):
                for k in range(0, min(n, 6) + 1):
                    assert _replayed_choice(n, k, seed) == _numpy_choice(
                        n, k, seed
                    ), (n, k, seed)

    @pytest.mark.parametrize("n", [5, 17])
    def test_whole_population(self, n):
        for seed in range(5):
            picks, state = _replayed_choice(n, n, seed)
            assert picks == list(range(n))
            assert (picks, state) == _numpy_choice(n, n, seed)

    def test_empty_pick_draws_nothing(self):
        rng = np.random.default_rng(3)
        before = _state(rng)
        assert _choice_bounds(9, 0) == ((), ())
        assert _replay_choice(9, 0, [], 0) == ([], 0)
        assert _state(rng) == before == _numpy_choice(9, 0, 3)[1]

    @pytest.mark.parametrize(
        "n,k",
        [
            (10_000, 200),  # Floyd: n is not above numpy's cutoff
            (10_000, 201),
            (10_001, 200),  # Floyd: k == n // 50
            (10_001, 201),  # tail shuffle: k == n // 50 + 1
            (10_001, 10_001),  # tail shuffle of the whole population
            (20_000, 401),
        ],
    )
    def test_floyd_tail_shuffle_boundary(self, n, k):
        assert _replayed_choice(n, k, 7) == _numpy_choice(n, k, 7)

    def test_tail_shuffle_bounds_stop_at_one(self):
        # Slot 0 of a whole-population shuffle takes no draw.
        lows, highs = _choice_bounds(10_001, 10_001)
        assert highs[0] == 10_001 and highs[-1] == 2
        assert len(highs) == 10_000 and set(lows) == {0}


class TestCutReplay:
    @pytest.mark.parametrize(
        "magnitude",
        [
            1,
            14,
            1_000_000,
            2**31,
            2**32,  # the span needs 64-bit draws
            2**61 - 1,  # the widest span drawn directly
            2**61,  # the first span drawn in 32-bit chunks
            2**70,
            10**40,
        ],
    )
    @pytest.mark.parametrize("pieces", [1, 2, 4])
    def test_slice_value_matches_scalar_draws(self, magnitude, pieces):
        for seed in range(4):
            ours = np.random.default_rng(seed)
            theirs = np.random.default_rng(seed)
            cut = slice_value(-17, pieces, ours, magnitude=magnitude)
            assert cut == legacy_slice_value(
                -17, pieces, theirs, magnitude=magnitude
            )
            assert _state(ours) == _state(theirs)

    @pytest.mark.parametrize("magnitude", [3, 2**40, 2**61, 2**70])
    def test_one_array_call_matches_scalar_draws(self, magnitude):
        ours = np.random.default_rng(11)
        theirs = np.random.default_rng(11)
        lows, highs = _cut_bounds(3, magnitude)
        drawn = ours.integers(lows, highs).tolist()
        cut, used = _replay_cut(5, 3, magnitude, drawn, 0)
        assert used == len(drawn)
        assert cut == legacy_slice_value(5, 3, theirs, magnitude=magnitude)
        assert _state(ours) == _state(theirs)

    def test_chunk_draws_are_32_bit(self):
        lows, highs = _cut_bounds(2, 2**70)
        # A 72-bit span plus the 8-bit margin takes three chunks.
        assert lows == (0, 0, 0) and highs == (2**32,) * 3


RED, BLUE, GREEN = TreeColor.palette(3)


def _two(red, blue):
    return {RED: red, BLUE: blue}


class TestPlanOneCall:
    CASES = [
        # own colour, candidates per palette colour, pieces, magnitude
        (None, _two([1, 2, 3], [4, 5, 6]), 2, 14),
        (RED, _two([1, 2, 3], [4, 5, 6]), 2, 14),
        (BLUE, _two([9, 3, 7, 1], [2, 8]), 3, 2**40),
        (RED, _two([1], [4, 5, 6, 7]), 1, 10**30),
        (None, _two(list(range(20, 40)), list(range(40, 55))), 4, 2**61),
        (BLUE, _two([1, 2], []), 1, 5),  # l = 1: blue keeps its piece
        (RED, _two([], []), 1, 5),  # short of blue, with no red draws
        (None, _two([1], [4, 5]), 2, 9),  # short of red: draws nothing
        (RED, _two([1, 2], [4]), 2, 9),  # short of blue: red draws
        # Three colours, drawn in palette order: red, blue, green.
        (GREEN, {RED: [1, 2, 3], BLUE: [4, 5], GREEN: [6, 7]}, 2, 14),
        (None, {RED: [9, 3, 7], BLUE: [2, 8, 4], GREEN: [6, 5]}, 2, 2**70),
        # Short of its second colour: only the first colour's draws.
        (None, {RED: [1, 2], BLUE: [4], GREEN: [6, 7]}, 2, 9),
        # Short of the third: red's and blue's draws, then out.
        (BLUE, {RED: [1, 2, 3], BLUE: [4], GREEN: [6]}, 2, 9),
    ]

    @pytest.mark.parametrize("case", CASES)
    def test_plan_matches_choice_based_planner(self, case):
        own_color, candidates, pieces, magnitude = case
        results = []
        for planner in (plan_slices, legacy_plan_slices):
            rng = np.random.default_rng(5)
            try:
                plans = planner(
                    10,
                    123,
                    own_color=own_color,
                    candidates=candidates,
                    pieces=pieces,
                    rng=rng,
                    magnitude=magnitude,
                )
            except Exception as exc:  # noqa: BLE001 - compared below
                plans = type(exc)
            results.append((plans, _state(rng)))
        assert results[0] == results[1]

    def test_short_of_second_colour_takes_first_colours_draws(self):
        candidates = {RED: [1, 2, 3], BLUE: [4], GREEN: [6, 7]}
        rng = np.random.default_rng(5)
        with pytest.raises(ProtocolError, match="blue"):
            plan_slices(
                10,
                123,
                own_color=None,
                candidates=candidates,
                pieces=2,
                rng=rng,
                magnitude=9,
            )
        # Red's choice of 2 of 3 and its one cut draw, nothing more.
        expected = np.random.default_rng(5)
        expected.choice(3, size=2, replace=False)
        expected.integers(-9, 10)
        assert _state(rng) == _state(expected)

    def test_one_generator_call_per_node(self):
        class Counting:
            def __init__(self):
                self.rng = np.random.default_rng(0)
                self.calls = 0

            def integers(self, lows, highs):
                self.calls += 1
                return self.rng.integers(lows, highs)

        rng = Counting()
        plan_slices(
            10,
            1,
            own_color=TreeColor.RED,
            candidates={TreeColor.RED: [1, 2, 3], TreeColor.BLUE: [4, 5, 6]},
            pieces=3,
            rng=rng,
            magnitude=2**70,
        )
        assert rng.calls == 1
