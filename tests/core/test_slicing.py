"""Tests for the slicing/assembling primitives (Phase II)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.slicing import SliceAssembler, plan_slices, slice_value
from repro.errors import ProtocolError
from repro.sim.messages import TreeColor


@pytest.fixture
def gen():
    return np.random.default_rng(0)


class TestSliceValue:
    @pytest.mark.parametrize("value", [0, 1, -5, 1000, -123456])
    @pytest.mark.parametrize("pieces", [1, 2, 3, 7])
    def test_pieces_sum_exactly(self, gen, value, pieces):
        pieces_list = slice_value(value, pieces, gen, magnitude=100)
        assert len(pieces_list) == pieces
        assert sum(pieces_list) == value

    def test_single_piece_is_identity(self, gen):
        assert slice_value(42, 1, gen) == [42]

    def test_rejects_zero_pieces(self, gen):
        with pytest.raises(ProtocolError):
            slice_value(1, 0, gen)

    def test_rejects_bad_magnitude(self, gen):
        with pytest.raises(ProtocolError):
            slice_value(1, 2, gen, magnitude=0)

    def test_random_components_bounded(self, gen):
        for _ in range(50):
            pieces = slice_value(0, 3, gen, magnitude=10)
            # all but the last are draws from [-10, 10]
            assert all(-10 <= p <= 10 for p in pieces[:-1])

    def test_huge_magnitude_supported(self, gen):
        big = 10**40
        pieces = slice_value(7, 4, gen, magnitude=big)
        assert sum(pieces) == 7
        assert any(abs(p) > 2**63 for p in pieces)  # actually huge

    def test_deterministic_for_same_rng_state(self):
        a = slice_value(9, 3, np.random.default_rng(5), magnitude=50)
        b = slice_value(9, 3, np.random.default_rng(5), magnitude=50)
        assert a == b


class TestPlanSlices:
    def test_leaf_sends_all_pieces_both_colors(self, gen):
        plans = plan_slices(
            10,
            7,
            own_color=None,
            candidates={TreeColor.RED: [1, 2, 3], TreeColor.BLUE: [4, 5, 6]},
            pieces=2,
            rng=gen,
        )
        for color in (TreeColor.RED, TreeColor.BLUE):
            assert plans[color].kept is None
            assert plans[color].transmission_count == 2
            assert plans[color].total() == 7

    def test_aggregator_keeps_one_piece_of_own_cut(self, gen):
        plans = plan_slices(
            10,
            7,
            own_color=TreeColor.RED,
            candidates={TreeColor.RED: [1, 2, 3], TreeColor.BLUE: [4, 5, 6]},
            pieces=2,
            rng=gen,
        )
        assert plans[TreeColor.RED].kept is not None
        assert plans[TreeColor.RED].transmission_count == 1
        assert plans[TreeColor.BLUE].kept is None
        assert plans[TreeColor.BLUE].transmission_count == 2
        # 2l - 1 transmissions in total (Section III-C.1).
        total = sum(p.transmission_count for p in plans.values())
        assert total == 2 * 2 - 1

    def test_both_cuts_sum_to_reading(self, gen):
        plans = plan_slices(
            10,
            -33,
            own_color=TreeColor.BLUE,
            candidates={TreeColor.RED: [1, 2, 3], TreeColor.BLUE: [4, 5]},
            pieces=3,
            rng=gen,
        )
        assert plans[TreeColor.RED].total() == -33
        assert plans[TreeColor.BLUE].total() == -33

    def test_cuts_are_independent(self):
        # Same reading, the two cuts should (almost surely) differ.
        plans = plan_slices(
            10,
            5,
            own_color=None,
            candidates={TreeColor.RED: [1, 2], TreeColor.BLUE: [3, 4]},
            pieces=2,
            rng=np.random.default_rng(1),
            magnitude=10**6,
        )
        red = sorted(p for _t, p in plans[TreeColor.RED].outgoing)
        blue = sorted(p for _t, p in plans[TreeColor.BLUE].outgoing)
        assert red != blue

    def test_insufficient_candidates_raises(self, gen):
        with pytest.raises(ProtocolError):
            plan_slices(
                10,
                1,
                own_color=None,
                candidates={TreeColor.RED: [1], TreeColor.BLUE: [2, 3]},
                pieces=2,
                rng=gen,
            )

    def test_own_color_lowers_requirement(self, gen):
        # A red aggregator needs only l-1 = 1 remote red target.
        plans = plan_slices(
            10,
            1,
            own_color=TreeColor.RED,
            candidates={TreeColor.RED: [1], TreeColor.BLUE: [2, 3]},
            pieces=2,
            rng=gen,
        )
        assert plans[TreeColor.RED].transmission_count == 1

    def test_self_in_candidates_rejected(self, gen):
        with pytest.raises(ProtocolError):
            plan_slices(
                10,
                1,
                own_color=TreeColor.RED,
                candidates={TreeColor.RED: [10, 1], TreeColor.BLUE: [2, 3]},
                pieces=2,
                rng=gen,
            )

    def test_targets_are_distinct(self, gen):
        plans = plan_slices(
            10,
            8,
            own_color=None,
            candidates={
                TreeColor.RED: [1, 2, 3, 4, 5],
                TreeColor.BLUE: [6, 7, 8, 9],
            },
            pieces=3,
            rng=gen,
        )
        for plan in plans.values():
            targets = [t for t, _p in plan.outgoing]
            assert len(targets) == len(set(targets))


class TestAssembler:
    def test_assembles_kept_plus_received(self):
        assembler = SliceAssembler(5)
        assembler.keep(10)
        assembler.receive(1, 3)
        assembler.receive(2, -4)
        assert assembler.assembled_value() == 9
        assert assembler.received_count == 2
        assert assembler.senders() == [1, 2]

    def test_empty_assembler_is_zero(self):
        assert SliceAssembler(1).assembled_value() == 0

    def test_multiple_keeps_accumulate(self):
        assembler = SliceAssembler(1)
        assembler.keep(2)
        assembler.keep(3)
        assert assembler.assembled_value() == 5

    def test_duplicate_senders_tracked_once_in_senders(self):
        assembler = SliceAssembler(1)
        assembler.receive(4, 1)
        assembler.receive(4, 1)
        assert assembler.senders() == [4]
        assert assembler.received_count == 2


class TestScheduleFanout:
    def _plans(self):
        from repro.core.slicing import SlicePlan

        return {
            TreeColor.RED: SlicePlan(
                color=TreeColor.RED,
                kept=1,
                outgoing=[(10, 5), (11, -3), (12, 7)],
            ),
            TreeColor.BLUE: SlicePlan(
                color=TreeColor.BLUE,
                kept=None,
                outgoing=[(20, 2), (21, 4)],
            ),
        }

    def test_draws_delays_in_plan_order(self):
        from repro.core.slicing import schedule_fanout

        window = 3.0
        planned = schedule_fanout(
            self._plans(), window, np.random.default_rng(17), first_seq=1
        )
        expected_delays = [
            float(d)
            for d in np.random.default_rng(17).uniform(0.0, window, size=5)
        ]
        assert [e.delay for e in planned] == expected_delays
        # scheduling order mirrors plans.items()/outgoing iteration order
        assert [(e.color, e.target, e.piece) for e in planned] == [
            (TreeColor.RED, 10, 5),
            (TreeColor.RED, 11, -3),
            (TreeColor.RED, 12, 7),
            (TreeColor.BLUE, 20, 2),
            (TreeColor.BLUE, 21, 4),
        ]

    def test_seqs_follow_stable_fire_order(self):
        from repro.core.slicing import schedule_fanout

        planned = schedule_fanout(
            self._plans(), 2.0, np.random.default_rng(23), first_seq=100
        )
        # seqs are a permutation of first_seq..first_seq+n-1 ...
        assert sorted(e.seq for e in planned) == list(range(100, 105))
        # ... assigned by ascending delay, stable on ties
        by_fire = sorted(
            range(len(planned)), key=lambda i: planned[i].delay
        )
        for rank, index in enumerate(by_fire):
            assert planned[index].seq == 100 + rank

    def test_tied_delays_keep_scheduling_order(self):
        from repro.core.slicing import SlicePlan, schedule_fanout

        class ZeroRng:
            def uniform(self, lo, hi):
                return 0.0

        plans = {
            TreeColor.RED: SlicePlan(
                color=TreeColor.RED,
                kept=0,
                outgoing=[(1, 1), (2, 2), (3, 3)],
            )
        }
        planned = schedule_fanout(plans, 1.0, ZeroRng(), first_seq=7)
        assert [e.seq for e in planned] == [7, 8, 9]

    def test_empty_plans(self):
        from repro.core.slicing import schedule_fanout

        assert schedule_fanout({}, 1.0, np.random.default_rng(0), first_seq=1) == []
