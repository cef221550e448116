"""Property-based tests (hypothesis) for the core invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import IpdaConfig
from repro.core.integrity import IntegrityChecker, PolluterLocalizer
from repro.core.pipeline import run_lossless_round
from repro.core.slicing import plan_slices, slice_value
from repro.core.trees import build_disjoint_trees
from repro.crypto.cipher import KEY_BYTES, xor_decrypt, xor_encrypt
from repro.crypto.envelope import make_nonce, open_sealed, seal
from repro.net.topology import random_deployment
from repro.protocols.aggregates import (
    AverageStatistic,
    PowerMeanMax,
    SumStatistic,
    VarianceStatistic,
)
from repro.sim.messages import TreeColor

# Shared strategies -----------------------------------------------------
values64 = st.integers(min_value=-(2**62), max_value=2**62)
keys = st.binary(min_size=KEY_BYTES, max_size=KEY_BYTES)
small_ids = st.integers(min_value=0, max_value=65535)


class TestSlicingProperties:
    @given(
        value=values64,
        pieces=st.integers(min_value=1, max_value=8),
        magnitude=st.integers(min_value=1, max_value=10**9),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_slices_always_sum_to_value(self, value, pieces, magnitude, seed):
        rng = np.random.default_rng(seed)
        cut = slice_value(value, pieces, rng, magnitude=magnitude)
        assert len(cut) == pieces
        assert sum(cut) == value

    @given(
        value=st.integers(min_value=-(10**6), max_value=10**6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        pieces=st.integers(min_value=1, max_value=4),
    )
    def test_plan_conserves_reading_on_both_cuts(self, value, seed, pieces):
        rng = np.random.default_rng(seed)
        plans = plan_slices(
            99,
            value,
            own_color=TreeColor.RED,
            candidates={
                TreeColor.RED: list(range(pieces)),
                TreeColor.BLUE: list(range(10, 10 + pieces)),
            },
            pieces=pieces,
            rng=rng,
        )
        assert plans[TreeColor.RED].total() == value
        assert plans[TreeColor.BLUE].total() == value
        transmissions = sum(
            p.transmission_count for p in plans.values()
        )
        assert transmissions == 2 * pieces - 1


class TestCryptoProperties:
    @given(plaintext=st.binary(max_size=64), key=keys)
    def test_xor_is_involution(self, plaintext, key):
        nonce = make_nonce(1, 2, 3, 4)
        assert (
            xor_decrypt(xor_encrypt(plaintext, key, nonce), key, nonce)
            == plaintext
        )

    @given(
        value=st.integers(min_value=-(2**63), max_value=2**63 - 1),
        key=keys,
        src=small_ids,
        dst=small_ids,
        round_id=small_ids,
        seq=small_ids,
    )
    def test_seal_roundtrip(self, value, key, src, dst, round_id, seq):
        nonce = make_nonce(src, dst, round_id, seq)
        assert open_sealed(seal(value, key, nonce), key, nonce) == value

    @given(
        a=st.tuples(small_ids, small_ids, small_ids, small_ids),
        b=st.tuples(small_ids, small_ids, small_ids, small_ids),
    )
    def test_nonces_injective(self, a, b):
        if a != b:
            assert make_nonce(*a) != make_nonce(*b)


class TestIntegrityProperties:
    @given(
        s_red=values64,
        s_blue=values64,
        threshold=st.integers(min_value=0, max_value=10**6),
    )
    def test_acceptance_iff_within_threshold(self, s_red, s_blue, threshold):
        result = IntegrityChecker(threshold).verify(s_red, s_blue)
        assert result.accepted == (abs(s_red - s_blue) <= threshold)

    @given(
        n=st.integers(min_value=1, max_value=400),
        position=st.integers(min_value=0, max_value=399),
        data=st.data(),
    )
    def test_localizer_always_converges_logarithmically(
        self, n, position, data
    ):
        import math

        polluter = position % n
        localizer = PolluterLocalizer(set(range(n)))
        found = localizer.run(lambda probe: polluter in probe)
        assert found == polluter
        assert localizer.rounds_used <= math.ceil(math.log2(max(n, 2))) + 1


class TestStatisticProperties:
    @given(
        data=st.lists(
            st.integers(min_value=-(10**6), max_value=10**6),
            min_size=1,
            max_size=50,
        )
    )
    def test_sum_and_average_consistent(self, data):
        sum_stat = SumStatistic()
        avg_stat = AverageStatistic()
        totals_sum = [sum(data)]
        totals_avg = [sum(data), len(data)]
        assert avg_stat.decode(totals_avg) == pytest.approx(
            sum_stat.decode(totals_sum) / len(data)
        )

    @given(
        data=st.lists(
            st.integers(min_value=-(10**4), max_value=10**4),
            min_size=2,
            max_size=50,
        )
    )
    def test_variance_non_negative(self, data):
        stat = VarianceStatistic()
        parts = [stat.encode(v) for v in data]
        totals = [sum(p[i] for p in parts) for i in range(3)]
        assert stat.decode(totals) >= -1e-6

    @given(
        data=st.lists(
            st.integers(min_value=0, max_value=10**4),
            min_size=1,
            max_size=30,
        )
    )
    def test_power_mean_max_is_upper_bound_within_factor(self, data):
        stat = PowerMeanMax(exponent=32)
        parts = [stat.encode(v) for v in data]
        approx = stat.decode([sum(p[0] for p in parts)])
        true_max = max(data)
        assert approx >= true_max - 1
        assert approx <= true_max * (len(data) ** (1 / 32)) + 1


class TestPipelineProperties:
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        slices=st.integers(min_value=1, max_value=3),
        reading_scale=st.integers(min_value=1, max_value=1000),
    )
    def test_lossless_round_conserves_sum(self, seed, slices, reading_scale):
        topology = random_deployment(120, area=220.0, seed=seed % 7)
        readings = {
            i: (i * 31 % reading_scale) - reading_scale // 2
            for i in range(1, topology.node_count)
        }
        result = run_lossless_round(
            topology, readings, IpdaConfig(slices=slices), seed=seed
        )
        assert result.s_red == result.s_blue == result.participant_total
        assert result.accepted

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_trees_always_node_disjoint(self, seed):
        topology = random_deployment(150, area=250.0, seed=seed % 5)
        trees = build_disjoint_trees(
            topology, IpdaConfig(), np.random.default_rng(seed)
        )
        assert trees.is_node_disjoint()
        assert trees.tree_is_consistent(TreeColor.RED)
        assert trees.tree_is_consistent(TreeColor.BLUE)

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        tree_count=st.integers(min_value=2, max_value=4),
    )
    def test_multitree_rounds_conserve(self, seed, tree_count):
        from repro.core.multitree import run_multitree_round

        topology = random_deployment(150, area=200.0, seed=seed % 5)
        readings = {
            i: (i * 13 % 50) - 25 for i in range(1, topology.node_count)
        }
        result = run_multitree_round(
            topology, readings, tree_count, seed=seed, slices=2
        )
        assert result.trees.is_node_disjoint()
        assert all(s == result.participant_total for s in result.sums)
