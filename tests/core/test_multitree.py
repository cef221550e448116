"""Tests for the m > 2 disjoint-tree generalisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.multitree import (
    MultiTreeVerification,
    build_multi_trees,
    multitree_isolation_probability,
    multitree_messages_per_node,
    run_multitree_round,
)
from repro.errors import AnalysisError, IntegrityError, ProtocolError
from repro.net.topology import random_deployment
from repro.sim.messages import TreeColor


@pytest.fixture(scope="module")
def dense():
    topology = random_deployment(500, seed=91)
    readings = {i: 3 + (i % 5) for i in range(1, topology.node_count)}
    return topology, readings


class TestConstruction:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_trees_node_disjoint(self, dense, m):
        topology, _ = dense
        trees = build_multi_trees(topology, m, np.random.default_rng(m))
        assert trees.is_node_disjoint()

    def test_every_tree_populated_when_dense(self, dense):
        topology, _ = dense
        trees = build_multi_trees(topology, 3, np.random.default_rng(1))
        for color in TreeColor.palette(3):
            assert trees.aggregators(color)

    def test_parents_on_same_tree(self, dense):
        topology, _ = dense
        trees = build_multi_trees(topology, 3, np.random.default_rng(2))
        for color in TreeColor.palette(3):
            members = trees.aggregators(color) | {trees.base_station}
            for node in trees.aggregators(color):
                assert trees.roles[node].parent in members

    def test_coverage_shrinks_with_more_trees(self, dense):
        topology, _ = dense
        covered = []
        for m in (2, 4):
            trees = build_multi_trees(topology, m, np.random.default_rng(3))
            covered.append(len(trees.covered_nodes()))
        assert covered[1] <= covered[0]

    def test_m2_matches_paper_message_budget(self):
        assert multitree_messages_per_node(2, 2) == 5  # 2l+1

    def test_validation(self, dense):
        topology, _ = dense
        with pytest.raises(ProtocolError):
            build_multi_trees(topology, 1, np.random.default_rng(0))
        trees = build_multi_trees(topology, 3, np.random.default_rng(0))
        with pytest.raises(ProtocolError):
            trees.aggregators(TreeColor.YELLOW)


class TestVerification:
    def test_agreeing_sums_accepted(self):
        v = MultiTreeVerification(sums=[100, 101, 99], threshold=5)
        assert v.accepted
        assert v.polluted_trees == []
        assert v.accepted_value == 100

    def test_single_outlier_identified(self):
        v = MultiTreeVerification(sums=[100, 600, 101], threshold=5)
        assert v.accepted
        assert v.polluted_trees == [1]
        assert v.accepted_value == pytest.approx(100, abs=1)

    def test_two_tree_disagreement_has_no_majority(self):
        v = MultiTreeVerification(sums=[100, 600], threshold=5)
        assert not v.accepted
        with pytest.raises(IntegrityError):
            _ = v.accepted_value

    def test_two_tree_agreement_accepted(self):
        v = MultiTreeVerification(sums=[100, 103], threshold=5)
        assert v.accepted
        assert v.accepted_value == 101

    def test_even_split_rejected(self):
        v = MultiTreeVerification(sums=[100, 100, 500, 500], threshold=5)
        assert not v.accepted

    def test_validation(self):
        with pytest.raises(ProtocolError):
            MultiTreeVerification(sums=[1], threshold=5)
        with pytest.raises(ProtocolError):
            MultiTreeVerification(sums=[1, 2], threshold=-1)


class TestRounds:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_all_trees_sum_to_participant_total(self, dense, m):
        topology, readings = dense
        result = run_multitree_round(
            topology, readings, m, seed=m, slices=2
        )
        assert all(s == result.participant_total for s in result.sums)
        assert result.reported == result.participant_total

    def test_transmission_count_matches_budget(self, dense):
        topology, readings = dense
        m, l = 3, 2
        result = run_multitree_round(topology, readings, m, seed=5, slices=l)
        # Every participating aggregator sends m*l - 1 slices.
        expected = len(result.participants) * (m * l - 1)
        assert result.slice_transmissions == expected

    def test_minority_pollution_tolerated_with_three_trees(self, dense):
        topology, readings = dense
        rng = np.random.default_rng(7)
        trees = build_multi_trees(topology, 3, rng)
        polluter = sorted(trees.aggregators(TreeColor.RED))[0]
        result = run_multitree_round(
            topology,
            readings,
            3,
            rng=rng,
            trees=trees,
            polluters={polluter: 10_000},
        )
        assert result.verification.accepted
        assert result.verification.polluted_trees == [0]
        assert result.reported == result.participant_total

    def test_pollution_on_two_of_three_trees_rejected(self, dense):
        topology, readings = dense
        rng = np.random.default_rng(8)
        trees = build_multi_trees(topology, 3, rng)
        p0 = sorted(trees.aggregators(TreeColor.RED))[0]
        p1 = sorted(trees.aggregators(TreeColor.BLUE))[0]
        result = run_multitree_round(
            topology,
            readings,
            3,
            rng=rng,
            trees=trees,
            polluters={p0: 10_000, p1: -8_000},
        )
        # Three singleton clusters: no strict majority.
        assert not result.verification.accepted

    def test_m2_pollution_detected_not_tolerated(self, dense):
        topology, readings = dense
        rng = np.random.default_rng(9)
        trees = build_multi_trees(topology, 2, rng)
        polluter = sorted(trees.aggregators(TreeColor.RED))[0]
        result = run_multitree_round(
            topology,
            readings,
            2,
            rng=rng,
            trees=trees,
            polluters={polluter: 10_000},
        )
        assert not result.verification.accepted
        assert result.reported is None

    def test_tree_count_mismatch_rejected(self, dense):
        topology, readings = dense
        trees = build_multi_trees(topology, 3, np.random.default_rng(0))
        with pytest.raises(ProtocolError):
            run_multitree_round(topology, readings, 4, trees=trees)

    def test_base_station_reading_rejected(self, dense):
        topology, readings = dense
        bad = dict(readings)
        bad[0] = 1
        with pytest.raises(ProtocolError):
            run_multitree_round(topology, bad, 2)


class TestAnalysis:
    def test_isolation_reduces_to_equation_nine_at_m2(self):
        from repro.analysis.coverage import isolation_probability

        for degree in (3, 8, 15):
            assert multitree_isolation_probability(
                degree, 2
            ) == pytest.approx(isolation_probability(degree))

    def test_isolation_grows_with_tree_count(self):
        values = [
            multitree_isolation_probability(10, m) for m in (2, 3, 4, 6)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_isolation_shrinks_with_degree(self):
        values = [
            multitree_isolation_probability(d, 3) for d in (2, 5, 10, 20)
        ]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_messages_per_node_formula(self):
        assert multitree_messages_per_node(3, 2) == 7
        assert multitree_messages_per_node(4, 3) == 13

    def test_validation(self):
        with pytest.raises(AnalysisError):
            multitree_isolation_probability(5, 1)
        with pytest.raises(AnalysisError):
            multitree_messages_per_node(1, 2)
