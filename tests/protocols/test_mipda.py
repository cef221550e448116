"""Tests for m-tree iPDA on the radio stack."""

from __future__ import annotations

import pytest

from repro import IpdaConfig, RngStreams
from repro.errors import ConfigurationError, ProtocolError, ReproError
from repro.net.topology import random_deployment
from repro.protocols.mipda import MipdaProtocol
from repro.sim.messages import TreeColor
from repro.sim.radio import RadioConfig


@pytest.fixture(scope="module")
def dense():
    # m = 3 needs more density than the paper's m = 2 (Section III-B).
    topology = random_deployment(500, seed=141)
    readings = {i: 2 for i in range(1, topology.node_count)}
    return topology, readings


@pytest.fixture(scope="module")
def clean_m3(dense):
    topology, readings = dense
    return MipdaProtocol(3).run_round(
        topology, readings, streams=RngStreams(141)
    )


class TestPalette:
    def test_palette_sizes(self):
        assert len(TreeColor.palette(2)) == 2
        assert len(TreeColor.palette(4)) == 4
        with pytest.raises(ValueError):
            TreeColor.palette(1)
        with pytest.raises(ValueError):
            TreeColor.palette(5)

    @pytest.mark.parametrize("tree_count", [1, 5])
    def test_bad_tree_count_is_a_repro_error(self, tree_count):
        with pytest.raises(ReproError) as caught:
            MipdaProtocol(tree_count)
        assert isinstance(caught.value, ConfigurationError)
        assert isinstance(caught.value, ValueError)
        with pytest.raises(ReproError):
            TreeColor.palette(tree_count)

    def test_other_undefined_for_extra_colors(self):
        with pytest.raises(ValueError):
            _ = TreeColor.GREEN.other


class TestCleanRounds:
    def test_all_trees_agree(self, clean_m3):
        assert len(set(clean_m3.sums)) == 1
        assert clean_m3.accepted
        assert clean_m3.reported == clean_m3.participant_total

    def test_every_color_has_aggregators(self, clean_m3):
        by_color = clean_m3.stats["aggregators_by_color"]
        assert all(count > 0 for count in by_color.values())

    def test_m2_matches_dual_tree_semantics(self, dense):
        topology, readings = dense
        outcome = MipdaProtocol(
            2, radio_config=RadioConfig(collisions_enabled=False)
        ).run_round(topology, readings, streams=RngStreams(7))
        assert outcome.sums[0] == outcome.sums[1] == outcome.participant_total

    def test_coverage_shrinks_with_m(self, dense):
        topology, readings = dense
        covered = []
        for m in (2, 4):
            outcome = MipdaProtocol(
                m, radio_config=RadioConfig(collisions_enabled=False)
            ).run_round(topology, readings, streams=RngStreams(8))
            covered.append(len(outcome.covered))
        assert covered[1] <= covered[0]

    def test_bytes_grow_with_m(self, dense):
        topology, readings = dense
        sizes = []
        for m in (2, 3):
            outcome = MipdaProtocol(
                m, radio_config=RadioConfig(collisions_enabled=False)
            ).run_round(topology, readings, streams=RngStreams(9))
            sizes.append(outcome.bytes_sent)
        assert sizes[0] < sizes[1]


class TestPollutionTolerance:
    def test_minority_pollution_tolerated(self, dense, clean_m3):
        topology, readings = dense
        by_color = clean_m3.stats["aggregators_by_color"]
        assert by_color["red"] > 0
        # Find a red aggregator via the covered set: rerun with the same
        # streams so roles repeat, polluting one covered node.
        polluter = max(clean_m3.covered)
        outcome = MipdaProtocol(3).run_round(
            topology,
            readings,
            streams=RngStreams(141),
            polluters={polluter: 5_000},
        )
        # The polluted tree is identified; the majority still accepts.
        assert outcome.accepted
        assert len(outcome.polluted_trees) == 1
        assert outcome.reported == outcome.participant_total

    def test_majority_pollution_rejected(self, dense, clean_m3):
        topology, readings = dense
        covered = sorted(clean_m3.covered)
        # Hit several nodes with distinct offsets: with high probability
        # at least two trees get polluted differently.
        polluters = {covered[-1]: 4_000, covered[-2]: -3_000,
                     covered[-3]: 2_500, covered[-4]: -1_500}
        outcome = MipdaProtocol(3).run_round(
            topology,
            readings,
            streams=RngStreams(141),
            polluters=polluters,
        )
        # Either no majority (rejected) or the majority excluded the
        # polluted trees; in both cases the damage never silently lands.
        if outcome.accepted:
            assert outcome.reported == outcome.participant_total
        else:
            assert outcome.reported is None

    def test_validation(self, dense):
        topology, readings = dense
        bad = dict(readings)
        bad[0] = 1
        with pytest.raises(ProtocolError):
            MipdaProtocol(3).run_round(topology, bad, streams=RngStreams(1))
