"""Tests for the shared round verdict and the persistent-polluter hunt."""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest

from repro.core.config import IpdaConfig, RobustnessConfig
from repro.core.integrity import (
    PolluterHunt,
    VerificationResult,
    bisect_polluter,
    piece_slack,
    verify_round,
)
from repro.errors import ProtocolError

ACCEPTED = VerificationResult(s_red=10, s_blue=10, threshold=5)
REJECTED = VerificationResult(s_red=10, s_blue=900, threshold=5)
#: loss explains the gap: two missing pieces stretch Th to 45
DEGRADED = VerificationResult(
    s_red=10,
    s_blue=40,
    threshold=5,
    effective_threshold=45,
    pieces_red=8,
    pieces_blue=10,
    expected_pieces=10,
)
READINGS = {i: 1 for i in range(1, 20)}


def eight_suspects():
    return set(range(8, 16))


def outcome(verification):
    return SimpleNamespace(verification=verification)


def polluted_by(polluter, clean=ACCEPTED):
    """A round runner whose rounds are rejected iff ``polluter`` takes part."""
    calls = []

    def run(contributors):
        calls.append(set(contributors))
        return outcome(REJECTED if polluter in contributors else clean)

    return run, calls


class TestVerifyRound:
    def test_bare_two_way_test_without_robustness(self):
        result = verify_round(IpdaConfig(), 8, 100, 103, 0, 0, 10)
        assert result.accepted
        assert result.effective_threshold is None
        assert result.pieces_red is None

    def test_degradation_disabled_is_bare(self):
        config = IpdaConfig(robustness=RobustnessConfig(degradation=False))
        result = verify_round(config, 8, 100, 140, 18, 20, 10)
        assert result.rejected
        assert result.effective_threshold is None

    def test_loss_scaled_verdict(self):
        config = IpdaConfig(robustness=RobustnessConfig())
        # Two of the 20 expected red pieces are missing: Th + 2 * 16.
        result = verify_round(config, 8, 100, 130, 18, 20, 10)
        assert result.expected_pieces == 20
        assert result.effective_threshold == 5 + 2 * 16
        assert result.degraded

    def test_default_slack_scales_with_slices(self):
        assert piece_slack(IpdaConfig(slices=2), 8) == 16
        assert piece_slack(IpdaConfig(slices=4), 8) == 32
        assert piece_slack(IpdaConfig(slices=1), 8) == 16

    def test_configured_slack_wins(self):
        config = IpdaConfig(robustness=RobustnessConfig(piece_slack=3))
        assert piece_slack(config, 8) == 3


class TestBisectPolluter:
    def test_finds_polluter_in_log_rounds(self):
        suspects = set(range(10, 42))
        run, calls = polluted_by(29)
        culprit, rounds = bisect_polluter(suspects, range(1, 50), run)
        assert culprit == 29
        assert rounds == len(calls) <= math.ceil(math.log2(len(suspects)))

    def test_probe_keeps_honest_rest(self):
        suspects = {3, 4, 5, 6}
        run, calls = polluted_by(5)
        bisect_polluter(suspects, range(1, 10), run)
        for contributors in calls:
            assert {1, 2, 7, 8, 9} <= contributors
            assert len(contributors & suspects) <= 2

    def test_degraded_probe_is_not_evidence(self):
        run, _calls = polluted_by(7, clean=DEGRADED)
        culprit, _rounds = bisect_polluter({5, 6, 7, 8}, range(1, 10), run)
        assert culprit == 7


class TestPolluterHunt:
    def test_validation(self):
        with pytest.raises(ProtocolError):
            PolluterHunt(hunt_after=0)

    def test_eligible_drops_excluded_and_restricts(self):
        hunt = PolluterHunt()
        hunt.excluded.add(3)
        readings = {i: 1 for i in range(1, 6)}
        assert hunt.eligible(readings) == {1, 2, 4, 5}
        assert hunt.eligible(readings, {2, 3, 4}) == {2, 4}

    def test_streak_triggers_hunt_and_exclusion(self):
        hunt = PolluterHunt(hunt_after=2)
        run, _calls = polluted_by(13)
        assert hunt.observe(REJECTED, READINGS, eight_suspects, run) is None
        culprit, rounds = hunt.observe(REJECTED, READINGS, eight_suspects, run)
        assert (culprit, rounds) == (13, 3)
        assert hunt.excluded == {13}
        assert 13 not in hunt.eligible(READINGS)

    def test_degraded_round_breaks_streak(self):
        hunt = PolluterHunt(hunt_after=2)
        run, calls = polluted_by(13)
        for verification in (REJECTED, DEGRADED, REJECTED, ACCEPTED):
            found = hunt.observe(verification, READINGS, eight_suspects, run)
            assert found is None
        assert calls == []
        assert hunt.excluded == set()

    def test_excluded_nodes_sit_out_later_hunts(self):
        hunt = PolluterHunt(hunt_after=1)
        hunt.excluded.add(13)
        run, calls = polluted_by(14)
        culprit, _rounds = hunt.observe(
            REJECTED, READINGS, lambda: {12, 13, 14, 15}, run
        )
        assert culprit == 14
        assert hunt.excluded == {13, 14}
        assert calls and all(13 not in contributors for contributors in calls)

    def test_nothing_left_to_hunt(self):
        hunt = PolluterHunt(hunt_after=1)
        hunt.excluded.add(13)
        run, _calls = polluted_by(13)
        with pytest.raises(ProtocolError):
            hunt.observe(REJECTED, READINGS, lambda: {13}, run)
