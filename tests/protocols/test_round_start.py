"""How a radio round starts: who slices, and what a round reports."""

from __future__ import annotations

from repro import IpdaConfig, RngStreams
from repro.core.config import RobustnessConfig
from repro.net.topology import random_deployment
from repro.protocols.ipda import IpdaProtocol


def test_node_crashed_before_slicing_is_no_participant():
    # Timers due while a node is down are lost, the slicing start too.
    topology = random_deployment(120, area=250.0, seed=3)
    readings = {i: 10 for i in range(1, topology.node_count)}
    crashes = {7: 1.9, 9: 1.9, 11: 1.9}  # all before the 10 s window
    outcome = IpdaProtocol(
        IpdaConfig(robustness=RobustnessConfig())
    ).run_round(topology, readings, streams=RngStreams(3), failures=crashes)
    assert not set(crashes) & outcome.participants
    assert outcome.verification.expected_pieces == 2 * len(
        outcome.participants
    )
    assert outcome.participant_total == 10 * len(outcome.participants)
