"""How a radio round starts: who slices, and what a round reports."""

from __future__ import annotations

from repro import IpdaConfig, RngStreams
from repro.core.config import RobustnessConfig
from repro.net.topology import random_deployment
from repro.protocols import ipda
from repro.protocols.epochs import EpochedIpdaSession
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


class TestOneRoundStatePerNode:
    """A node's per-round state is built once per round, in start_round."""

    @staticmethod
    def _count_round_states(monkeypatch):
        built = []
        real = ipda._RoundState

        def counting(**fields):
            built.append(fields.get("round_id"))
            return real(**fields)

        monkeypatch.setattr(ipda, "_RoundState", counting)
        return built

    def test_paper_round_builds_one_per_node(self, monkeypatch):
        built = self._count_round_states(monkeypatch)
        topology = random_deployment(600, seed=3)
        readings = {i: 1 for i in range(1, topology.node_count)}
        IpdaProtocol().run_round(topology, readings, streams=RngStreams(3))
        assert len(built) == 600

    def test_epoch_session_builds_one_per_node_per_round(self, monkeypatch):
        built = self._count_round_states(monkeypatch)
        topology = random_deployment(40, area=120.0, seed=5)
        session = EpochedIpdaSession(topology, streams=RngStreams(5))
        assert built == [0] * 40  # Phase I's round
        session.construct_trees()
        session.run_epoch({i: 1 for i in range(1, 40)})
        assert built == [0] * 80  # and epoch 0's
