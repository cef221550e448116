"""Benign loss never feeds the polluter hunt, on either service.

The lossless :class:`~repro.core.session.AggregationSession` and the
radio :class:`~repro.protocols.epochs.RadioAggregationService` share
one hunt policy.  A crash whose loss explains the trees' disagreement
degrades the round: the partial estimate is served, no hunt runs and
nobody is excluded, even with ``hunt_after=1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Set

import numpy as np
import pytest

from repro import IpdaConfig, RngStreams
from repro.core.config import RobustnessConfig
from repro.core.session import AggregationSession
from repro.net.topology import random_deployment
from repro.protocols.epochs import EpochedIpdaSession, RadioAggregationService
from repro.sim.radio import RadioConfig

SEED = 161


@dataclass
class Served:
    """The crashed round as each service served it."""

    verdict: str
    reported: Optional[int]
    report_value: Optional[int]
    probe_rounds: int
    excluded: Set[int]


@pytest.fixture(scope="module")
def deployment():
    topology = random_deployment(150, area=250.0, seed=SEED)
    draw = np.random.default_rng(1)
    readings = {
        i: int(draw.integers(0, 100)) for i in range(1, topology.node_count)
    }
    return topology, readings


def robust_config() -> IpdaConfig:
    return IpdaConfig(robustness=RobustnessConfig())


def serve_lossless(topology, readings) -> Served:
    session = AggregationSession(
        topology, robust_config(), hunt_after=1, seed=SEED
    )
    session.run_round(readings)
    # Fixed roles: node 1 aggregates in every round's trees.
    record = session.run_round(readings, crashed={1})
    return Served(
        verdict=record.outcome,
        reported=record.reported,
        report_value=record.reported,
        probe_rounds=record.hunt_rounds,
        excluded=set(session.excluded),
    )


def serve_radio(topology, readings) -> Served:
    session = EpochedIpdaSession(
        topology,
        robust_config(),
        streams=RngStreams(SEED),
        radio_config=RadioConfig(collisions_enabled=False),
    )
    session.construct_trees()
    service = RadioAggregationService(session, hunt_after=1)
    service.serve(readings)
    victim = min(
        node.id
        for node in session.network.iter_nodes()
        if node.id != 0 and node.color is not None
    )
    session.network.kill_node(victim)
    outcome = service.serve(readings)
    return Served(
        verdict=outcome.verification.outcome,
        reported=outcome.reported,
        report_value=outcome.verification.report_value,
        probe_rounds=len(session.history) - 2,
        excluded=set(service.excluded),
    )


@pytest.mark.parametrize(
    "serve", [serve_lossless, serve_radio], ids=["lossless", "radio"]
)
def test_benign_crash_degrades_without_a_hunt(deployment, serve):
    served = serve(*deployment)
    assert served.verdict == "degraded"
    assert served.probe_rounds == 0
    assert served.excluded == set()
    # The degraded estimate is what the service reports.
    assert served.reported is not None
    assert served.reported == served.report_value
