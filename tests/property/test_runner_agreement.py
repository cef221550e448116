"""Property test: the one-shot radio runners agree on a perfect channel.

With collisions off and no loss, nothing a runner sends can be lost, so
TAG, PDA, iPDA and m-tree iPDA (m = 3, also in its robust mode) must
each report exactly the sum of the readings of the sensors that took
part, over generated deployments, readings and seeds.  iPDA's two trees must also agree, and
the base station must accept.  This is the radio level's share of the
cross-level agreement between the lossless pipeline, the one-shot round
and the standing session.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    IpdaConfig,
    IpdaProtocol,
    PdaProtocol,
    RngStreams,
    TagProtocol,
    random_deployment,
)
from repro.core.config import RobustnessConfig
from repro.protocols import MipdaProtocol
from repro.sim.radio import RadioConfig

PERFECT = RadioConfig(collisions_enabled=False)

RUNNERS = {
    "tag": TagProtocol(radio_config=PERFECT),
    "pda": PdaProtocol(radio_config=PERFECT),
    "ipda": IpdaProtocol(radio_config=PERFECT),
    "mipda-3": MipdaProtocol(tree_count=3, radio_config=PERFECT),
    "mipda-3-robust": MipdaProtocol(
        3, IpdaConfig(robustness=RobustnessConfig()), radio_config=PERFECT
    ),
}


@st.composite
def rounds(draw):
    """A small random deployment, its readings and a round seed."""
    node_count = draw(st.integers(20, 90))
    topology = random_deployment(
        node_count,
        area=draw(st.floats(100.0, 250.0)),
        seed=draw(st.integers(0, 2**16)),
    )
    values = draw(
        st.lists(
            st.integers(0, 100),
            min_size=node_count - 1,
            max_size=node_count - 1,
        )
    )
    readings = dict(enumerate(values, start=1))
    return topology, readings, draw(st.integers(0, 2**16))


@settings(max_examples=20, deadline=None)
@given(rounds())
def test_every_runner_reports_its_participant_total(case):
    topology, readings, seed = case
    for name, runner in RUNNERS.items():
        outcome = runner.run_round(
            topology, readings, streams=RngStreams(seed)
        )
        assert outcome.reported == outcome.participant_total, name
        if name == "ipda":
            assert outcome.accepted
            assert outcome.s_red == outcome.s_blue
