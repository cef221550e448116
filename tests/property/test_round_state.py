"""Property tests: an iPDA round leaves nothing behind for the next one.

Each node's per-round state is one object that a new epoch replaces.
Generated sequences of epochs on a standing, collision-free session —
fire-and-forget and loss-tolerant, with readings, contributor subsets
and one polluter varied per epoch — pin what that buys:

* every clean epoch is accepted and reports exactly its participants'
  sum; in loss-tolerant mode both trees account for every piece;
* an epoch polluted by an aggregator with an offset beyond ``Th`` is
  rejected, and the epoch after it is judged on its own;
* no duplicate-filter entry outlives its epoch.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import IpdaConfig, RobustnessConfig
from repro.net.topology import random_deployment
from repro.protocols.epochs import EpochedIpdaSession
from repro.rng import RngStreams
from repro.sim.radio import RadioConfig

TOPOLOGY = random_deployment(40, area=120.0, seed=5)
SENSORS = list(range(1, TOPOLOGY.node_count))
THRESHOLD = 5
SLICES = 2


def standing_session(robust: bool) -> EpochedIpdaSession:
    config = IpdaConfig(
        slices=SLICES,
        threshold=THRESHOLD,
        robustness=RobustnessConfig() if robust else None,
    )
    session = EpochedIpdaSession(
        TOPOLOGY,
        config,
        streams=RngStreams(5),
        radio_config=RadioConfig(collisions_enabled=False),
    )
    session.construct_trees()
    return session


@st.composite
def epochs(draw):
    """One epoch's query: readings, contributors, and maybe a polluter."""
    readings = dict(
        zip(
            SENSORS,
            draw(
                st.lists(
                    st.integers(0, 60),
                    min_size=len(SENSORS),
                    max_size=len(SENSORS),
                )
            ),
        )
    )
    contributors = draw(
        st.none() | st.sets(st.sampled_from(SENSORS), min_size=1)
    )
    polluter = draw(
        st.none()
        | st.tuples(
            st.integers(0, len(SENSORS) - 1),
            st.integers(THRESHOLD + 1, 500) | st.integers(-500, -THRESHOLD - 1),
        )
    )
    return readings, contributors, polluter


def filter_entries(session: EpochedIpdaSession) -> Set[Tuple[int, object]]:
    """Every node's duplicate-filter entries for the epoch just run."""
    entries: Set[Tuple[int, object]] = set()
    for node in session.network.iter_nodes():
        state = node.round
        entries |= {(node.id, ("slice", key)) for key in state.seen_slices}
        entries |= {
            (node.id, ("aggregate", key)) for key in state.seen_aggregates
        }
    return entries


@given(
    robust=st.booleans(),
    queries=st.lists(epochs(), min_size=1, max_size=4),
)
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_epochs_do_not_leak_state(robust, queries):
    session = standing_session(robust)
    aggregators = sorted(
        node.id
        for node in session.network.iter_nodes()
        if node.color is not None and node.parent is not None
    )
    earlier: Set[Tuple[int, object]] = set()
    for readings, contributors, polluter in queries:
        polluters: Dict[int, int] = {}
        if polluter is not None:
            index, offset = polluter
            polluters[aggregators[index % len(aggregators)]] = offset
        outcome = session.run_epoch(
            readings, contributors=contributors, polluters=polluters
        )
        verification = outcome.verification
        if polluters:
            assert verification.outcome == "rejected"
        else:
            assert verification.outcome == "accepted"
            assert outcome.reported == sum(
                readings[node] for node in outcome.participants
            )
            if robust:
                expected = SLICES * len(outcome.participants)
                assert verification.expected_pieces == expected
                assert verification.pieces_red == expected
                assert verification.pieces_blue == expected
        if contributors is not None:
            assert outcome.participants <= contributors
        entries = filter_entries(session)
        assert not entries & earlier, "a duplicate filter outlived its epoch"
        earlier |= entries
