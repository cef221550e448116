"""The block-drawn burst-loss channel against the per-call reference.

Production links take their uniforms from blocks of ``BLOCK`` values
drawn at once; ``tests/channel_oracle.py`` keeps the channel that drew
one scalar per decision.  Driven with the same query stream, the two
must agree on every loss, on each link's chain state and counters, and
on the channel-wide loss rate — and the values waiting in a production
block must be exactly the reference generator's next draws.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.channel import BLOCK, GilbertElliottChannel
from repro.faults.plan import GilbertElliottParams
from tests.channel_oracle import ScalarGilbertElliottChannel

_LINKS = [(1, 2), (2, 1), (3, 4), (0, 5)]

_probability = st.one_of(
    st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)
)

params_strategy = st.builds(
    GilbertElliottParams,
    bad_rate=st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    recovery_rate=st.floats(0.01, 20.0),
    loss_good=_probability,
    loss_bad=_probability,
)

#: One step of a query stream: ("query", link index, time step) moves
#: the clock by the step (0 repeats a timestamp) and queries the link;
#: ("arm", _, offset) arms the channel at the clock plus the offset —
#: ahead of it too, so later queries see a negative gap.
step_strategy = st.one_of(
    st.tuples(
        st.just("query"),
        st.integers(0, len(_LINKS) - 1),
        st.sampled_from([0.0, 0.0, 1e-6, 1e-3, 0.05, 0.5, 3.0]),
    ),
    st.tuples(
        st.just("arm"),
        st.just(0),
        st.sampled_from([0.0, 0.01, 1.0, 1000.0]),
    ),
)


def _channels(default, override, seed):
    overrides = {} if override is None else {_LINKS[1]: override}
    return (
        GilbertElliottChannel(default, overrides=overrides, seed=seed),
        ScalarGilbertElliottChannel(default, overrides=overrides, seed=seed),
    )


def _drive(channel, steps):
    now = 0.0
    outcomes = []
    for kind, link, step in steps:
        if kind == "arm":
            channel.arm(now + step)
            continue
        now += step
        outcomes.append(channel(*_LINKS[link], now))
    return outcomes


def _assert_same(block, scalar):
    assert block.active_links() == scalar.active_links()
    assert block.observed_loss_rate() == scalar.observed_loss_rate()
    assert set(block._links) == set(scalar._links)
    for key, state in block._links.items():
        reference = scalar._links[key]
        assert state.in_bad == reference.in_bad
        assert state.last_time == reference.last_time
        assert state.queries == reference.queries
        assert state.drops == reference.drops
        # The generator runs ahead of the chain by exactly the unused
        # tail of the block, which holds the reference's next draws.
        unused = list(state.block[state.used:])
        ahead = copy.deepcopy(reference.rng)
        assert unused == [ahead.random() for _ in unused]
        assert state.rng.random() == ahead.random()


@settings(max_examples=200, deadline=None)
@given(
    default=st.one_of(st.none(), params_strategy),
    override=st.one_of(st.none(), params_strategy),
    seed=st.integers(0, 2**32 - 1),
    steps=st.lists(step_strategy, max_size=300),
)
def test_block_draws_match_scalar_draws(default, override, seed, steps):
    block, scalar = _channels(default, override, seed)
    assert _drive(block, steps) == _drive(scalar, steps)
    _assert_same(block, scalar)


@settings(max_examples=15, deadline=None)
@given(
    params=params_strategy,
    seed=st.integers(0, 2**32 - 1),
    queries=st.integers(BLOCK, 4 * BLOCK),
)
def test_single_link_across_many_blocks(params, seed, queries):
    # At least one decision per query, so every run spends at least one
    # whole block on one link and keeps going into the next.
    block, scalar = _channels(params, None, seed)
    steps = [("query", 0, 0.01 * (i % 3)) for i in range(queries)]
    assert _drive(block, steps) == _drive(scalar, steps)
    _assert_same(block, scalar)
    assert block._links[_LINKS[0]].queries == queries


def test_lossy_good_state_and_no_bursts_spends_two_draws_per_query():
    # bad_rate = 0 pins the chain in the good state; loss_good > 0 then
    # costs a second uniform on every query.
    params = GilbertElliottParams(
        bad_rate=0.0, recovery_rate=1.0, loss_good=0.3, loss_bad=0.9
    )
    block, scalar = _channels(params, None, 5)
    steps = [("query", 0, 0.05)] * (3 * BLOCK)
    outcomes = _drive(block, steps)
    assert outcomes == _drive(scalar, steps)
    assert any(outcomes) and not all(outcomes)
    _assert_same(block, scalar)
    state = block._links[_LINKS[0]]
    assert not state.in_bad
    # 1 initial draw + 2 per query, used in whole blocks.
    assert state.used == (1 + 2 * 3 * BLOCK) % BLOCK
