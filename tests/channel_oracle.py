"""The per-call burst-loss channel, kept as a differential-test oracle.

Before block draws, every :class:`~repro.faults.channel.LinkState`
asked its generator for one scalar ``rng.random()`` per decision: one
for the chain's next state, and one for the loss when the state's loss
probability is positive.  :class:`ScalarGilbertElliottChannel` is that
channel, with the transition probability taken from
:meth:`~repro.faults.plan.GilbertElliottParams.transition_to_bad_probability`
on every query, so a test can drive it and the production channel with
one query stream and compare every outcome and counter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.channel import GilbertElliottChannel
from repro.faults.plan import GilbertElliottParams
from repro.rng import derive_seed


@dataclass
class ScalarLinkState:
    """Lazy per-link chain state: where it was when last queried."""

    in_bad: bool
    last_time: float
    rng: np.random.Generator
    params: GilbertElliottParams
    drops: int = 0
    queries: int = 0


class ScalarGilbertElliottChannel(GilbertElliottChannel):
    """:class:`GilbertElliottChannel` drawing one scalar per decision.

    Construction, :meth:`arm`, :meth:`params_for` and the introspection
    methods are the production ones; only link creation and the query
    differ.
    """

    def _state(self, src: int, dst: int):
        key = (src, dst)
        state = self._links.get(key)
        if state is None:
            params = self.params_for(src, dst)
            if params is None:
                return None
            rng = np.random.default_rng(
                derive_seed(self.seed, "gilbert", src, dst)
            )
            in_bad = bool(rng.random() < params.steady_state_bad)
            state = ScalarLinkState(
                in_bad=in_bad,
                last_time=self.start_time,
                rng=rng,
                params=params,
            )
            self._links[key] = state
        return state

    def __call__(self, src: int, dst: int, now: float) -> bool:
        state = self._state(src, dst)
        if state is None:
            return False
        params = state.params
        dt = max(now - state.last_time, 0.0)
        state.last_time = now
        p_bad = params.transition_to_bad_probability(state.in_bad, dt)
        state.in_bad = bool(state.rng.random() < p_bad)
        loss_p = params.loss_bad if state.in_bad else params.loss_good
        state.queries += 1
        lost = bool(loss_p > 0.0 and state.rng.random() < loss_p)
        if lost:
            state.drops += 1
        return lost
