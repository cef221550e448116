"""Gilbert–Elliott burst-loss channels over the shared medium.

The classic two-state loss model (Gilbert 1960, Elliott 1963): each
directed link is independently in a *good* or *bad* state; frames are
lost with a state-dependent probability.  We run the state as a
continuous-time Markov chain and advance it lazily — only when a frame
actually crosses the link — using the closed-form transient solution,
so sparse traffic costs nothing and results do not depend on a polling
step size.

Determinism: every link draws from its own generator derived from
``(seed, "gilbert", src, dst)``, so the loss pattern on one link never
depends on traffic elsewhere, and identical plans replay identically.
A link draws its uniforms :data:`BLOCK` at a time (see
:class:`LinkState`), and they are the values of one scalar draw per
decision.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..rng import derive_seed
from .plan import GilbertElliottParams

__all__ = ["GilbertElliottChannel", "LinkState"]


#: Uniforms a link draws from its generator at a time.
BLOCK = 64


@dataclass(slots=True, eq=False)
class LinkState:
    """Lazy per-link chain state: where it was when last queried.

    ``pi_bad`` (the stationary probability of the bad state) and
    ``neg_rate`` (``-(bad_rate + recovery_rate)``) are the chain
    constants of ``params``, kept so a query does no property lookups.
    The chain's uniforms come from ``block``: :data:`BLOCK` values of
    one ``rng.random(BLOCK)`` call, used in order (``used`` of them so
    far), kept as a C ``double`` array.  They are exactly the values
    one scalar ``rng.random()`` per decision would give, but ``rng``
    runs ahead of the chain: its state is the one after the whole
    current block, up to ``BLOCK - 1`` values past what the chain has
    used.
    """

    in_bad: bool
    last_time: float
    rng: np.random.Generator
    params: GilbertElliottParams
    pi_bad: float
    neg_rate: float
    #: frames this link dropped (reported into trace summaries).
    drops: int = 0
    queries: int = 0
    block: Sequence[float] = ()
    used: int = BLOCK

    def uniform(self) -> float:
        """The chain's next uniform, drawing a new block when spent."""
        used = self.used
        if used == BLOCK:
            self.block = array("d", self.rng.random(BLOCK).tobytes())
            used = 0
        self.used = used + 1
        return self.block[used]


class GilbertElliottChannel:
    """A per-link burst-loss process, pluggable into the radio.

    Instances are callables matching the radio's ``loss_model`` hook:
    ``channel(src, dst, now) -> True`` means the frame is lost.

    Parameters
    ----------
    default:
        Parameters applied to every directed link (None: only the
        overridden links run a chain; everything else is lossless).
    overrides:
        Per-``(src, dst)`` parameter overrides.
    seed:
        Root seed for the per-link generators.
    """

    def __init__(
        self,
        default: Optional[GilbertElliottParams] = None,
        *,
        overrides: Optional[
            Mapping[Tuple[int, int], GilbertElliottParams]
        ] = None,
        seed: int = 0,
        start_time: float = 0.0,
    ):
        self.default = default
        self.overrides = dict(overrides or {})
        self.seed = int(seed)
        self.start_time = float(start_time)
        self._links: Dict[Tuple[int, int], LinkState] = {}

    def arm(self, now: float) -> None:
        """Anchor the chains at simulation time ``now``.

        A channel installed mid-run must not compute its first dwell
        over the whole pre-arm interval — that would let the chain mix
        toward steady state over time during which it did not exist,
        skewing the burst statistics of the first post-arm frames.
        Call this when the channel is attached to a live network (the
        :class:`~repro.faults.injector.FaultInjector` does); links
        instantiated afterwards start their clocks at ``now``.
        """
        self.start_time = float(now)
        for state in self._links.values():
            if state.last_time < self.start_time:
                state.last_time = self.start_time

    def params_for(self, src: int, dst: int) -> Optional[GilbertElliottParams]:
        """Effective parameters of one directed link, if any."""
        return self.overrides.get((src, dst), self.default)

    def _new_link(self, src: int, dst: int) -> Optional[LinkState]:
        """Instantiate one link's chain at its first query (None: lossless)."""
        params = self.params_for(src, dst)
        if params is None:
            return None
        state = LinkState(
            in_bad=False,
            last_time=self.start_time,
            rng=np.random.default_rng(
                derive_seed(self.seed, "gilbert", src, dst)
            ),
            params=params,
            pi_bad=float(params.steady_state_bad),
            neg_rate=float(-(params.bad_rate + params.recovery_rate)),
        )
        # Start each chain at its stationary distribution so early
        # frames see the same loss regime as late ones.
        state.in_bad = state.uniform() < state.pi_bad
        self._links[(src, dst)] = state
        return state

    def __call__(self, src: int, dst: int, now: float) -> bool:
        """The radio's loss hook: advance the chain, then draw the loss.

        The transition probability is
        :meth:`GilbertElliottParams.transition_to_bad_probability`,
        computed from the link's cached constants.
        """
        state = self._links.get((src, dst))
        if state is None:
            state = self._new_link(src, dst)
            if state is None:
                return False
        dt = now - state.last_time
        if dt < 0.0:
            dt = 0.0
        state.last_time = now
        decay = math.exp(state.neg_rate * dt)
        pi_bad = state.pi_bad
        if state.in_bad:
            p_bad = pi_bad + (1.0 - pi_bad) * decay
        else:
            p_bad = pi_bad * (1.0 - decay)
        in_bad = state.in_bad = state.uniform() < p_bad
        params = state.params
        loss_p = params.loss_bad if in_bad else params.loss_good
        state.queries += 1
        if loss_p > 0.0 and state.uniform() < loss_p:
            state.drops += 1
            return True
        return False

    # ------------------------------------------------------------------
    # Introspection (used by tests and experiment notes)
    # ------------------------------------------------------------------
    def observed_loss_rate(self) -> float:
        """Fraction of queried frames this channel dropped so far."""
        queries = sum(s.queries for s in self._links.values())
        if queries == 0:
            return 0.0
        return sum(s.drops for s in self._links.values()) / queries

    def active_links(self) -> int:
        """Links whose chain has been instantiated by traffic."""
        return len(self._links)
