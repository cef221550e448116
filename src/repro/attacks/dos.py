"""Persistent-polluter DoS and its O(log N) localisation (Section III-D).

A malicious aggregator that pollutes *every* round forces the base
station to reject continually — a denial-of-service on the aggregate.
The countermeasure the paper sketches is implemented here end to end:
the base station re-runs the aggregation on bisected participant
subsets (via the ``contributors`` hook) with the services' shared
bisection, :func:`~repro.core.integrity.bisect_polluter`, which pins
the attacker in ``ceil(log2 N)`` rounds and excludes it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Set

import numpy as np

from ..core.config import IpdaConfig
from ..core.integrity import bisect_polluter
from ..core.pipeline import run_lossless_round
from ..core.trees import DisjointTrees, build_disjoint_trees
from ..errors import ProtocolError
from ..net.topology import Topology

__all__ = ["LocalizationResult", "localize_persistent_polluter"]


@dataclass
class LocalizationResult:
    """How the bisection hunt went."""

    polluter: int
    identified: int
    rounds_used: int
    suspects_initial: int

    @property
    def correct(self) -> bool:
        """Did the hunt finger the actual attacker?"""
        return self.polluter == self.identified

    @property
    def within_log_bound(self) -> bool:
        """Paper's claim: O(log N) rounds."""
        import math

        bound = math.ceil(math.log2(max(self.suspects_initial, 2))) + 1
        return self.rounds_used <= bound


def localize_persistent_polluter(
    topology: Topology,
    readings: Mapping[int, int],
    polluter: int,
    offset: int,
    *,
    config: Optional[IpdaConfig] = None,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
    base_station: int = 0,
    trees: Optional[DisjointTrees] = None,
) -> LocalizationResult:
    """Hunt a persistent polluter with bisected aggregation rounds.

    The polluter tampers (adds ``offset``) in every round in which it is
    an aggregator.  Rounds are run losslessly so that detection is
    purely the integrity mechanism — no channel noise.  Suspects are
    the aggregators of the polluter's tree (leaf nodes cannot pollute).
    """
    if offset == 0:
        raise ProtocolError("a persistent polluter needs a non-zero offset")
    cfg = config if config is not None else IpdaConfig()
    generator = rng if rng is not None else np.random.default_rng(seed)
    if trees is None:
        trees = build_disjoint_trees(
            topology, cfg, generator, base_station=base_station
        )
    role = trees.role_of(polluter)
    if role.color is None:
        raise ProtocolError(
            f"node {polluter} is a leaf this round; it cannot pollute"
        )
    suspects = trees.aggregators(role.color)
    if polluter not in suspects:
        raise ProtocolError("polluter must be one of its tree's aggregators")

    def run(contributors: Set[int]):
        # The polluter damages a round only as a *contributing*
        # aggregator: its tampering rides its report, so leaving it out
        # of a probe means leaving it out of aggregation duty too.
        pollution = {polluter: offset} if polluter in contributors else None
        return run_lossless_round(
            topology,
            readings,
            cfg,
            rng=generator,
            base_station=base_station,
            contributors=contributors,
            polluters=pollution,
            trees=trees,
        )

    # Lossless probes cannot degrade: every non-accepted probe is a
    # rejection, the only evidence the bisection counts.
    identified, rounds_used = bisect_polluter(suspects, readings, run)
    return LocalizationResult(
        polluter=polluter,
        identified=identified,
        rounds_used=rounds_used,
        suspects_initial=len(suspects),
    )
