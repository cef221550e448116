"""Multi-round aggregation sessions with self-healing integrity.

Section III-D sketches the base station's operational loop: run
rounds, reject on disagreement, and — when rejections persist (the DoS
pattern) — "intelligently select a different portion of the sensors to
participate in the aggregation at each round, hence locate the
malicious node and exclude it in O(log N) rounds".
:class:`AggregationSession` implements that loop end to end on the
lossless pipeline:

* every round re-elects roles and trees (fresh randomness, as the
  paper's per-query HELLO flood implies);
* compromised nodes (the session's ``compromised`` map) pollute every
  round in which they are participating aggregators;
* after ``hunt_after`` consecutive rejections the session switches into
  hunting mode, bisecting the suspect set with restricted-participation
  rounds until the polluter is isolated, then excludes it permanently
  and resumes normal service.

The streak, bisection and exclusion are
:class:`~repro.core.integrity.PolluterHunt`, the policy the radio
service (:class:`repro.protocols.epochs.RadioAggregationService`)
shares; this module supplies only the lossless rounds and the suspects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set

import numpy as np

from ..net.topology import Topology
from ..sim.messages import TreeColor
from .config import IpdaConfig
from .integrity import PolluterHunt
from .pipeline import LosslessRound, run_lossless_round
from .trees import DisjointTrees, build_disjoint_trees

__all__ = ["RoundRecord", "AggregationSession"]


@dataclass
class RoundRecord:
    """One service round as the base station saw it."""

    round_id: int
    accepted: bool
    reported: Optional[int]
    s_red: int
    s_blue: int
    participants: int
    excluded: Set[int] = field(default_factory=set)
    hunt_rounds: int = 0
    newly_excluded: Optional[int] = None
    #: three-way verdict; ``degraded`` means the disagreement was fully
    #: explained by reported loss and a partial estimate was served.
    outcome: str = "accepted"
    #: worse tree's piece coverage (None outside loss-tolerant mode).
    coverage: Optional[float] = None
    confidence: float = 1.0
    crashed: Set[int] = field(default_factory=set)

    @property
    def degraded(self) -> bool:
        """Was a partial (loss-explained) estimate served?"""
        return self.outcome == "degraded"


class AggregationSession:
    """A long-running base-station query service over one deployment.

    Parameters
    ----------
    topology:
        The deployment served.
    config:
        iPDA parameters (l, Th, role mode).
    compromised:
        ``{node_id: offset}`` — nodes under attacker control; each
        pollutes every round it participates in as an aggregator.
    hunt_after:
        Consecutive rejections that trigger the bisection hunt.
    seed:
        Root seed for the session's randomness.
    """

    def __init__(
        self,
        topology: Topology,
        config: Optional[IpdaConfig] = None,
        *,
        compromised: Optional[Mapping[int, int]] = None,
        hunt_after: int = 2,
        seed: int = 0,
        base_station: int = 0,
    ):
        self._hunt = PolluterHunt(hunt_after)
        self.topology = topology
        self.config = config if config is not None else IpdaConfig()
        self.base_station = base_station
        self.compromised: Dict[int, int] = dict(compromised or {})
        self.history: List[RoundRecord] = []
        self._rng = np.random.default_rng(seed)
        self._round_id = 0

    @property
    def hunt_after(self) -> int:
        """Consecutive rejections that trigger the bisection hunt."""
        return self._hunt.hunt_after

    @property
    def excluded(self) -> Set[int]:
        """Nodes hunted down and barred from every later round."""
        return self._hunt.excluded

    # ------------------------------------------------------------------
    # Public service loop
    # ------------------------------------------------------------------
    def run_round(
        self,
        readings: Mapping[int, int],
        *,
        crashed: Optional[Set[int]] = None,
    ) -> RoundRecord:
        """Serve one query; hunts and excludes on a rejection streak.

        ``crashed`` marks nodes fail-stopped for this round (fault
        injection): they contribute nothing, and slices scattered to
        them are lost.  In loss-tolerant mode such rounds *degrade*
        rather than reject — and degraded rounds do not feed the
        rejection streak, so benign crashes never trigger the polluter
        hunt.
        """
        dead = set(crashed) if crashed else set()
        pinned: Optional[DisjointTrees] = None

        def run(contributors: Set[int]) -> LosslessRound:
            trees = pinned if pinned is not None else self._trees()
            active_polluters = {
                node: offset
                for node, offset in self.compromised.items()
                if node in contributors and trees.role_of(node).is_aggregator
            }
            return run_lossless_round(
                self.topology,
                readings,
                self.config,
                rng=self._rng,
                base_station=self.base_station,
                contributors=contributors,
                polluters=active_polluters or None,
                trees=trees,
                crashed=dead,
            )

        def suspects() -> Set[int]:
            # The hunt pins one set of trees for its duration so a
            # suspect's aggregator role stays stable across probe rounds.
            nonlocal pinned
            pinned = self._trees()
            return pinned.aggregators(TreeColor.RED) | pinned.aggregators(
                TreeColor.BLUE
            )

        result = run(self._hunt.eligible(readings))
        verification = result.verification
        record = RoundRecord(
            round_id=self._round_id,
            accepted=verification.accepted,
            reported=result.reported,
            s_red=result.s_red,
            s_blue=result.s_blue,
            participants=len(result.participants),
            excluded=set(self.excluded),
            outcome=verification.outcome,
            coverage=verification.coverage,
            confidence=verification.confidence,
            crashed=dead,
        )
        self._round_id += 1
        hunt = self._hunt.observe(verification, readings, suspects, run)
        if hunt is not None:
            record.newly_excluded, record.hunt_rounds = hunt
        self.history.append(record)
        return record

    def run_rounds(
        self, readings: Mapping[int, int], count: int
    ) -> List[RoundRecord]:
        """Serve ``count`` identical queries (re-randomised each round)."""
        return [self.run_round(readings) for _ in range(count)]

    @property
    def acceptance_rate(self) -> float:
        """Fraction of service rounds accepted so far."""
        if not self.history:
            return 0.0
        accepted = sum(1 for record in self.history if record.accepted)
        return accepted / len(self.history)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _trees(self) -> DisjointTrees:
        """Fresh Phase I trees from the session's randomness."""
        return build_disjoint_trees(
            self.topology,
            self.config,
            self._rng,
            base_station=self.base_station,
        )
