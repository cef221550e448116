"""Link-eavesdropping attack (Sections II-C and IV-A.3).

The adversary compromises each wireless link independently with
probability ``p_x`` (modelling shared ring keys, captured keys, or
physical-layer attacks) and tries to reconstruct individual readings
from the slice traffic it can decrypt.  Per the paper's analysis, node
``i``'s reading is disclosed when the attacker either

* decrypts *all* ``l`` slices of one complete cut that left the node
  (the pieces sum to ``d(i)``), or
* decrypts the ``l - 1`` transmitted pieces of the self-including cut
  *and* every incoming slice of the node — the kept piece then falls
  out of the node's (plaintext) intermediate aggregate ``r(i)``.

:class:`LinkEavesdropper` runs the attack concretely against the
recorded flows of a round, actually summing decrypted pieces, so the
Monte-Carlo disclosure rate can be checked against Equation 11.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Tuple

import numpy as np

from ..core.pipeline import LosslessRound, NodeFlows
from ..errors import ProtocolError
from ..net.topology import Topology
from ..sim.messages import TreeColor

__all__ = ["DisclosureReport", "LinkEavesdropper", "compromise_links"]


def _link(a: int, b: int) -> Tuple[int, int]:
    return (a, b) if a < b else (b, a)


def compromise_links(
    topology: Topology, px: float, rng: np.random.Generator
) -> Set[Tuple[int, int]]:
    """Independently compromise each link with probability ``px``."""
    if not 0.0 <= px <= 1.0:
        raise ProtocolError("px must be a probability")
    edges = topology.edges()
    # One vector draw: the same stream values, in edge order, as one
    # scalar draw per edge.
    hits = np.flatnonzero(rng.random(len(edges)) < px)
    return {edges[index] for index in hits.tolist()}


@dataclass
class DisclosureReport:
    """Which readings the eavesdropper recovered in one attack run."""

    compromised_links: Set[Tuple[int, int]]
    disclosed: Dict[int, int] = field(default_factory=dict)
    attempted: Set[int] = field(default_factory=set)

    @property
    def disclosure_rate(self) -> float:
        """Fraction of attempted nodes whose reading leaked."""
        if not self.attempted:
            return 0.0
        return len(self.disclosed) / len(self.attempted)

    def all_correct(self, readings: Dict[int, int]) -> bool:
        """Every recovered value matches the true reading."""
        return all(
            readings.get(node_id) == value
            for node_id, value in self.disclosed.items()
        )


class LinkEavesdropper:
    """Reconstructs readings from slice flows over compromised links."""

    def __init__(
        self,
        px: float,
        *,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ):
        if not 0.0 <= px <= 1.0:
            raise ProtocolError("px must be a probability")
        self.px = px
        self._rng = rng if rng is not None else np.random.default_rng(seed)

    def attack(
        self,
        topology: Topology,
        round_result: LosslessRound,
        *,
        links: Optional[Iterable[Tuple[int, int]]] = None,
    ) -> DisclosureReport:
        """Run the attack against one recorded round.

        ``links`` overrides the random compromise draw (useful for
        targeted what-if analysis).
        """
        if round_result.flows is None:
            raise ProtocolError(
                "round was not run with record_flows=True; nothing to attack"
            )
        if links is None:
            compromised = compromise_links(topology, self.px, self._rng)
        else:
            compromised = {_link(a, b) for a, b in links}
        report = DisclosureReport(compromised_links=compromised)
        for node_id in sorted(round_result.participants):
            flows = round_result.flows.get(node_id)
            if flows is None:
                continue
            report.attempted.add(node_id)
            value = self._try_reconstruct(node_id, flows, compromised)
            if value is not None:
                report.disclosed[node_id] = value
        return report

    # ------------------------------------------------------------------
    def _try_reconstruct(
        self,
        node_id: int,
        flows: NodeFlows,
        compromised: Set[Tuple[int, int]],
    ) -> Optional[int]:
        def readable(target: int) -> bool:
            return _link(node_id, target) in compromised

        # Way 1: a fully transmitted cut, every piece decrypted.
        for color in (TreeColor.RED, TreeColor.BLUE):
            outgoing = flows.outgoing.get(color, [])
            if not outgoing:
                continue
            if flows.cut_is_complete(color) and all(
                readable(t) for t, _piece in outgoing
            ):
                return sum(piece for _t, piece in outgoing)

        # Way 2: the self-including cut's l-1 pieces plus every incoming
        # slice; the kept piece falls out of the plaintext aggregate.
        own_cut_color = flows.kept_cut_color()
        if own_cut_color is not None:
            outgoing = flows.outgoing.get(own_cut_color, [])
            incoming_ok = all(
                _link(sender, node_id) in compromised
                for sender, _piece in flows.incoming
            )
            outgoing_ok = all(readable(t) for t, _piece in outgoing)
            if incoming_ok and outgoing_ok:
                # r(i) is broadcast in the clear; the attacker solves
                # kept = r(i) - sum(incoming), then
                # d(i) = kept + sum(outgoing own cut).
                assert flows.kept is not None
                return flows.kept + sum(piece for _t, piece in outgoing)
        return None

    def monte_carlo_disclosure(
        self,
        topology: Topology,
        round_result: LosslessRound,
        *,
        trials: int = 100,
    ) -> float:
        """Average disclosure rate over independent compromise draws.

        The per-node average over trials estimates the paper's
        ``P_disclose(p_x)`` for this topology (Figure 5's y-axis).
        """
        if trials < 1:
            raise ProtocolError("trials must be >= 1")
        total = 0.0
        for _trial in range(trials):
            report = self.attack(topology, round_result)
            total += report.disclosure_rate
        return total / trials
