"""Disjoint aggregation tree construction (Phase I, logical form).

Implements Section III-B as a synchronous-round process directly on the
topology: the base station announces itself as both a red and a blue
aggregator; a node that has heard HELLOs from at least one aggregator
of *each* colour elects its role (Equations 1–2), picks the shallowest
same-colour aggregator it heard as parent, and — if it became an
aggregator — announces itself to its neighbours in the next round.
Nodes that never hear both colours never join (data-loss factor (a)).

This logical builder is loss-free and instantaneous; the event-driven
variant that rides the full radio stack lives in
:mod:`repro.protocols.ipda` and produces the same structures.  The
logical form is what the paper's own coverage analysis (Section IV-A.1)
describes, and it powers Figures 8(a)/8(b) at scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from ..errors import ProtocolError
from ..net.topology import Topology
from ..sim.messages import TreeColor
from .config import IpdaConfig, RoleMode

__all__ = ["NodeRole", "DisjointTrees", "build_disjoint_trees", "role_probabilities"]


@dataclass(frozen=True)
class NodeRole:
    """The Phase-I outcome for one node.

    ``color`` is None for leaf nodes.  ``parent``/``hops`` are set only
    for aggregators (their position in their colour's tree).
    """

    color: Optional[TreeColor]
    parent: Optional[int] = None
    hops: int = 0

    @property
    def is_aggregator(self) -> bool:
        """True when the node joined one of the trees."""
        return self.color is not None


def role_probabilities(
    n_red_heard: int,
    n_blue_heard: int,
    *,
    mode: RoleMode,
    budget: int,
) -> Tuple[float, float]:
    """Return ``(p_r, p_b)`` per Equations 1–2 of the paper.

    Adaptive mode balances colours: the probability of turning red is
    proportional to how many *blue* HELLOs were heard, and the total
    aggregator probability is ``min(1, k / (N_blue + N_red))``.
    """
    total = n_red_heard + n_blue_heard
    if total <= 0:
        raise ProtocolError("role election requires at least one HELLO heard")
    if mode is RoleMode.FIXED:
        return 0.5, 0.5
    p = 1.0 if total <= budget else budget / total
    p_red = p * (n_blue_heard / total)
    p_blue = p * (n_red_heard / total)
    return p_red, p_blue


@dataclass
class DisjointTrees:
    """Result of Phase I over a topology.

    The base station belongs to both trees (it is the root of each);
    every other node has exactly one role.
    """

    topology: Topology
    base_station: int
    roles: Dict[int, NodeRole] = field(default_factory=dict)
    #: HELLO senders each node heard, per colour (aggregator ids).
    heard: Dict[int, Dict[TreeColor, FrozenSet[int]]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Membership queries
    # ------------------------------------------------------------------
    def role_of(self, node_id: int) -> NodeRole:
        """Role of ``node_id`` (leaf-with-no-colour if it never decided)."""
        return self.roles.get(node_id, NodeRole(color=None))

    def aggregators(self, color: TreeColor) -> Set[int]:
        """All aggregators of one colour, **excluding** the base station."""
        return {
            node_id
            for node_id, role in self.roles.items()
            if role.color is color and node_id != self.base_station
        }

    def heard_aggregators(self, node_id: int, color: TreeColor) -> FrozenSet[int]:
        """Aggregators of ``color`` whose HELLO ``node_id`` heard.

        Includes the base station when it is in range (it announces as
        both colours).
        """
        by_color = self.heard.get(node_id)
        if by_color is None:
            return frozenset()
        return by_color.get(color, frozenset())

    # ------------------------------------------------------------------
    # Coverage / participation (Figure 8 metrics)
    # ------------------------------------------------------------------
    def is_covered(self, node_id: int) -> bool:
        """Heard at least one aggregator of each colour (factor (a))."""
        if node_id == self.base_station:
            return True
        return bool(
            self.heard_aggregators(node_id, TreeColor.RED)
            and self.heard_aggregators(node_id, TreeColor.BLUE)
        )

    def covered_nodes(self) -> Set[int]:
        """All covered nodes, base station included."""
        return {
            node_id
            for node_id in range(self.topology.node_count)
            if self.is_covered(node_id)
        }

    def can_participate(self, node_id: int, slices: int) -> bool:
        """Covered *and* enough slice targets of each colour (factor (b)).

        A node needs ``l`` aggregators per colour counting itself for
        its own colour (Section III-C.1), i.e. ``l - 1`` remote peers of
        its own colour and ``l`` of the other.
        """
        if node_id == self.base_station:
            return True
        role = self.role_of(node_id)
        for color in (TreeColor.RED, TreeColor.BLUE):
            candidates = set(self.heard_aggregators(node_id, color))
            candidates.discard(node_id)
            needed = slices - 1 if role.color is color else slices
            if len(candidates) < needed:
                return False
        return True

    def participants(self, slices: int) -> Set[int]:
        """Nodes able to contribute their reading, base station excluded."""
        return {
            node_id
            for node_id in range(self.topology.node_count)
            if node_id != self.base_station
            and self.can_participate(node_id, slices)
        }

    # ------------------------------------------------------------------
    # Structural invariants (tested)
    # ------------------------------------------------------------------
    def is_node_disjoint(self) -> bool:
        """No node other than the base station is in both trees."""
        red = self.aggregators(TreeColor.RED)
        blue = self.aggregators(TreeColor.BLUE)
        return not (red & blue)

    def parent_map(self, color: TreeColor) -> Dict[int, Optional[int]]:
        """``{aggregator: parent}`` for one tree; the root maps to None."""
        parents: Dict[int, Optional[int]] = {self.base_station: None}
        for node_id, role in self.roles.items():
            if role.color is color and node_id != self.base_station:
                parents[node_id] = role.parent
        return parents

    def tree_is_consistent(self, color: TreeColor) -> bool:
        """Every parent is an aggregator of the same tree (or the BS)."""
        members = self.aggregators(color) | {self.base_station}
        for node_id in self.aggregators(color):
            parent = self.roles[node_id].parent
            if parent is None or parent not in members:
                return False
        return True

    def summary(self) -> Dict[str, object]:
        """Headline counts for tables."""
        n = self.topology.node_count
        red = len(self.aggregators(TreeColor.RED))
        blue = len(self.aggregators(TreeColor.BLUE))
        covered = len(self.covered_nodes())
        return {
            "nodes": n,
            "red_aggregators": red,
            "blue_aggregators": blue,
            "leaves": n - 1 - red - blue,
            "covered": covered,
            "covered_fraction": covered / n if n else 0.0,
        }


def build_disjoint_trees(
    topology: Topology,
    config: IpdaConfig,
    rng: np.random.Generator,
    *,
    base_station: int = 0,
    max_rounds: Optional[int] = None,
) -> DisjointTrees:
    """Run the logical Phase I process and return the trees.

    Deterministic given ``rng`` state: nodes decide in ascending id
    order within each synchronous round.  Only nodes that heard a HELLO
    this round are examined: an undecided node whose heard sets did not
    grow would already have decided in an earlier round.
    """
    n = topology.node_count
    if not 0 <= base_station < n:
        raise ProtocolError(f"base station id {base_station} out of range")
    limit = max_rounds if max_rounds is not None else n + 1

    heard: Dict[int, Dict[TreeColor, Set[int]]] = {
        node_id: {TreeColor.RED: set(), TreeColor.BLUE: set()}
        for node_id in range(n)
    }
    roles: Dict[int, NodeRole] = {}
    hops: Dict[int, int] = {base_station: 0}

    # The base station announces itself as an aggregator of both colours.
    announcements: List[Tuple[int, TreeColor, int]] = [
        (base_station, TreeColor.RED, 0),
        (base_station, TreeColor.BLUE, 0),
    ]

    for _round in range(limit):
        if not announcements:
            break
        # Deliver this round's HELLOs to every neighbour.
        reached: Set[int] = set()
        for sender, color, _sender_hops in announcements:
            nbrs = topology.neighbors(sender)
            reached.update(nbrs)
            for nbr in nbrs:
                heard[nbr][color].add(sender)
        announcements = []
        # Nodes that now hear both colours (and are undecided) elect roles.
        for node_id in sorted(reached):
            if node_id == base_station or node_id in roles:
                continue
            heard_red = heard[node_id][TreeColor.RED]
            heard_blue = heard[node_id][TreeColor.BLUE]
            if not heard_red or not heard_blue:
                continue
            p_red, p_blue = role_probabilities(
                len(heard_red),
                len(heard_blue),
                mode=config.role_mode,
                budget=config.aggregator_budget,
            )
            draw = float(rng.random())
            if draw < p_red:
                color: Optional[TreeColor] = TreeColor.RED
            elif draw < p_red + p_blue:
                color = TreeColor.BLUE
            else:
                color = None
            if color is None:
                roles[node_id] = NodeRole(color=None)
                continue
            heard_own = heard_red if color is TreeColor.RED else heard_blue
            parent = min(heard_own, key=lambda a: (hops.get(a, 0), a))
            node_hops = hops.get(parent, 0) + 1
            roles[node_id] = NodeRole(color=color, parent=parent, hops=node_hops)
            hops[node_id] = node_hops
            announcements.append((node_id, color, node_hops))

    return DisjointTrees(
        topology=topology,
        base_station=base_station,
        roles=roles,
        heard={
            node_id: {
                color: frozenset(senders)
                for color, senders in by_color.items()
            }
            for node_id, by_color in heard.items()
        },
    )
