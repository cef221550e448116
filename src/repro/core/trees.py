"""Disjoint aggregation tree construction (Phase I, logical form).

Implements Section III-B as a synchronous-round process directly on the
topology: the base station announces itself as an aggregator of every
colour of a palette (red and blue, or the m > 2 colours of
:meth:`TreeColor.palette`); a node that has heard HELLOs from at least
one aggregator of *each* colour elects its role (:func:`elect_color`),
picks the shallowest same-colour aggregator it heard as parent, and —
if it became an aggregator — announces itself to its neighbours in the
next round.  Nodes that never hear every colour never join (data-loss
factor (a)).

This logical builder is loss-free and instantaneous; the event-driven
variant that rides the full radio stack lives in
:mod:`repro.protocols.ipda` and elects roles with the same function.
The logical form is what the paper's own coverage analysis (Section
IV-A.1) describes, and it powers Figures 8(a)/8(b) at scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Sized, Tuple

import numpy as np

from ..errors import ConfigurationError, ProtocolError
from ..net.topology import Topology
from ..sim.messages import TreeColor
from .config import IpdaConfig, RoleMode

__all__ = [
    "NodeRole",
    "DisjointTrees",
    "build_disjoint_trees",
    "elect_color",
    "role_probabilities",
]


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


def elect_color(
    heard: Mapping[TreeColor, Sized],
    *,
    mode: RoleMode,
    budget: int,
    rng: np.random.Generator,
) -> Optional[TreeColor]:
    """Draw a covered node's colour, or None when it stays a leaf.

    ``heard`` maps each palette colour, in palette order, to the
    aggregators of that colour the node heard; only their number
    counts.  FIXED and ADAPTIVE take one ``rng.random()`` against
    Equations 1–2's ``p_r``/``p_b`` and need a two-colour palette.
    UNIFORM takes one ``rng.integers(0, m)`` and always aggregates.
    """
    if mode is RoleMode.UNIFORM:
        colors = tuple(heard)
        return colors[int(rng.integers(0, len(colors)))]
    red, blue = heard
    p_red, p_blue = role_probabilities(
        len(heard[red]), len(heard[blue]), mode=mode, budget=budget
    )
    draw = float(rng.random())
    if draw < p_red:
        return red
    if draw < p_red + p_blue:
        return blue
    return None


@dataclass
class DisjointTrees:
    """Result of Phase I over a topology.

    The base station belongs to every tree (it is the root of each);
    every other node has exactly one role.  ``colors`` is the palette
    the trees were built over.
    """

    topology: Topology
    base_station: int
    roles: Dict[int, NodeRole] = field(default_factory=dict)
    #: HELLO senders each node heard, per colour (aggregator ids).
    heard: Dict[int, Dict[TreeColor, FrozenSet[int]]] = field(default_factory=dict)
    colors: Tuple[TreeColor, ...] = TreeColor.palette(2)

    # ------------------------------------------------------------------
    # Membership queries
    # ------------------------------------------------------------------
    def role_of(self, node_id: int) -> NodeRole:
        """Role of ``node_id`` (leaf-with-no-colour if it never decided)."""
        return self.roles.get(node_id, NodeRole(color=None))

    def aggregators(self, color: TreeColor) -> Set[int]:
        """All aggregators of one colour, **excluding** the base station."""
        if color not in self.colors:
            raise ProtocolError(f"{color!r} is not in the palette {self.colors}")
        return {
            node_id
            for node_id, role in self.roles.items()
            if role.color is color and node_id != self.base_station
        }

    def heard_aggregators(self, node_id: int, color: TreeColor) -> FrozenSet[int]:
        """Aggregators of ``color`` whose HELLO ``node_id`` heard.

        Includes the base station when it is in range (it announces as
        every colour).
        """
        if color not in self.colors:
            raise ProtocolError(f"{color!r} is not in the palette {self.colors}")
        by_color = self.heard.get(node_id)
        return frozenset() if by_color is None else by_color[color]

    # ------------------------------------------------------------------
    # Coverage / participation (Figure 8 metrics)
    # ------------------------------------------------------------------
    def is_covered(self, node_id: int) -> bool:
        """Heard at least one aggregator of every colour (factor (a))."""
        if node_id == self.base_station:
            return True
        by_color = self.heard.get(node_id)
        return by_color is not None and all(by_color.values())

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
        its own colour and ``l`` of each other.
        """
        if node_id == self.base_station:
            return True
        own_color = self.role_of(node_id).color
        return all(
            len(self.heard_aggregators(node_id, color) - {node_id})
            >= (slices - 1 if own_color is color else slices)
            for color in self.colors
        )

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
        """No node other than the base station is in two trees."""
        trees = [self.aggregators(color) for color in self.colors]
        return sum(map(len, trees)) == len(set().union(*trees))

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
        counts = {
            f"{color.value}_aggregators": len(self.aggregators(color))
            for color in self.colors
        }
        covered = len(self.covered_nodes())
        return {
            "nodes": n,
            **counts,
            "leaves": n - 1 - sum(counts.values()),
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
    colors: Tuple[TreeColor, ...] = TreeColor.palette(2),
) -> DisjointTrees:
    """Run the logical Phase I process over the palette ``colors``.

    Deterministic given ``rng`` state: nodes decide in ascending id
    order within each synchronous round.  Only nodes that heard a HELLO
    this round are examined: an undecided node whose heard sets did not
    grow would already have decided in an earlier round.
    """
    n = topology.node_count
    if not 0 <= base_station < n:
        raise ProtocolError(f"base station id {base_station} out of range")
    if config.role_mode is not RoleMode.UNIFORM and len(colors) != 2:
        mode = config.role_mode.value
        raise ConfigurationError(f"role mode {mode!r} needs two colours")
    limit = max_rounds if max_rounds is not None else n + 1

    heard: Dict[int, Dict[TreeColor, Set[int]]] = {
        node_id: {color: set() for color in colors} for node_id in range(n)
    }
    roles: Dict[int, NodeRole] = {}
    hops: Dict[int, int] = {base_station: 0}

    # The base station announces itself as an aggregator of every colour.
    announcements: List[Tuple[int, TreeColor]] = [
        (base_station, color) for color in colors
    ]

    for _round in range(limit):
        if not announcements:
            break
        # Deliver this round's HELLOs to every neighbour.
        reached: Set[int] = set()
        for sender, color in announcements:
            nbrs = topology.neighbors(sender)
            reached.update(nbrs)
            for nbr in nbrs:
                heard[nbr][color].add(sender)
        announcements = []
        # Nodes that now hear every colour (and are undecided) elect roles.
        for node_id in sorted(reached):
            if node_id == base_station or node_id in roles:
                continue
            by_color = heard[node_id]
            if not all(by_color.values()):
                continue
            color = elect_color(
                by_color,
                mode=config.role_mode,
                budget=config.aggregator_budget,
                rng=rng,
            )
            if color is None:
                roles[node_id] = NodeRole(color=None)
                continue
            heard_own = by_color[color]
            parent = min(heard_own, key=lambda a: (hops.get(a, 0), a))
            node_hops = hops.get(parent, 0) + 1
            roles[node_id] = NodeRole(color=color, parent=parent, hops=node_hops)
            hops[node_id] = node_hops
            announcements.append((node_id, color))

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
        colors=tuple(colors),
    )
