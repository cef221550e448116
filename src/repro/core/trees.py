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


def _two_color_pick(draw: float, p_red: float, p_blue: float) -> Optional[int]:
    """Palette index a draw on [0, 1) picks under ``p_r``/``p_b`` (None: leaf)."""
    if draw < p_red:
        return 0
    if draw < p_red + p_blue:
        return 1
    return None


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
    pick = _two_color_pick(float(rng.random()), p_red, p_blue)
    return None if pick is None else (red, blue)[pick]


#: The role of every node that decided to stay a leaf.
_LEAF = NodeRole(color=None)


@dataclass
class DisjointTrees:
    """Result of Phase I over a topology.

    The base station belongs to every tree (it is the root of each);
    every other node has exactly one role.  ``colors`` is the palette
    the trees were built over.

    What each node heard is not stored: a HELLO reaches every neighbour
    of its sender, so the senders of ``color`` that node ``v`` heard
    are ``N(v) ∩ delivered[color]``.  :attr:`heard`,
    :meth:`heard_aggregators` and the coverage queries derive it.
    """

    topology: Topology
    base_station: int
    roles: Dict[int, NodeRole] = field(default_factory=dict)
    colors: Tuple[TreeColor, ...] = TreeColor.palette(2)
    #: Per palette colour, the announcers whose HELLO of that colour
    #: was delivered: that colour's aggregators and the base station,
    #: less any whose HELLO a ``max_rounds`` cut-off left unsent.
    delivered: Dict[TreeColor, FrozenSet[int]] = field(default_factory=dict)
    _members: Dict[TreeColor, FrozenSet[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _check_color(self, color: TreeColor) -> None:
        if color not in self.colors:
            raise ProtocolError(f"{color!r} is not in the palette {self.colors}")

    # ------------------------------------------------------------------
    # Membership queries
    # ------------------------------------------------------------------
    def role_of(self, node_id: int) -> NodeRole:
        """Role of ``node_id`` (leaf-with-no-colour if it never decided)."""
        return self.roles.get(node_id, _LEAF)

    def aggregators(self, color: TreeColor) -> FrozenSet[int]:
        """All aggregators of one colour, **excluding** the base station."""
        members = self._members.get(color)
        if members is None:
            self._check_color(color)
            members = self._members[color] = frozenset(
                node_id
                for node_id, role in self.roles.items()
                if role.color is color and node_id != self.base_station
            )
        return members

    def heard_aggregators(self, node_id: int, color: TreeColor) -> FrozenSet[int]:
        """Aggregators of ``color`` whose HELLO ``node_id`` heard.

        Includes the base station when it is in range (it announces as
        every colour).
        """
        self._check_color(color)
        if not 0 <= node_id < self.topology.node_count:
            return frozenset()
        senders = self.delivered.get(color, frozenset())
        return senders & self.topology.neighbors(node_id)

    @property
    def heard(self) -> Dict[int, Dict[TreeColor, FrozenSet[int]]]:
        """HELLO senders each node heard, per colour (built on each read)."""
        return {
            node_id: {
                color: self.heard_aggregators(node_id, color)
                for color in self.colors
            }
            for node_id in range(self.topology.node_count)
        }

    # ------------------------------------------------------------------
    # Coverage / participation (Figure 8 metrics)
    # ------------------------------------------------------------------
    def is_covered(self, node_id: int) -> bool:
        """Heard at least one aggregator of every colour (factor (a))."""
        if node_id == self.base_station:
            return True
        return all(
            self.heard_aggregators(node_id, color) for color in self.colors
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
        its own colour and ``l`` of each other.
        """
        if node_id == self.base_station:
            return True
        own_color = self.role_of(node_id).color
        return all(
            len(self.heard_aggregators(node_id, color))
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
    order within each synchronous round.  A node decides in the round
    whose HELLOs complete its colours, and its choice depends only on
    HELLOs delivered before it, so each round's deciding nodes take
    their role draws in one call: ``rng.random(k)`` for FIXED and
    ADAPTIVE, ``rng.integers([0] * k, [m] * k)`` for UNIFORM, which
    leave the values and the generator state of ``k`` scalar
    :func:`elect_color` draws.
    """
    n = topology.node_count
    if not 0 <= base_station < n:
        raise ProtocolError(f"base station id {base_station} out of range")
    mode = config.role_mode
    if mode is not RoleMode.UNIFORM and len(colors) != 2:
        raise ConfigurationError(f"role mode {mode.value!r} needs two colours")
    limit = max_rounds if max_rounds is not None else n + 1
    budget = config.aggregator_budget
    m = len(colors)

    # Per colour and node: HELLOs heard, and the shallowest (hops, id)
    # sender among them, the parent the node takes if it joins.
    heard_counts = [[0] * n for _ in colors]
    best: List[List[Tuple[int, int]]] = [[(0, 0)] * n for _ in colors]
    unheard = [m] * n  # colours a node has not heard yet
    hops = [0] * n
    roles: Dict[int, NodeRole] = {}
    delivered: List[List[int]] = [[] for _ in colors]

    # The base station announces itself as an aggregator of every colour.
    wave: List[Tuple[int, int]] = [(base_station, index) for index in range(m)]
    for _round in range(limit):
        if not wave:
            break
        # Deliver this round's HELLOs to every neighbour; a node whose
        # last missing colour arrives decides this round.
        deciding: List[int] = []
        for sender, index in wave:
            key = (hops[sender], sender)
            counts = heard_counts[index]
            shallowest = best[index]
            for nbr in topology.neighbors(sender):
                if counts[nbr]:
                    if key < shallowest[nbr]:
                        shallowest[nbr] = key
                else:
                    shallowest[nbr] = key
                    unheard[nbr] -= 1
                    if not unheard[nbr] and nbr != base_station:
                        deciding.append(nbr)
                counts[nbr] += 1
            delivered[index].append(sender)
        wave = []
        if not deciding:
            continue
        deciding.sort()
        k = len(deciding)
        if mode is RoleMode.UNIFORM:
            picks = rng.integers([0] * k, [m] * k).tolist()
        else:
            red, blue = heard_counts
            picks = [
                _two_color_pick(
                    draw,
                    *role_probabilities(
                        red[node_id], blue[node_id], mode=mode, budget=budget
                    ),
                )
                for node_id, draw in zip(deciding, rng.random(k).tolist())
            ]
        for node_id, index in zip(deciding, picks):
            if index is None:
                roles[node_id] = _LEAF
                continue
            parent_hops, parent = best[index][node_id]
            hops[node_id] = parent_hops + 1
            roles[node_id] = NodeRole(
                color=colors[index], parent=parent, hops=parent_hops + 1
            )
            wave.append((node_id, index))

    return DisjointTrees(
        topology=topology,
        base_station=base_station,
        roles=roles,
        colors=tuple(colors),
        delivered={
            color: frozenset(senders)
            for color, senders in zip(colors, delivered)
        },
    )
