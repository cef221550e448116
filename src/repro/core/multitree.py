"""Generalised m-tree iPDA (the paper's m > 2 extension).

Section III-B notes the disjoint tree construction "can be easily
generalized to build multiple aggregation trees (m > 2)" at the price
of needing a denser network.  This module runs that generalisation on
the logical pipeline:

* Phase I with ``m`` colours — the one Phase-I builder over
  ``TreeColor.palette(m)`` with :attr:`RoleMode.UNIFORM`: a node decides
  once it has heard every colour and picks each with probability ``1/m``;
* Phase II with ``m`` independent cuts per reading — ``m*l - 1``
  transmissions per aggregator (the m = 2 case reduces to the paper's
  ``2l - 1``);
* Phase III with **majority verification** — with m ≥ 3 the base
  station does not merely detect pollution: the tree(s) disagreeing
  with the majority are identified and the majority value is *still
  accepted*, turning detection into tolerance.

The trade-offs (coverage needs density ~ m, overhead ~ (m*l+1)/2) are
quantified by :func:`multitree_isolation_probability` and the
``ablation-trees`` experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set

import numpy as np

from ..errors import AnalysisError, IntegrityError, ProtocolError
from ..net.topology import Topology
from ..sim.messages import TreeColor
from .config import IpdaConfig, RoleMode
from .slicing import SliceAssembler, slice_value
from .trees import DisjointTrees, build_disjoint_trees

__all__ = [
    "build_multi_trees",
    "MultiTreeVerification",
    "run_multitree_round",
    "multitree_isolation_probability",
    "multitree_messages_per_node",
]


def build_multi_trees(
    topology: Topology,
    tree_count: int,
    rng: np.random.Generator,
    *,
    base_station: int = 0,
    max_rounds: Optional[int] = None,
) -> DisjointTrees:
    """Run the logical Phase-I process with ``tree_count`` colours.

    The base station announces itself as an aggregator of every colour;
    a node decides once it has heard all colours, choosing each with
    probability ``1/m`` (the Equation-2 regime generalised).
    """
    if not 2 <= tree_count <= len(TreeColor):
        raise ProtocolError(f"need 2..{len(TreeColor)} trees, got {tree_count}")
    return build_disjoint_trees(
        topology,
        IpdaConfig(role_mode=RoleMode.UNIFORM),
        rng,
        base_station=base_station,
        max_rounds=max_rounds,
        colors=TreeColor.palette(tree_count),
    )


@dataclass
class MultiTreeVerification:
    """Majority verification over m tree sums.

    Trees whose sum sits within ``threshold`` of the majority cluster's
    value form the majority; the rest are flagged as polluted.  With
    m = 2 this degenerates to the paper's accept/reject rule (an empty
    ``polluted_trees`` means accepted, and no identification is
    possible on disagreement).
    """

    sums: List[int]
    threshold: int

    def __post_init__(self) -> None:
        if self.threshold < 0:
            raise ProtocolError("threshold must be >= 0")
        if len(self.sums) < 2:
            raise ProtocolError("need at least two tree sums")

    def _clusters(self) -> List[List[int]]:
        """Group tree indices whose sums agree pairwise within Th."""
        indices = sorted(range(len(self.sums)), key=lambda i: self.sums[i])
        clusters: List[List[int]] = []
        for index in indices:
            placed = False
            for cluster in clusters:
                if all(
                    abs(self.sums[index] - self.sums[j]) <= self.threshold
                    for j in cluster
                ):
                    cluster.append(index)
                    placed = True
                    break
            if not placed:
                clusters.append([index])
        return clusters

    @property
    def majority_trees(self) -> List[int]:
        """Indices of the largest agreeing cluster (ties -> no majority)."""
        clusters = sorted(self._clusters(), key=len, reverse=True)
        if len(clusters) > 1 and len(clusters[0]) == len(clusters[1]):
            return []
        return sorted(clusters[0])

    @property
    def polluted_trees(self) -> List[int]:
        """Trees outside the majority cluster."""
        majority = set(self.majority_trees)
        if not majority:
            return sorted(range(len(self.sums)))
        return sorted(set(range(len(self.sums))) - majority)

    @property
    def accepted(self) -> bool:
        """A strict majority of trees agrees."""
        return len(self.majority_trees) > len(self.sums) / 2

    @property
    def accepted_value(self) -> int:
        """Midpoint of the majority cluster's sums."""
        majority = self.majority_trees
        if not self.accepted:
            raise IntegrityError(
                f"no majority among tree sums {self.sums} (Th="
                f"{self.threshold})"
            )
        values = sorted(self.sums[i] for i in majority)
        return (values[0] + values[-1]) // 2


@dataclass
class MultiTreeRound:
    """Outcome of one lossless m-tree round."""

    trees: DisjointTrees
    sums: List[int]
    verification: MultiTreeVerification
    participants: Set[int]
    true_total: int
    participant_total: int
    slice_transmissions: int

    @property
    def reported(self) -> Optional[int]:
        """Majority value, or None when no majority exists."""
        if not self.verification.accepted:
            return None
        return self.verification.accepted_value


def run_multitree_round(
    topology: Topology,
    readings: Mapping[int, int],
    tree_count: int,
    *,
    slices: int = 2,
    threshold: int = 5,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
    base_station: int = 0,
    polluters: Optional[Mapping[int, int]] = None,
    trees: Optional[DisjointTrees] = None,
    magnitude: Optional[int] = None,
) -> MultiTreeRound:
    """One lossless aggregation round over ``tree_count`` disjoint trees.

    ``sums`` and the verdict's tree indices follow the palette order of
    ``trees.colors``.  A participant cuts, then chooses, colour by
    colour.
    """
    if slices < 1:
        raise ProtocolError("slices must be >= 1")
    if base_station in readings:
        raise ProtocolError("the base station does not produce a reading")
    generator = rng if rng is not None else np.random.default_rng(seed)
    if trees is None:
        trees = build_multi_trees(
            topology, tree_count, generator, base_station=base_station
        )
    colors = trees.colors
    if len(colors) != tree_count:
        raise ProtocolError("trees were built with a different tree count")
    window = IpdaConfig(slice_magnitude=magnitude).effective_magnitude(
        readings.values()
    )

    assemblers: Dict[int, Dict[TreeColor, SliceAssembler]] = {
        base_station: {color: SliceAssembler(base_station) for color in colors}
    }
    for color in colors:
        for aggregator in trees.aggregators(color):
            assemblers[aggregator] = {color: SliceAssembler(aggregator)}

    participants: Set[int] = set()
    transmissions = 0
    for node_id in sorted(readings):
        if not trees.can_participate(node_id, slices):
            continue
        participants.add(node_id)
        own_color = trees.role_of(node_id).color
        for color in colors:
            options = sorted(trees.heard_aggregators(node_id, color) - {node_id})
            cut = slice_value(
                int(readings[node_id]), slices, generator, magnitude=window
            )
            if own_color is color:
                assemblers[node_id][color].keep(cut[0])
                remote_pieces = cut[1:]
            else:
                remote_pieces = cut
            picked = generator.choice(
                len(options), size=len(remote_pieces), replace=False
            )
            for piece, index in zip(remote_pieces, sorted(picked)):
                assemblers[options[int(index)]][color].receive(node_id, piece)
                transmissions += 1

    pollution = dict(polluters) if polluters else {}
    sums: List[int] = []
    for color in colors:
        total = assemblers[base_station][color].assembled_value()
        for aggregator in trees.aggregators(color):
            total += assemblers[aggregator][color].assembled_value()
        for polluter, offset in pollution.items():
            if trees.role_of(polluter).color is color:
                total += int(offset)
        sums.append(total)

    verification = MultiTreeVerification(sums=sums, threshold=threshold)
    return MultiTreeRound(
        trees=trees,
        sums=sums,
        verification=verification,
        participants=participants,
        true_total=sum(int(v) for v in readings.values()),
        participant_total=sum(int(readings[i]) for i in participants),
        slice_transmissions=transmissions,
    )


def multitree_isolation_probability(degree: int, tree_count: int) -> float:
    """P(a degree-d node misses at least one of the m colours).

    Generalises Equation 9 with uniform colour probability ``1/m``:
    ``1 - Π_c (1 - (1 - 1/m)^d)`` = ``1 - (1 - (1-1/m)^d)^m``.
    """
    if tree_count < 2:
        raise AnalysisError("tree_count must be >= 2")
    if degree < 0:
        raise AnalysisError("degree must be >= 0")
    miss_one = (1.0 - 1.0 / tree_count) ** degree
    return 1.0 - (1.0 - miss_one) ** tree_count


def multitree_messages_per_node(tree_count: int, slices: int) -> int:
    """HELLO + (m*l - 1) slices + result = m*l + 1 messages.

    Reduces to the paper's ``2l + 1`` at m = 2.
    """
    if tree_count < 2 or slices < 1:
        raise AnalysisError("need m >= 2 and l >= 1")
    return tree_count * slices + 1
