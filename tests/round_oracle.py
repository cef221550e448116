"""The heard-storing Phase I and the per-aggregator round, kept as an oracle.

Before the logical round derived what each node heard, Phase I stored
every node's heard HELLO senders per colour and drew one role per
deciding node; Phase II asked the key scheme about every heard
aggregator of every sensor, planned every sensor (those that sat out
raised and were caught), and Phase III summed one
:class:`~repro.core.slicing.SliceAssembler` per aggregator.
:func:`legacy_build_disjoint_trees` and :func:`legacy_run_lossless_round`
are those two functions, with :class:`LegacyTrees` and
:class:`LegacyNodeFlows` as the shapes they returned, so a test can run
both rounds on one input and compare everything they report.  The
round plans through :func:`tests.slicing_oracle.legacy_plan_round`,
the choice-based planner, so no part of the production planner is
shared with the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.core.config import IpdaConfig, RoleMode
from repro.core.integrity import verify_round
from repro.core.pipeline import LosslessRound
from repro.core.slicing import SliceAssembler
from repro.core.trees import NodeRole, role_probabilities
from repro.errors import ProtocolError
from repro.net.topology import Topology
from repro.sim.messages import TreeColor
from tests.slicing_oracle import legacy_plan_round


def _reference_color(heard, config, rng) -> Optional[TreeColor]:
    """One scalar role draw, as the per-node builder took it."""
    colors = list(heard)
    if config.role_mode is RoleMode.UNIFORM:
        return colors[int(rng.integers(0, len(colors)))]
    red, blue = colors
    p_red, p_blue = role_probabilities(
        len(heard[red]),
        len(heard[blue]),
        mode=config.role_mode,
        budget=config.aggregator_budget,
    )
    draw = float(rng.random())
    if draw < p_red:
        return red
    if draw < p_red + p_blue:
        return blue
    return None


@dataclass
class LegacyTrees:
    """Phase I's result with every node's heard senders stored."""

    topology: Topology
    base_station: int
    roles: Dict[int, NodeRole] = field(default_factory=dict)
    heard: Dict[int, Dict[TreeColor, FrozenSet[int]]] = field(default_factory=dict)
    colors: Tuple[TreeColor, ...] = TreeColor.palette(2)

    def role_of(self, node_id: int) -> NodeRole:
        return self.roles.get(node_id, NodeRole(color=None))

    def aggregators(self, color: TreeColor) -> Set[int]:
        if color not in self.colors:
            raise ProtocolError(f"{color!r} is not in the palette {self.colors}")
        return {
            node_id
            for node_id, role in self.roles.items()
            if role.color is color and node_id != self.base_station
        }

    def heard_aggregators(self, node_id: int, color: TreeColor) -> FrozenSet[int]:
        if color not in self.colors:
            raise ProtocolError(f"{color!r} is not in the palette {self.colors}")
        by_color = self.heard.get(node_id)
        return frozenset() if by_color is None else by_color[color]

    def is_covered(self, node_id: int) -> bool:
        if node_id == self.base_station:
            return True
        by_color = self.heard.get(node_id)
        return by_color is not None and all(by_color.values())

    def covered_nodes(self) -> Set[int]:
        return {
            node_id
            for node_id in range(self.topology.node_count)
            if self.is_covered(node_id)
        }

    def can_participate(self, node_id: int, slices: int) -> bool:
        if node_id == self.base_station:
            return True
        own_color = self.role_of(node_id).color
        return all(
            len(self.heard_aggregators(node_id, color) - {node_id})
            >= (slices - 1 if own_color is color else slices)
            for color in self.colors
        )

    def participants(self, slices: int) -> Set[int]:
        return {
            node_id
            for node_id in range(self.topology.node_count)
            if node_id != self.base_station
            and self.can_participate(node_id, slices)
        }

    def summary(self) -> Dict[str, object]:
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


def legacy_build_disjoint_trees(
    topology: Topology,
    config: IpdaConfig,
    rng: np.random.Generator,
    *,
    base_station: int = 0,
    max_rounds: Optional[int] = None,
    colors: Tuple[TreeColor, ...] = TreeColor.palette(2),
) -> LegacyTrees:
    """Phase I with stored heard sets and one scalar draw per decision."""
    n = topology.node_count
    limit = max_rounds if max_rounds is not None else n + 1
    heard: Dict[int, Dict[TreeColor, Set[int]]] = {
        node_id: {color: set() for color in colors} for node_id in range(n)
    }
    roles: Dict[int, NodeRole] = {}
    hops: Dict[int, int] = {base_station: 0}
    announcements: List[Tuple[int, TreeColor]] = [
        (base_station, color) for color in colors
    ]
    for _round in range(limit):
        if not announcements:
            break
        reached: Set[int] = set()
        for sender, color in announcements:
            nbrs = topology.neighbors(sender)
            reached.update(nbrs)
            for nbr in nbrs:
                heard[nbr][color].add(sender)
        announcements = []
        for node_id in sorted(reached):
            if node_id == base_station or node_id in roles:
                continue
            by_color = heard[node_id]
            if not all(by_color.values()):
                continue
            color = _reference_color(by_color, config, rng)
            if color is None:
                roles[node_id] = NodeRole(color=None)
                continue
            heard_own = by_color[color]
            parent = min(heard_own, key=lambda a: (hops.get(a, 0), a))
            node_hops = hops.get(parent, 0) + 1
            roles[node_id] = NodeRole(color=color, parent=parent, hops=node_hops)
            hops[node_id] = node_hops
            announcements.append((node_id, color))
    return LegacyTrees(
        topology=topology,
        base_station=base_station,
        roles=roles,
        heard={
            node_id: {
                color: frozenset(senders) for color, senders in by_color.items()
            }
            for node_id, by_color in heard.items()
        },
        colors=tuple(colors),
    )


@dataclass
class LegacyNodeFlows:
    """One node's slice traffic; the kept cut is told apart by length."""

    node_id: int
    reading: int
    outgoing: Dict[TreeColor, List[Tuple[int, int]]] = field(
        default_factory=dict
    )
    kept: Optional[int] = None
    incoming: List[Tuple[int, int]] = field(default_factory=list)

    def kept_cut_color(self) -> Optional[TreeColor]:
        if self.kept is None:
            return None
        red = len(self.outgoing.get(TreeColor.RED, []))
        blue = len(self.outgoing.get(TreeColor.BLUE, []))
        if red < blue:
            return TreeColor.RED
        if blue < red:
            return TreeColor.BLUE
        return None


def legacy_run_lossless_round(
    topology: Topology,
    readings: Mapping[int, int],
    config: IpdaConfig,
    *,
    rng: np.random.Generator,
    base_station: int = 0,
    contributors: Optional[Set[int]] = None,
    polluters: Optional[Mapping[int, int]] = None,
    key_scheme=None,
    trees: Optional[LegacyTrees] = None,
    record_flows: bool = False,
    crashed: Optional[Set[int]] = None,
) -> LosslessRound:
    """The logical round with one assembler per aggregator."""
    cfg = config
    generator = rng
    if base_station in readings:
        raise ProtocolError("the base station does not produce a reading")
    if trees is None:
        trees = legacy_build_disjoint_trees(
            topology, cfg, generator, base_station=base_station
        )
    magnitude = cfg.effective_magnitude(readings.values())

    assemblers: Dict[int, Dict[TreeColor, SliceAssembler]] = {
        base_station: {
            TreeColor.RED: SliceAssembler(base_station),
            TreeColor.BLUE: SliceAssembler(base_station),
        }
    }
    for color in (TreeColor.RED, TreeColor.BLUE):
        for aggregator in trees.aggregators(color):
            assemblers[aggregator] = {color: SliceAssembler(aggregator)}

    dead: Set[int] = set(crashed) if crashed else set()
    participants: Set[int] = set()
    slice_transmissions = 0
    flows: Optional[Dict[int, LegacyNodeFlows]] = {} if record_flows else None
    requests = []
    for node_id in sorted(readings):
        if contributors is not None and node_id not in contributors:
            continue
        if node_id in dead:
            continue
        heard = trees.heard.get(node_id, {})
        candidates = {
            color: [
                a
                for a in heard.get(color, ())
                if a != node_id
                and (
                    key_scheme is None
                    or key_scheme.can_communicate(node_id, a)
                )
            ]
            for color in (TreeColor.RED, TreeColor.BLUE)
        }
        requests.append(
            (
                node_id,
                int(readings[node_id]),
                trees.role_of(node_id).color,
                candidates,
            )
        )
    round_plans = legacy_plan_round(
        requests, pieces=cfg.slices, magnitude=magnitude, rng=generator
    )
    for request, plans in zip(requests, round_plans):
        node_id = request[0]
        if plans is None:
            continue
        participants.add(node_id)
        node_flow = (
            LegacyNodeFlows(node_id=node_id, reading=int(readings[node_id]))
            if flows is not None
            else None
        )
        for color, plan in plans.items():
            if plan.kept is not None:
                assemblers[node_id][color].keep(plan.kept)
                if node_flow is not None:
                    node_flow.kept = plan.kept
            for target, piece in plan.outgoing:
                assemblers[target][color].receive(node_id, piece)
                slice_transmissions += 1
                if flows is not None:
                    assert node_flow is not None
                    node_flow.outgoing.setdefault(color, []).append(
                        (target, piece)
                    )
                    target_flow = flows.get(target)
                    if target_flow is None:
                        target_flow = LegacyNodeFlows(
                            node_id=target,
                            reading=int(readings.get(target, 0)),
                        )
                        flows[target] = target_flow
                    target_flow.incoming.append((node_id, piece))
        if flows is not None:
            assert node_flow is not None
            existing = flows.get(node_id)
            if existing is not None:
                node_flow.incoming.extend(existing.incoming)
            flows[node_id] = node_flow

    totals: Dict[TreeColor, int] = {}
    pieces: Dict[TreeColor, int] = {}
    pollution = dict(polluters) if polluters else {}
    for color in (TreeColor.RED, TreeColor.BLUE):
        total = assemblers[base_station][color].assembled_value()
        count = assemblers[base_station][color].piece_count
        for aggregator in trees.aggregators(color):
            if aggregator in dead:
                continue
            total += assemblers[aggregator][color].assembled_value()
            count += assemblers[aggregator][color].piece_count
        for polluter, offset in pollution.items():
            if polluter in dead:
                continue
            if trees.role_of(polluter).color is color:
                total += int(offset)
        totals[color] = total
        pieces[color] = count

    verification = verify_round(
        cfg,
        magnitude,
        totals[TreeColor.RED],
        totals[TreeColor.BLUE],
        pieces[TreeColor.RED],
        pieces[TreeColor.BLUE],
        len(participants),
    )
    return LosslessRound(
        trees=trees,
        s_red=totals[TreeColor.RED],
        s_blue=totals[TreeColor.BLUE],
        verification=verification,
        participants=participants,
        true_total=sum(int(v) for v in readings.values()),
        participant_total=sum(int(readings[i]) for i in participants),
        slice_transmissions=slice_transmissions,
        flows=flows,
    )
