"""High-level iPDA orchestration.

Two entry points:

* :func:`run_lossless_round` — the whole iPDA pipeline (tree
  construction, slicing, assembling, dual-tree aggregation, integrity
  check) executed *logically* on a topology, with no radio and no
  losses.  This is the reference implementation the property tests pin
  against (Equations 3–6 hold exactly) and what the large-N experiments
  use where the paper's own analysis abstracts the channel away.

* :func:`aggregate_statistic` — runs any
  :class:`~repro.protocols.aggregates.AdditiveStatistic` (AVERAGE,
  VARIANCE, ...) on top of any protocol by running one aggregation
  round per additive component and decoding the totals, exactly the
  reduction Section II-B describes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from ..errors import ProtocolError
from ..net.topology import Topology
from ..sim.messages import TreeColor
from ..sim.rng import RngStreams
from .config import IpdaConfig
from .integrity import verify_round
from .slicing import SliceAssembler, plan_round
from .trees import DisjointTrees, build_disjoint_trees

__all__ = [
    "run_lossless_round",
    "aggregate_statistic",
    "LosslessRound",
    "NodeFlows",
]


@dataclass
class NodeFlows:
    """The slice traffic of one node in one round (for attack analysis).

    ``outgoing`` maps each colour to the list of ``(target, piece)``
    transmissions of that cut; ``kept`` is the locally retained piece
    (None for leaf nodes); ``incoming`` lists ``(sender, piece)`` slices
    this node received as an aggregator.
    """

    node_id: int
    reading: int
    outgoing: Dict[TreeColor, List[Tuple[int, int]]] = field(
        default_factory=dict
    )
    kept: Optional[int] = None
    incoming: List[Tuple[int, int]] = field(default_factory=list)

    def kept_cut_color(self) -> Optional[TreeColor]:
        """Which cut retained a local piece (None for leaf senders).

        The self-including cut transmits one piece fewer than the other,
        so it is identifiable by length.
        """
        if self.kept is None:
            return None
        red = len(self.outgoing.get(TreeColor.RED, []))
        blue = len(self.outgoing.get(TreeColor.BLUE, []))
        if red < blue:
            return TreeColor.RED
        if blue < red:
            return TreeColor.BLUE
        return None

    def cut_is_complete(self, color: TreeColor) -> bool:
        """True when every piece of the ``color`` cut went on the air."""
        return self.kept_cut_color() is not color or self.kept is None


class LosslessRound:
    """Result of a logical (no-radio) iPDA round.

    Mirrors the fields of :class:`repro.protocols.ipda.IpdaOutcome`
    that matter analytically, plus the constructed trees.
    """

    def __init__(
        self,
        *,
        trees: DisjointTrees,
        s_red: int,
        s_blue: int,
        verification,
        participants: Set[int],
        true_total: int,
        participant_total: int,
        slice_transmissions: int,
        flows: Optional[Dict[int, "NodeFlows"]] = None,
    ):
        self.trees = trees
        self.s_red = s_red
        self.s_blue = s_blue
        self.verification = verification
        self.participants = participants
        self.true_total = true_total
        self.participant_total = participant_total
        self.slice_transmissions = slice_transmissions
        self.flows = flows

    @property
    def accepted(self) -> bool:
        """Did the base station accept the round?"""
        return self.verification.accepted

    @property
    def outcome(self) -> str:
        """``"accepted"``, ``"degraded"``, or ``"rejected"``."""
        return self.verification.outcome

    @property
    def reported(self) -> Optional[int]:
        """The reported value (full or degraded), or None on rejection."""
        return self.verification.report_value

    @property
    def accuracy(self) -> float:
        """Collected / real ratio over *all* sensors."""
        if self.reported is None or self.true_total == 0:
            return 0.0
        return self.reported / self.true_total


def run_lossless_round(
    topology: Topology,
    readings: Mapping[int, int],
    config: Optional[IpdaConfig] = None,
    *,
    rng: Optional[np.random.Generator] = None,
    seed: int = 0,
    base_station: int = 0,
    contributors: Optional[Set[int]] = None,
    polluters: Optional[Mapping[int, int]] = None,
    key_scheme=None,
    trees: Optional[DisjointTrees] = None,
    record_flows: bool = False,
    crashed: Optional[Set[int]] = None,
) -> LosslessRound:
    """Run one logical iPDA round with perfect transport.

    ``key_scheme`` (a :class:`~repro.crypto.keys.KeyManagementScheme`)
    restricts slice targets to aggregators the sender shares a key with;
    None means no restriction (pairwise keys always exist).
    ``trees`` reuses a previously built Phase-I result.
    ``record_flows`` retains every slice transmission in
    :attr:`LosslessRound.flows` for the attack modules.
    ``crashed`` marks fail-stopped nodes: they neither contribute a
    reading nor — when they were elected aggregators — deliver their
    assembled tree share, so every slice piece scattered to them is
    lost.  With ``config.robustness.degradation`` enabled the integrity
    check then runs with per-tree piece coverage, letting the base
    station degrade gracefully instead of rejecting.
    """
    cfg = config if config is not None else IpdaConfig()
    generator = rng if rng is not None else RngStreams(seed).get("lossless")
    if base_station in readings:
        raise ProtocolError("the base station does not produce a reading")

    if trees is None:
        trees = build_disjoint_trees(
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
    flows: Optional[Dict[int, NodeFlows]] = {} if record_flows else None
    requests = []
    for node_id in sorted(readings):
        if contributors is not None and node_id not in contributors:
            continue
        if node_id in dead:
            continue  # fail-stopped before it could slice
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
    # One generator call draws the whole round's Phase II, in node order.
    round_plans = plan_round(
        requests, pieces=cfg.slices, magnitude=magnitude, rng=generator
    )
    for request, plans in zip(requests, round_plans):
        node_id = request[0]
        if plans is None:
            continue  # factor (b): not enough aggregators in range
        participants.add(node_id)
        node_flow = (
            NodeFlows(node_id=node_id, reading=int(readings[node_id]))
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
                        target_flow = NodeFlows(
                            node_id=target,
                            reading=int(readings.get(target, 0)),
                        )
                        flows[target] = target_flow
                    target_flow.incoming.append((node_id, piece))
        if flows is not None:
            assert node_flow is not None
            existing = flows.get(node_id)
            if existing is not None:
                # Preserve incoming slices recorded before this node
                # took its turn as a sender.
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
                continue  # its assembled share (and pieces) died with it
            total += assemblers[aggregator][color].assembled_value()
            count += assemblers[aggregator][color].piece_count
        # Any aggregator's additive tampering lands in its own tree's sum.
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


def aggregate_statistic(
    protocol,
    topology: Topology,
    readings: Mapping[int, int],
    statistic,
    *,
    streams: RngStreams,
    base_round_id: int = 0,
):
    """Compute an :class:`AdditiveStatistic` via repeated additive rounds.

    Every component runs under the *same* ``round_id``, so all
    components ride identical Phase-I trees and participant sets — the
    paper's sensors contribute their ``(r², r, 1)`` inputs within one
    aggregation round, and ratios such as AVERAGE stay consistent only
    when numerator and denominator cover the same sensors.

    Returns ``(value, outcomes)`` where ``value`` is the decoded
    statistic (None if any component round was rejected or lost) and
    ``outcomes`` the per-component round outcomes.
    """
    encoded = {
        node_id: statistic.encode(int(reading))
        for node_id, reading in readings.items()
    }
    totals = []
    outcomes = []
    for component in range(statistic.component_count):
        component_readings = {
            node_id: parts[component] for node_id, parts in encoded.items()
        }
        outcome = protocol.run_round(
            topology,
            component_readings,
            streams=streams,
            round_id=base_round_id,
        )
        outcomes.append(outcome)
        totals.append(outcome.reported)
    if any(total is None for total in totals):
        return None, outcomes
    return statistic.decode(totals), outcomes
