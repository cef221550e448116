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
from .slicing import SlicePlan, plan_round
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
    (None for leaf nodes) and ``kept_color`` the colour of the cut it
    belongs to; ``incoming`` lists ``(sender, piece)`` slices this node
    received as an aggregator.
    """

    node_id: int
    reading: int
    outgoing: Dict[TreeColor, List[Tuple[int, int]]] = field(
        default_factory=dict
    )
    kept: Optional[int] = None
    incoming: List[Tuple[int, int]] = field(default_factory=list)
    kept_color: Optional[TreeColor] = None

    def kept_cut_color(self) -> Optional[TreeColor]:
        """Which cut retained a local piece (None for leaf senders)."""
        return self.kept_color

    def cut_is_complete(self, color: TreeColor) -> bool:
        """True when every piece of the ``color`` cut went on the air."""
        return self.kept_color is not color


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
    pieces = cfg.slices
    red, blue = TreeColor.RED, TreeColor.BLUE

    # What a sensor heard of a colour is its neighbours among that
    # colour's delivered announcers; its candidates are the ones it
    # shares a key with.
    graph = trees.topology
    sharing = (
        key_scheme.key_sharing_neighbors(graph)
        if key_scheme is not None
        else None
    )
    red_senders = trees.delivered.get(red, frozenset())
    blue_senders = trees.delivered.get(blue, frozenset())
    dead: Set[int] = set(crashed) if crashed else set()
    requests = []
    for node_id in sorted(readings):
        if contributors is not None and node_id not in contributors:
            continue
        if node_id in dead:
            continue  # fail-stopped before it could slice
        if not 0 <= node_id < graph.node_count:
            continue  # not deployed: heard nothing
        own_color = trees.role_of(node_id).color
        nbrs = graph.neighbors(node_id) if sharing is None else sharing[node_id]
        red_candidates = red_senders & nbrs
        if len(red_candidates) < (pieces - 1 if own_color is red else pieces):
            continue  # short of red: sits out before its first draw
        requests.append(
            (
                node_id,
                int(readings[node_id]),
                own_color,
                {red: red_candidates, blue: blue_senders & nbrs},
            )
        )
    # One generator call draws the whole round's Phase II, in node order.
    round_plans = plan_round(
        requests, pieces=pieces, magnitude=magnitude, rng=generator
    )

    # A crashed aggregator's assembled share, and every piece in it,
    # dies with it; the base station always reports.
    lost = dead - {base_station}
    totals = {red: 0, blue: 0}
    pieces_in = {red: 0, blue: 0}
    participants: Set[int] = set()
    slice_transmissions = 0
    flows: Optional[Dict[int, NodeFlows]] = {} if record_flows else None
    for request, plans in zip(requests, round_plans):
        if plans is None:
            continue  # factor (b): not enough aggregators in range
        node_id = request[0]
        participants.add(node_id)
        for color, plan in plans.items():
            if plan.kept is not None:
                totals[color] += plan.kept
                pieces_in[color] += 1
            for target, piece in plan.outgoing:
                if target not in lost:
                    totals[color] += piece
                    pieces_in[color] += 1
            slice_transmissions += len(plan.outgoing)
        if flows is not None:
            _record_flows(flows, node_id, readings, plans)

    # Any aggregator's additive tampering lands in its own tree's sum.
    for polluter, offset in (polluters or {}).items():
        color = trees.role_of(polluter).color
        if polluter not in dead and color in totals:
            totals[color] += int(offset)

    verification = verify_round(
        cfg,
        magnitude,
        totals[red],
        totals[blue],
        pieces_in[red],
        pieces_in[blue],
        len(participants),
    )
    return LosslessRound(
        trees=trees,
        s_red=totals[red],
        s_blue=totals[blue],
        verification=verification,
        participants=participants,
        true_total=sum(int(v) for v in readings.values()),
        participant_total=sum(int(readings[i]) for i in participants),
        slice_transmissions=slice_transmissions,
        flows=flows,
    )


def _record_flows(
    flows: Dict[int, NodeFlows],
    node_id: int,
    readings: Mapping[int, int],
    plans: Mapping[TreeColor, SlicePlan],
) -> None:
    """Add one participant's slices to ``flows``, in transmission order."""
    node_flow = NodeFlows(node_id=node_id, reading=int(readings[node_id]))
    for color, plan in plans.items():
        if plan.kept is not None:
            node_flow.kept = plan.kept
            node_flow.kept_color = color
        if plan.outgoing:
            node_flow.outgoing[color] = list(plan.outgoing)
        for target, piece in plan.outgoing:
            target_flow = flows.get(target)
            if target_flow is None:
                target_flow = flows[target] = NodeFlows(
                    node_id=target, reading=int(readings.get(target, 0))
                )
            target_flow.incoming.append((node_id, piece))
    existing = flows.get(node_id)
    if existing is not None:
        # Keep the slices this node received before its own turn.
        node_flow.incoming.extend(existing.incoming)
    flows[node_id] = node_flow


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
