"""m-tree iPDA over the full radio stack (Section III-B's m > 2).

The logical m-tree pipeline lives in :mod:`repro.core.multitree`; this
runner plays the same generalisation on iPDA's own radio nodes
(:mod:`repro.protocols.ipda`) with an m-colour palette — HELLO floods
for m colours, m independent cuts per reading (``m*l - 1``
transmissions per aggregator), m parallel convergecasts — and replaces
the two-tree threshold verdict with a majority vote at the base
station, which *tolerates* minority pollution when m ≥ 3.  Roles follow
:attr:`RoleMode.UNIFORM` whatever the config says, and the config's
robust mode, when set, applies to every tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..core.config import IpdaConfig, RoleMode
from ..core.multitree import MultiTreeVerification
from ..crypto.keys import PairwiseKeyScheme
from ..net.topology import Topology
from ..sim.mac import MacConfig
from ..sim.messages import TreeColor
from ..sim.radio import RadioConfig
from ..sim.rng import RngStreams
from .ipda import IpdaProtocol

__all__ = ["MipdaOutcome", "MipdaProtocol"]


@dataclass
class MipdaOutcome:
    """One m-tree round's result."""

    round_id: int
    colors: Tuple[TreeColor, ...]
    sums: List[int]
    verification: MultiTreeVerification
    participants: Set[int] = field(default_factory=set)
    covered: Set[int] = field(default_factory=set)
    true_total: int = 0
    participant_total: int = 0
    bytes_sent: int = 0
    frames_sent: int = 0
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def accepted(self) -> bool:
        """A strict majority of trees agrees."""
        return self.verification.accepted

    @property
    def reported(self) -> Optional[int]:
        """The majority value, or None without a majority."""
        if not self.verification.accepted:
            return None
        return self.verification.accepted_value

    @property
    def polluted_trees(self) -> List[TreeColor]:
        """Colours voted out of the majority."""
        return [self.colors[i] for i in self.verification.polluted_trees]


class MipdaProtocol:
    """Runner for m-tree iPDA rounds over the full radio stack."""

    name = "mipda"

    def __init__(
        self,
        tree_count: int = 3,
        config: Optional[IpdaConfig] = None,
        *,
        key_scheme_factory=PairwiseKeyScheme,
        radio_config: Optional[RadioConfig] = None,
        mac_config: Optional[MacConfig] = None,
        base_station: int = 0,
    ):
        self.colors = TreeColor.palette(tree_count)
        self.tree_count = tree_count
        self.config = replace(
            config if config is not None else IpdaConfig(),
            role_mode=RoleMode.UNIFORM,
        )
        self._radio = IpdaProtocol(
            self.config,
            key_scheme_factory=key_scheme_factory,
            radio_config=radio_config,
            mac_config=mac_config,
            base_station=base_station,
        )

    def run_round(
        self,
        topology: Topology,
        readings: Mapping[int, int],
        *,
        streams: RngStreams,
        round_id: int = 0,
        contributors: Optional[Set[int]] = None,
        polluters: Optional[Mapping[int, int]] = None,
    ) -> MipdaOutcome:
        """Run one m-tree round and majority-verify the sums."""
        with self._radio._play_round(
            topology,
            readings,
            streams.spawn("mipda", self.tree_count, round_id),
            colors=self.colors,
            round_id=round_id,
            contributors=contributors,
            polluters=polluters,
        ) as (network, root, _magnitude):
            tally = root.tally()
            sums = [root.tree_sum(color) for color in self.colors]
            participants = tally.participants
            return MipdaOutcome(
                round_id=round_id,
                colors=self.colors,
                sums=sums,
                verification=MultiTreeVerification(
                    sums=sums, threshold=self.config.threshold
                ),
                participants=participants,
                covered=tally.covered,
                true_total=sum(int(v) for v in readings.values()),
                participant_total=sum(int(readings[i]) for i in participants),
                bytes_sent=network.trace.total_bytes_sent,
                frames_sent=network.trace.total_frames_sent,
                stats={
                    "sensor_count": topology.node_count - 1,
                    "aggregators_by_color": {
                        color.value: count
                        for color, count in tally.aggregators.items()
                    },
                    "loss_rate": network.trace.loss_rate(),
                    "trace": network.trace.summary(),
                },
            )
