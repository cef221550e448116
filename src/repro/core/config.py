"""Protocol configuration.

Collects every tunable the paper names, with the paper's defaults:
``l = 2`` slices (recommended in Section IV-A.3), ``k = 4`` aggregator
budget (Section III-B), ``Th = 5`` acceptance threshold (Section
IV-B.1), and fixed ``p_r = p_b = 0.5`` role probabilities (Equation 2)
with the adaptive Equation-1 strategy available as a mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from ..errors import ConfigurationError

__all__ = ["RoleMode", "IpdaConfig", "TimingConfig", "RobustnessConfig"]


class RoleMode(str, Enum):
    """How nodes pick their colour in Phase I."""

    #: Equation 2: every node becomes an aggregator, p_r = p_b = 0.5.
    FIXED = "fixed"
    #: Equation 1: p = min(1, k / (N_blue + N_red)), colour probabilities
    #: proportional to the *opposite* colour's HELLO count (balancing).
    ADAPTIVE = "adaptive"
    #: Section III-B's m-tree rule, for any palette: every node becomes
    #: an aggregator of each of the m colours with probability 1/m (one
    #: ``rng.integers(0, m)`` draw).  FIXED and ADAPTIVE need two colours.
    UNIFORM = "uniform"


@dataclass
class TimingConfig:
    """Event-driven phase timing (seconds of simulated time).

    These govern the full radio simulation only; the logical
    (instantaneous) tree builder ignores them.
    """

    #: How long a node collects HELLOs after first hearing both colours
    #: before electing its role (Section III-B: "waits for a certain
    #: period of time to get enough HELLO messages").
    role_decision_delay: float = 0.25
    #: Length of Phase I; nodes that have not decided by then sit out.
    tree_construction_window: float = 10.0
    #: Window over which participants stagger their slice transmissions.
    slicing_window: float = 10.0
    #: Extra settling time after the slicing window before assembling.
    assembly_guard: float = 1.0
    #: Per-hop slot for the TDMA-style convergecast of Phase III (deepest
    #: hop transmits first, exactly as TAG schedules its epochs).
    aggregation_slot: float = 2.0

    def __post_init__(self) -> None:
        for name in (
            "role_decision_delay",
            "tree_construction_window",
            "slicing_window",
            "assembly_guard",
            "aggregation_slot",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")


@dataclass
class RobustnessConfig:
    """Loss-tolerance knobs for the radio-stack protocols.

    Opt-in (``IpdaConfig.robustness = RobustnessConfig()``): the legacy
    fire-and-forget behaviour stays byte-identical when absent, which
    keeps the paper-reproduction traces pinned.

    Attributes
    ----------
    slice_ack_timeout:
        Seconds a sender waits for the end-to-end slice ACK before
        retrying.  Must exceed the MAC's worst-case ARQ tail (7 attempts
        with exponential backoff — tens of milliseconds).
    slice_retry_limit:
        Total protocol-level attempts per slice piece.  Each attempt
        after the first rotates to the next same-colour aggregator in
        range (a timeout usually means the target is dead, not that the
        link glitched — link glitches are already absorbed by MAC ARQ).
    report_ack_timeout / report_retry_limit:
        Same for Phase-III aggregate reports; on exhausting retries at
        one parent the node re-parents to the next *shallower*
        same-colour aggregator it heard during Phase I.
    retry_backoff:
        Base of the jittered exponential backoff between protocol
        retries (uniform in ``[0.5, 1.5] * retry_backoff * 2**attempt``).
    degradation:
        Report per-tree piece coverage to the base station's integrity
        checker so benign-loss rounds degrade gracefully instead of
        being rejected (see :mod:`repro.core.integrity`).
    piece_slack:
        Max damage one missing slice piece can inflict on a tree sum,
        in threshold-scaling units; None auto-derives ``2 * magnitude``
        from the round's slice window.
    max_missing_fraction:
        Coverage asymmetry beyond this fraction of the expected pieces
        is treated as unexplainable by loss: the round is rejected, so
        an attacker cannot launder arbitrary pollution as "loss".
    """

    slice_ack_timeout: float = 0.35
    slice_retry_limit: int = 3
    report_ack_timeout: float = 0.5
    report_retry_limit: int = 3
    retry_backoff: float = 0.15
    degradation: bool = True
    piece_slack: Optional[int] = None
    max_missing_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.slice_ack_timeout <= 0 or self.report_ack_timeout <= 0:
            raise ConfigurationError("ack timeouts must be positive")
        if self.slice_retry_limit < 1 or self.report_retry_limit < 1:
            raise ConfigurationError("retry limits must be >= 1")
        if self.retry_backoff <= 0:
            raise ConfigurationError("retry_backoff must be positive")
        if self.piece_slack is not None and self.piece_slack < 0:
            raise ConfigurationError("piece_slack must be >= 0 or None")
        if not 0.0 < self.max_missing_fraction <= 1.0:
            raise ConfigurationError(
                "max_missing_fraction must be in (0, 1]"
            )


@dataclass
class IpdaConfig:
    """Everything that parametrises one iPDA deployment.

    Attributes
    ----------
    slices:
        ``l`` — pieces each reading is cut into per tree.  The paper
        recommends 2; 1 disables privacy (kept for the Figure 6/7/8
        ``l = 1`` series).
    aggregator_budget:
        ``k`` in the adaptive probability (Section III-B; paper uses 4).
    role_mode:
        Equation 2 (fixed), Equation 1 (adaptive), or the m-tree uniform.
    threshold:
        ``Th`` — base station accepts iff ``|S_b - S_r| <= Th``.
    slice_magnitude:
        Random slice components are drawn uniformly from
        ``[-slice_magnitude, slice_magnitude]``; the final component
        makes the sum exact.  ``None`` (the default) auto-scales to a
        small multiple of the largest reading in the round — slices stay
        uniformly random over a window wider than any reading (hiding
        the value) while keeping the damage of a rare lost frame
        commensurate with the data, which is what lets ``Th`` stay a
        small constant as in Figure 6.
    timing:
        Event-driven phase timing.
    robustness:
        Loss-tolerance parameters (ACK'd slices/reports, re-parenting,
        graceful degradation); None keeps the paper's fire-and-forget
        protocol exactly.
    """

    slices: int = 2
    aggregator_budget: int = 4
    role_mode: RoleMode = RoleMode.FIXED
    threshold: int = 5
    slice_magnitude: Optional[int] = None
    timing: TimingConfig = field(default_factory=TimingConfig)
    robustness: Optional[RobustnessConfig] = None

    def __post_init__(self) -> None:
        if self.slices < 1:
            raise ConfigurationError("slices (l) must be >= 1")
        if self.aggregator_budget < 2:
            raise ConfigurationError("aggregator_budget (k) must be >= 2")
        if self.threshold < 0:
            raise ConfigurationError("threshold (Th) must be >= 0")
        if self.slice_magnitude is not None and self.slice_magnitude < 1:
            raise ConfigurationError("slice_magnitude must be >= 1 or None")
        if not isinstance(self.role_mode, RoleMode):
            self.role_mode = RoleMode(self.role_mode)

    def effective_magnitude(self, readings) -> int:
        """Resolve the slice window for a round's readings.

        Explicit ``slice_magnitude`` wins; otherwise use
        ``max(4, 2 * max|reading|)``.
        """
        if self.slice_magnitude is not None:
            return self.slice_magnitude
        largest = max((abs(int(v)) for v in readings), default=0)
        return max(4, 2 * largest)
