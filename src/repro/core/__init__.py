"""The paper's primary contribution: the iPDA scheme's building blocks."""

from .config import IpdaConfig, RobustnessConfig, RoleMode, TimingConfig
from .integrity import (
    DegradationPolicy,
    IntegrityChecker,
    PolluterLocalizer,
    VerificationResult,
)
from .multitree import (
    MultiTreeVerification,
    build_multi_trees,
    multitree_isolation_probability,
    multitree_messages_per_node,
    run_multitree_round,
)
from .pipeline import LosslessRound, aggregate_statistic, run_lossless_round
from .session import AggregationSession, RoundRecord
from .slicing import SliceAssembler, SlicePlan, plan_slices, slice_value
from .trees import DisjointTrees, NodeRole, build_disjoint_trees, role_probabilities

__all__ = [
    "IpdaConfig",
    "RobustnessConfig",
    "RoleMode",
    "TimingConfig",
    "DegradationPolicy",
    "IntegrityChecker",
    "PolluterLocalizer",
    "VerificationResult",
    "LosslessRound",
    "run_lossless_round",
    "aggregate_statistic",
    "SliceAssembler",
    "SlicePlan",
    "plan_slices",
    "slice_value",
    "DisjointTrees",
    "NodeRole",
    "build_disjoint_trees",
    "role_probabilities",
    "MultiTreeVerification",
    "build_multi_trees",
    "run_multitree_round",
    "multitree_isolation_probability",
    "multitree_messages_per_node",
    "AggregationSession",
    "RoundRecord",
]
