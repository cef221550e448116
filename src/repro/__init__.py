"""iPDA: integrity-protecting private data aggregation for WSNs.

A full reproduction of He et al., MILCOM 2008: the iPDA protocol
(slicing-based privacy + disjoint-tree integrity), the TAG baseline it
is evaluated against, the discrete-event wireless simulator they run
on, the attack models, and the closed-form analysis of Section IV-A.

Quickstart::

    from repro import IpdaProtocol, RngStreams, random_deployment

    topology = random_deployment(400, seed=7)
    readings = {i: 1 for i in range(1, topology.node_count)}  # COUNT
    outcome = IpdaProtocol().run_round(
        topology, readings, streams=RngStreams(7)
    )
    print(outcome.s_red, outcome.s_blue, outcome.accepted)
"""

from .core import (
    DegradationPolicy,
    DisjointTrees,
    IntegrityChecker,
    IpdaConfig,
    PolluterLocalizer,
    RobustnessConfig,
    RoleMode,
    TimingConfig,
    VerificationResult,
    aggregate_statistic,
    build_disjoint_trees,
    run_lossless_round,
)
from .crypto import (
    GlobalKeyScheme,
    PairwiseKeyScheme,
    RandomPredistributionScheme,
)
from .errors import (
    ConfigurationError,
    CryptoError,
    IntegrityError,
    ProtocolError,
    ReproError,
    SimulationError,
    TopologyError,
)
from .faults import (
    CrashEvent,
    FaultInjector,
    FaultPlan,
    GilbertElliottChannel,
    GilbertElliottParams,
)
from .net import (
    Topology,
    grid_deployment,
    random_deployment,
    regular_topology,
)
from .protocols import (
    IpdaOutcome,
    IpdaProtocol,
    KipdaMaxProtocol,
    PdaProtocol,
    RoundOutcome,
    TagProtocol,
    statistic_by_name,
)
from .sim import Network, RadioConfig, RngStreams, TreeColor

__version__ = "1.11.0"

__all__ = [
    "__version__",
    # core
    "IpdaConfig",
    "RobustnessConfig",
    "RoleMode",
    "TimingConfig",
    "DegradationPolicy",
    "DisjointTrees",
    "build_disjoint_trees",
    "run_lossless_round",
    "aggregate_statistic",
    "IntegrityChecker",
    "PolluterLocalizer",
    "VerificationResult",
    # protocols
    "IpdaProtocol",
    "IpdaOutcome",
    "TagProtocol",
    "PdaProtocol",
    "KipdaMaxProtocol",
    "RoundOutcome",
    "statistic_by_name",
    # topology & sim
    "Topology",
    "random_deployment",
    "grid_deployment",
    "regular_topology",
    "Network",
    "RadioConfig",
    "RngStreams",
    "TreeColor",
    # faults
    "FaultPlan",
    "CrashEvent",
    "GilbertElliottParams",
    "GilbertElliottChannel",
    "FaultInjector",
    # crypto
    "PairwiseKeyScheme",
    "GlobalKeyScheme",
    "RandomPredistributionScheme",
    # errors
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "SimulationError",
    "ProtocolError",
    "CryptoError",
    "IntegrityError",
]
