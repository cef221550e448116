"""Ablation studies beyond the paper's figures.

Each ablation isolates one design choice DESIGN.md calls out:

* ``run_slices`` — the privacy/overhead/accuracy trade-off of ``l``;
* ``run_budget`` — the aggregator-budget ``k`` of the adaptive mode
  (coverage vs. number of aggregators);
* ``run_role_mode`` — adaptive Equation 1 vs. fixed Equation 2;
* ``run_key_schemes`` — insider exposure under pairwise keys vs.
  Eschenauer-Gligor predistribution vs. a global key;
* ``run_threshold`` — Th sensitivity: benign-loss false rejections vs.
  smallest detectable pollution.

Seeding convention: variants of one ablation share the deployment (and,
where the comparison is variance-reduced by common random numbers, the
tree-construction stream) at the same repetition, but anything a
variant consumes independently is derived from its own labels via
:func:`repro.rng.derive_seed`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.overhead import overhead_ratio
from ..analysis.privacy import average_disclosure_probability
from ..attacks.collusion import coalition_disclosure, random_coalition
from ..core.config import IpdaConfig, RoleMode
from ..core.pipeline import run_lossless_round
from ..core.trees import build_disjoint_trees
from ..crypto.keys import (
    GlobalKeyScheme,
    PairwiseKeyScheme,
    RandomPredistributionScheme,
)
from ..protocols.ipda import IpdaProtocol
from ..rng import RngStreams, derive_seed
from ..sim.messages import TreeColor
from ..workloads.readings import count_readings
from .common import (
    Cell,
    CellExperiment,
    ExperimentTable,
    cached_deployment,
    grouped,
    make_cell,
    mean_std,
)

__all__ = [
    "run_slices",
    "run_budget",
    "run_role_mode",
    "run_key_schemes",
    "run_threshold",
    "run_tree_count",
    "SPECS",
]


# --------------------------------------------------------------------------
# l sweep
# --------------------------------------------------------------------------

SLICES_EXPERIMENT = "ablation-slices"


def slices_cells(
    *,
    node_count: int = 400,
    slice_counts: Sequence[int] = (1, 2, 3, 4),
    px: float = 0.05,
    repetitions: int = 3,
    seed: int = 0,
) -> List[Cell]:
    return [
        make_cell(
            SLICES_EXPERIMENT,
            (int(slices),),
            rep,
            node_count=int(node_count),
            px=float(px),
            seed=int(seed),
        )
        for slices in slice_counts
        for rep in range(repetitions)
    ]


def slices_run_cell(cell: Cell) -> Tuple[float, float, float]:
    """One iPDA round at this l; returns (pdisclose, accuracy, part)."""
    (slices,) = cell.key
    seed = cell.param("seed")
    node_count = cell.param("node_count")
    topology = cached_deployment(
        node_count,
        seed=derive_seed(seed, SLICES_EXPERIMENT, node_count, "deploy"),
    )
    readings = count_readings(topology)
    outcome = IpdaProtocol(IpdaConfig(slices=slices)).run_round(
        topology,
        readings,
        streams=RngStreams(
            derive_seed(seed, SLICES_EXPERIMENT, node_count, cell.rep, slices)
        ),
        round_id=cell.rep,
    )
    collected = (outcome.s_red + outcome.s_blue) / 2
    return (
        average_disclosure_probability(topology, cell.param("px"), slices),
        collected / outcome.true_total,
        len(outcome.participants) / (node_count - 1),
    )


def slices_reduce(
    cells: Sequence[Cell], results: Sequence[object]
) -> ExperimentTable:
    table = ExperimentTable(
        name="Ablation: number of slices l",
        columns=[
            "l",
            "analytic_pdisclose",
            "overhead_ratio",
            "accuracy",
            "participation",
        ],
    )
    for key, entries in grouped(cells, results).items():
        (slices,) = key
        table.add_row(
            slices,
            entries[0][1][0],
            overhead_ratio(slices),
            mean_std([result[1] for _cell, result in entries])[0],
            mean_std([result[2] for _cell, result in entries])[0],
        )
    px = cells[0].param("px") if cells else 0.05
    table.add_note(
        f"privacy at px={px}; the paper recommends l=2 as the knee "
        "(Section IV-A.3)"
    )
    return table


SLICES_SPEC = CellExperiment(
    SLICES_EXPERIMENT, slices_cells, slices_run_cell, slices_reduce,
    description="Ablation: slice count l vs privacy/overhead/accuracy "
                "trade-off",
)


def run_slices(
    *,
    node_count: int = 400,
    slice_counts: Sequence[int] = (1, 2, 3, 4),
    px: float = 0.05,
    repetitions: int = 3,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentTable:
    """l sweep: privacy (Eq. 11), overhead ratio, accuracy, participation."""
    from ..runner import execute

    return execute(
        SLICES_SPEC,
        jobs=jobs,
        node_count=node_count,
        slice_counts=tuple(slice_counts),
        px=px,
        repetitions=repetitions,
        seed=seed,
    )


# --------------------------------------------------------------------------
# aggregator budget k
# --------------------------------------------------------------------------

BUDGET_EXPERIMENT = "ablation-budget"


def budget_cells(
    *,
    node_count: int = 500,
    budgets: Sequence[int] = (2, 4, 8, 16),
    repetitions: int = 10,
    seed: int = 0,
) -> List[Cell]:
    return [
        make_cell(
            BUDGET_EXPERIMENT,
            (int(budget),),
            rep,
            node_count=int(node_count),
            seed=int(seed),
        )
        for budget in budgets
        for rep in range(repetitions)
    ]


def budget_run_cell(cell: Cell) -> Tuple[float, float]:
    """Build trees under one budget; returns (agg fraction, coverage).

    The deployment *and* the tree-construction stream are shared across
    budgets at the same repetition (common random numbers: only the
    budget differs between the arms being compared).
    """
    (budget,) = cell.key
    seed = cell.param("seed")
    node_count = cell.param("node_count")
    topology = cached_deployment(
        node_count,
        seed=derive_seed(
            seed, BUDGET_EXPERIMENT, node_count, cell.rep, "deploy"
        ),
    )
    trees = build_disjoint_trees(
        topology,
        IpdaConfig(role_mode=RoleMode.ADAPTIVE, aggregator_budget=budget),
        np.random.default_rng(
            derive_seed(seed, BUDGET_EXPERIMENT, node_count, cell.rep, "trees")
        ),
    )
    sensors = node_count - 1
    aggregators = len(trees.aggregators(TreeColor.RED)) + len(
        trees.aggregators(TreeColor.BLUE)
    )
    return (
        aggregators / sensors,
        len(trees.covered_nodes() - {trees.base_station}) / sensors,
    )


def budget_reduce(
    cells: Sequence[Cell], results: Sequence[object]
) -> ExperimentTable:
    table = ExperimentTable(
        name="Ablation: aggregator budget k (adaptive mode)",
        columns=["k", "aggregator_fraction", "covered_fraction"],
    )
    for key, entries in grouped(cells, results).items():
        (budget,) = key
        table.add_row(
            budget,
            mean_std([result[0] for _cell, result in entries])[0],
            mean_std([result[1] for _cell, result in entries])[0],
        )
    table.add_note(
        "k trades HELLO/result forwarding load (fewer aggregators) "
        "against tree coverage; the paper fixes k=4"
    )
    return table


BUDGET_SPEC = CellExperiment(
    BUDGET_EXPERIMENT, budget_cells, budget_run_cell, budget_reduce,
    description="Ablation: per-node message budget k (Equation 1)",
)


def run_budget(
    *,
    node_count: int = 500,
    budgets: Sequence[int] = (2, 4, 8, 16),
    repetitions: int = 10,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentTable:
    """k sweep under the adaptive role mode (Equation 1)."""
    from ..runner import execute

    return execute(
        BUDGET_SPEC,
        jobs=jobs,
        node_count=node_count,
        budgets=tuple(budgets),
        repetitions=repetitions,
        seed=seed,
    )


# --------------------------------------------------------------------------
# role mode
# --------------------------------------------------------------------------

ROLE_MODE_EXPERIMENT = "ablation-role-mode"


def role_mode_cells(
    *,
    node_count: int = 500,
    repetitions: int = 10,
    seed: int = 0,
) -> List[Cell]:
    return [
        make_cell(
            ROLE_MODE_EXPERIMENT,
            (mode.value,),
            rep,
            node_count=int(node_count),
            seed=int(seed),
        )
        for mode in (RoleMode.FIXED, RoleMode.ADAPTIVE)
        for rep in range(repetitions)
    ]


def role_mode_run_cell(cell: Cell) -> Tuple[float, float, Optional[float]]:
    """Trees under one role mode on the shared (deployment, stream) pair."""
    (mode_value,) = cell.key
    seed = cell.param("seed")
    node_count = cell.param("node_count")
    topology = cached_deployment(
        node_count,
        seed=derive_seed(
            seed, ROLE_MODE_EXPERIMENT, node_count, cell.rep, "deploy"
        ),
    )
    trees = build_disjoint_trees(
        topology,
        IpdaConfig(role_mode=RoleMode(mode_value)),
        np.random.default_rng(
            derive_seed(
                seed, ROLE_MODE_EXPERIMENT, node_count, cell.rep, "trees"
            )
        ),
    )
    sensors = node_count - 1
    red = len(trees.aggregators(TreeColor.RED))
    blue = len(trees.aggregators(TreeColor.BLUE))
    return (
        (red + blue) / sensors,
        len(trees.covered_nodes() - {trees.base_station}) / sensors,
        abs(red - blue) / (red + blue) if red + blue else None,
    )


def role_mode_reduce(
    cells: Sequence[Cell], results: Sequence[object]
) -> ExperimentTable:
    table = ExperimentTable(
        name="Ablation: adaptive vs fixed role probabilities",
        columns=[
            "mode",
            "aggregator_fraction",
            "covered_fraction",
            "colour_imbalance",
        ],
    )
    for key, entries in grouped(cells, results).items():
        (mode_value,) = key
        imbalances = [
            result[2] for _cell, result in entries if result[2] is not None
        ]
        table.add_row(
            mode_value,
            mean_std([result[0] for _cell, result in entries])[0],
            mean_std([result[1] for _cell, result in entries])[0],
            mean_std(imbalances)[0] if imbalances else float("nan"),
        )
    return table


ROLE_MODE_SPEC = CellExperiment(
    ROLE_MODE_EXPERIMENT, role_mode_cells, role_mode_run_cell,
    role_mode_reduce,
    description="Ablation: aggregator-election role modes",
)


def run_role_mode(
    *,
    node_count: int = 500,
    repetitions: int = 10,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentTable:
    """Equation 1 (adaptive) vs Equation 2 (fixed 0.5/0.5)."""
    from ..runner import execute

    return execute(
        ROLE_MODE_SPEC,
        jobs=jobs,
        node_count=node_count,
        repetitions=repetitions,
        seed=seed,
    )


# --------------------------------------------------------------------------
# key schemes
# --------------------------------------------------------------------------

KEY_SCHEMES_EXPERIMENT = "ablation-key-schemes"

_KEY_SCHEME_NAMES = ("pairwise", "eg-predistribution", "global-key")


def _make_key_scheme(name: str, node_count: int, seed: int):
    key_seed = derive_seed(seed, KEY_SCHEMES_EXPERIMENT, name, "keys")
    if name == "pairwise":
        return PairwiseKeyScheme(node_count, seed=key_seed)
    if name == "eg-predistribution":
        return RandomPredistributionScheme(
            node_count, pool_size=500, ring_size=40, seed=key_seed
        )
    return GlobalKeyScheme(node_count, seed=key_seed)


def key_schemes_cells(
    *,
    node_count: int = 300,
    repetitions: int = 3,
    coalition_size: int = 20,
    seed: int = 0,
) -> List[Cell]:
    return [
        make_cell(
            KEY_SCHEMES_EXPERIMENT,
            (name,),
            rep,
            node_count=int(node_count),
            coalition_size=int(coalition_size),
            seed=int(seed),
        )
        for name in _KEY_SCHEME_NAMES
        for rep in range(repetitions)
    ]


def key_schemes_run_cell(cell: Cell) -> Tuple[float, float]:
    """One lossless round + coalition attack under one key scheme.

    Round and coalition streams are shared across schemes at the same
    repetition (common random numbers: the schemes are compared on the
    same slicing randomness and the same coalition).
    """
    (scheme_name,) = cell.key
    seed = cell.param("seed")
    node_count = cell.param("node_count")
    topology = cached_deployment(
        node_count,
        seed=derive_seed(
            seed, KEY_SCHEMES_EXPERIMENT, node_count, cell.rep, "deploy"
        ),
    )
    readings = count_readings(topology)
    result = run_lossless_round(
        topology,
        readings,
        IpdaConfig(),
        rng=RngStreams(
            derive_seed(
                seed, KEY_SCHEMES_EXPERIMENT, node_count, cell.rep, "round"
            )
        ).get("keyschemes"),
        key_scheme=_make_key_scheme(scheme_name, topology.node_count, seed),
        record_flows=True,
    )
    coalition = random_coalition(
        topology,
        cell.param("coalition_size"),
        np.random.default_rng(
            derive_seed(
                seed, KEY_SCHEMES_EXPERIMENT, node_count, cell.rep,
                "coalition",
            )
        ),
        exclude={0},
    )
    report = coalition_disclosure(result, coalition)
    return (
        len(result.participants) / (node_count - 1),
        report.disclosure_rate,
    )


def key_schemes_reduce(
    cells: Sequence[Cell], results: Sequence[object]
) -> ExperimentTable:
    table = ExperimentTable(
        name="Ablation: key management schemes",
        columns=[
            "scheme",
            "participation",
            "coalition_disclosure_rate",
        ],
    )
    for key, entries in grouped(cells, results).items():
        (scheme_name,) = key
        table.add_row(
            scheme_name,
            mean_std([result[0] for _cell, result in entries])[0],
            mean_std([result[1] for _cell, result in entries])[0],
        )
    table.add_note(
        "EG predistribution may lack shared keys on some links, "
        "shrinking the slice-target pool (lower participation)"
    )
    return table


KEY_SCHEMES_SPEC = CellExperiment(
    KEY_SCHEMES_EXPERIMENT, key_schemes_cells, key_schemes_run_cell,
    key_schemes_reduce,
    description="Ablation: pairwise key distribution schemes",
)


def run_key_schemes(
    *,
    node_count: int = 300,
    repetitions: int = 3,
    coalition_size: int = 20,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentTable:
    """Key-management comparison: who else can read a link's slices."""
    from ..runner import execute

    return execute(
        KEY_SCHEMES_SPEC,
        jobs=jobs,
        node_count=node_count,
        repetitions=repetitions,
        coalition_size=coalition_size,
        seed=seed,
    )


# --------------------------------------------------------------------------
# acceptance threshold Th
# --------------------------------------------------------------------------

THRESHOLD_EXPERIMENT = "ablation-threshold"


def threshold_cells(
    *,
    node_count: int = 400,
    thresholds: Sequence[int] = (0, 1, 5, 20, 100),
    repetitions: int = 5,
    pollution_offset: int = 50,
    seed: int = 0,
) -> List[Cell]:
    return [
        make_cell(
            THRESHOLD_EXPERIMENT,
            (int(threshold),),
            rep,
            node_count=int(node_count),
            pollution_offset=int(pollution_offset),
            seed=int(seed),
        )
        for threshold in thresholds
        for rep in range(repetitions)
    ]


def threshold_run_cell(cell: Cell) -> Tuple[float, Optional[float]]:
    """Benign round + attacked round; returns (accept, detect-or-None).

    The benign and attacked rounds deliberately replay the *same*
    stream seed: detection must be attributable to the pollution alone,
    not to different channel randomness.
    """
    (threshold,) = cell.key
    seed = cell.param("seed")
    node_count = cell.param("node_count")
    topology = cached_deployment(
        node_count,
        seed=derive_seed(
            seed, THRESHOLD_EXPERIMENT, node_count, cell.rep, "deploy"
        ),
    )
    readings = count_readings(topology)
    protocol = IpdaProtocol(IpdaConfig(threshold=threshold))
    round_seed = derive_seed(
        seed, THRESHOLD_EXPERIMENT, node_count, cell.rep, "round"
    )
    benign = protocol.run_round(
        topology,
        readings,
        streams=RngStreams(round_seed),
        round_id=cell.rep,
    )
    benign_accept = 1.0 if benign.accepted else 0.0
    polluter = max(benign.covered, default=None)
    if polluter is None:
        return benign_accept, None
    attacked = protocol.run_round(
        topology,
        readings,
        streams=RngStreams(round_seed),
        round_id=cell.rep,
        polluters={polluter: cell.param("pollution_offset")},
    )
    return benign_accept, 0.0 if attacked.accepted else 1.0


def threshold_reduce(
    cells: Sequence[Cell], results: Sequence[object]
) -> ExperimentTable:
    table = ExperimentTable(
        name="Ablation: acceptance threshold Th",
        columns=["Th", "benign_accept_rate", "attack_detect_rate"],
    )
    for key, entries in grouped(cells, results).items():
        (threshold,) = key
        detections = [
            result[1] for _cell, result in entries if result[1] is not None
        ]
        table.add_row(
            threshold,
            mean_std([result[0] for _cell, result in entries])[0],
            mean_std(detections)[0] if detections else float("nan"),
        )
    pollution_offset = (
        cells[0].param("pollution_offset") if cells else 50
    )
    table.add_note(
        f"attack injects a +{pollution_offset} offset at one aggregator; "
        "Th must sit between benign loss noise and the smallest attack "
        "worth detecting"
    )
    return table


THRESHOLD_SPEC = CellExperiment(
    THRESHOLD_EXPERIMENT, threshold_cells, threshold_run_cell,
    threshold_reduce,
    description="Ablation: integrity threshold Th sweep",
)


def run_threshold(
    *,
    node_count: int = 400,
    thresholds: Sequence[int] = (0, 1, 5, 20, 100),
    repetitions: int = 5,
    pollution_offset: int = 50,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentTable:
    """Th sensitivity: benign false-rejects vs. detected pollution."""
    from ..runner import execute

    return execute(
        THRESHOLD_SPEC,
        jobs=jobs,
        node_count=node_count,
        thresholds=tuple(thresholds),
        repetitions=repetitions,
        pollution_offset=pollution_offset,
        seed=seed,
    )


# --------------------------------------------------------------------------
# m-tree generalisation
# --------------------------------------------------------------------------

TREES_EXPERIMENT = "ablation-trees"


def tree_count_cells(
    *,
    node_count: int = 600,
    tree_counts: Sequence[int] = (2, 3, 4),
    repetitions: int = 5,
    pollution_offset: int = 500,
    seed: int = 0,
) -> List[Cell]:
    return [
        make_cell(
            TREES_EXPERIMENT,
            (int(tree_count),),
            rep,
            node_count=int(node_count),
            pollution_offset=int(pollution_offset),
            seed=int(seed),
        )
        for tree_count in tree_counts
        for rep in range(repetitions)
    ]


def tree_count_run_cell(
    cell: Cell,
) -> Tuple[float, Optional[float], Optional[float]]:
    """Clean + attacked m-tree rounds on the shared deployment."""
    from ..core.multitree import build_multi_trees, run_multitree_round

    (tree_count,) = cell.key
    seed = cell.param("seed")
    node_count = cell.param("node_count")
    topology = cached_deployment(
        node_count,
        seed=derive_seed(
            seed, TREES_EXPERIMENT, node_count, cell.rep, "deploy"
        ),
    )
    readings = count_readings(topology)
    # One rng drives tree build, clean round, attacked round in
    # sequence, as the attacked round replays on the clean trees.
    rng = np.random.default_rng(
        derive_seed(
            seed, TREES_EXPERIMENT, node_count, cell.rep, "round", tree_count
        )
    )
    trees = build_multi_trees(topology, tree_count, rng)
    sensors = node_count - 1
    clean = run_multitree_round(
        topology, readings, tree_count, rng=rng, trees=trees
    )
    participation = len(clean.participants) / sensors
    tree0 = sorted(trees.aggregators(trees.colors[0]))
    if not tree0:
        return participation, None, None
    attacked = run_multitree_round(
        topology,
        readings,
        tree_count,
        rng=rng,
        trees=trees,
        polluters={tree0[0]: cell.param("pollution_offset")},
    )
    polluted = attacked.verification.polluted_trees
    detected = (
        1.0
        if 0 in polluted or not attacked.verification.accepted
        else 0.0
    )
    tolerated = 1.0 if attacked.verification.accepted else 0.0
    return participation, detected, tolerated


def tree_count_reduce(
    cells: Sequence[Cell], results: Sequence[object]
) -> ExperimentTable:
    from ..core.multitree import multitree_messages_per_node

    table = ExperimentTable(
        name="Ablation: number of disjoint trees m",
        columns=[
            "m",
            "messages_per_node",
            "participation",
            "detected_rate",
            "tolerated_rate",
        ],
    )
    for key, entries in grouped(cells, results).items():
        (tree_count,) = key
        detected = [
            result[1] for _cell, result in entries if result[1] is not None
        ]
        tolerated = [
            result[2] for _cell, result in entries if result[2] is not None
        ]
        table.add_row(
            tree_count,
            multitree_messages_per_node(tree_count, 2),
            mean_std([result[0] for _cell, result in entries])[0],
            mean_std(detected)[0] if detected else float("nan"),
            mean_std(tolerated)[0] if tolerated else float("nan"),
        )
    table.add_note(
        "m=2 detects (rejects) pollution; m>=3 also *tolerates* it by "
        "majority vote, at (m*l+1)/2 x TAG message cost and a density "
        "requirement growing with m"
    )
    return table


TREES_SPEC = CellExperiment(
    TREES_EXPERIMENT, tree_count_cells, tree_count_run_cell,
    tree_count_reduce,
    description="Ablation: number of disjoint aggregation trees",
)


def run_tree_count(
    *,
    node_count: int = 600,
    tree_counts: Sequence[int] = (2, 3, 4),
    repetitions: int = 5,
    pollution_offset: int = 500,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentTable:
    """m-tree generalisation: coverage, overhead, pollution tolerance.

    With m = 2 pollution is only *detected* (round rejected); with
    m >= 3 the majority vote identifies the polluted tree and still
    accepts the round — the column ``tolerated_rate`` measures that.
    """
    from ..runner import execute

    return execute(
        TREES_SPEC,
        jobs=jobs,
        node_count=node_count,
        tree_counts=tuple(tree_counts),
        repetitions=repetitions,
        pollution_offset=pollution_offset,
        seed=seed,
    )


SPECS = (
    SLICES_SPEC,
    BUDGET_SPEC,
    ROLE_MODE_SPEC,
    KEY_SCHEMES_SPEC,
    THRESHOLD_SPEC,
    TREES_SPEC,
)
