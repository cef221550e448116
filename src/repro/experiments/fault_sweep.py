"""Fault-injection sweep: crashes + burst loss vs protocol robustness.

Two linked studies over the full radio stack:

* :func:`run` — a grid over crash fraction and Gilbert–Elliott burst
  severity, comparing loss-tolerant iPDA (ACK'd slices/reports,
  re-parenting, graceful degradation) against the paper's
  fire-and-forget iPDA and the TAG baseline.  For each cell it reports
  the accept/degrade/reject split, accuracy against the participant
  total, and the retransmission/fail-over effort spent.

* :func:`run_session` — the headline robustness demonstration: a
  50-round service under 5% fail-stop crashes plus burst loss.  Honest
  rounds must never be falsely rejected (every round is accepted or
  explicitly degraded with a coverage statement), while a data-polluting
  aggregator under the *same* fault load is still rejected — loss
  cannot be used to launder pollution, and pollution is never
  misread as loss.

Regenerate the checked-in results with::

    PYTHONPATH=src python -m repro.experiments.fault_sweep
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.config import IpdaConfig, RobustnessConfig
from ..core.integrity import piece_slack
from ..faults.plan import FaultPlan, GilbertElliottParams
from ..net.topology import Topology, grid_deployment
from ..protocols.ipda import IpdaProtocol
from ..protocols.tag import TagProtocol
from ..rng import RngStreams, derive_seed
from .common import (
    Cell,
    CellExperiment,
    ExperimentTable,
    grouped,
    make_cell,
    mean_std,
)

__all__ = ["run", "run_session", "default_topology", "LOSS_LEVELS", "SPEC"]

EXPERIMENT = "fault-sweep"

#: Named burst-loss severities for the sweep.  ``expected_loss`` runs
#: ~0 / ~4% / ~11% long-run average frame loss, but arriving in bursts
#: (mean bad-state sojourn 2 s) rather than i.i.d. drops.
LOSS_LEVELS: Mapping[str, Optional[GilbertElliottParams]] = {
    "none": None,
    "light": GilbertElliottParams(
        bad_rate=0.025, recovery_rate=0.5, loss_good=0.0, loss_bad=0.8
    ),
    "heavy": GilbertElliottParams(
        bad_rate=0.07, recovery_rate=0.5, loss_good=0.01, loss_bad=0.8
    ),
}

#: The crash window: anywhere from Phase I into the convergecast, so
#: crashes hit tree construction, slicing, and reporting alike.
CRASH_WINDOW = (0.0, 25.0)

_VARIANTS = ("ipda-robust", "ipda-legacy", "tag-robust")


def default_topology() -> Topology:
    """The sweep's deployment: a dense 7x7 grid (mean degree ~14).

    Grid spacing 20 m under the paper's 50 m radio range keeps every
    sensor covered by both trees, so outcome changes are attributable
    to the injected faults rather than to sparse-deployment data loss.
    """
    return grid_deployment(7, 7, spacing=20.0)


def _plan(
    topology: Topology,
    crash_fraction: float,
    burst: Optional[GilbertElliottParams],
    *,
    seed: int,
    recover_after: Optional[float] = None,
    protect: Tuple[int, ...] = (0,),
) -> FaultPlan:
    rng = np.random.default_rng(seed)
    return FaultPlan.random_crashes(
        range(1, topology.node_count),
        crash_fraction,
        rng=rng,
        window=CRASH_WINDOW,
        recover_after=recover_after,
        protect=protect,
        burst_loss=burst,
        seed=seed,
    )


def _robust_config() -> IpdaConfig:
    return IpdaConfig(robustness=RobustnessConfig())


def _make_variant(label: str):
    if label == "ipda-robust":
        return IpdaProtocol(_robust_config())
    if label == "ipda-legacy":
        return IpdaProtocol()
    return TagProtocol(robustness=RobustnessConfig())


def cells(
    crash_fractions: Sequence[float] = (0.0, 0.05, 0.15),
    loss_levels: Sequence[str] = ("none", "light", "heavy"),
    *,
    repetitions: int = 5,
    readings_value: int = 10,
    seed: int = 0,
) -> List[Cell]:
    """One cell per ``(crash fraction, loss level, repetition)``."""
    return [
        make_cell(
            EXPERIMENT,
            (float(crash_fraction), str(level)),
            rep,
            readings_value=int(readings_value),
            seed=int(seed),
        )
        for crash_fraction in crash_fractions
        for level in loss_levels
        for rep in range(repetitions)
    ]


def run_cell(cell: Cell) -> Dict[str, Dict[str, object]]:
    """Run all three protocol variants against one fault draw.

    The fault plan and the stream seed are shared across the variants
    (paired comparison: same crashes, same bursts, same channel
    randomness) but derived per grid cell — the old harness seeded
    streams with ``seed + 104729 * rep``, making every grid cell replay
    identical channel randomness.
    """
    crash_fraction, level = cell.key
    seed = cell.param("seed")
    topology = default_topology()
    readings = {
        i: cell.param("readings_value")
        for i in range(1, topology.node_count)
    }
    burst = LOSS_LEVELS[level]
    plan_seed = derive_seed(
        seed, EXPERIMENT, "plan", str(crash_fraction), level, cell.rep
    )
    stream_seed = derive_seed(
        seed, EXPERIMENT, "streams", str(crash_fraction), level, cell.rep
    )
    out: Dict[str, Dict[str, object]] = {}
    for label in _VARIANTS:
        plan = _plan(topology, crash_fraction, burst, seed=plan_seed)
        outcome = _make_variant(label).run_round(
            topology,
            readings,
            streams=RngStreams(stream_seed),
            round_id=cell.rep,
            fault_plan=plan,
        )
        if label == "tag-robust":
            # TAG has no integrity check: every round is "accepted";
            # accuracy is what it collected.
            result_outcome = "accepted"
            accuracy = outcome.reported / max(outcome.participant_total, 1)
        else:
            result_outcome = outcome.outcome
            accuracy = (
                outcome.reported / max(outcome.participant_total, 1)
                if outcome.reported is not None
                else None
            )
        out[label] = {
            "outcome": result_outcome,
            "accuracy": accuracy,
            "retries": outcome.stats.get("retries_used", 0),
            "reparents": outcome.stats.get("reparent_count", 0),
        }
    return out


def reduce(cells: Sequence[Cell], results: Sequence[object]) -> ExperimentTable:
    """Fold repetition cells into per-(grid cell, variant) rate rows."""
    table = ExperimentTable(
        name="Fault sweep: outcome rates under crashes + burst loss",
        columns=[
            "crash_fraction",
            "burst",
            "protocol",
            "accept_rate",
            "degrade_rate",
            "reject_rate",
            "accuracy",
            "retries",
            "reparents",
        ],
    )
    for key, entries in grouped(cells, results).items():
        crash_fraction, level = key
        repetitions = len(entries)
        for label in _VARIANTS:
            outcomes = {"accepted": 0, "degraded": 0, "rejected": 0}
            accuracies = []
            retries = []
            reparents = []
            for _cell, result in entries:
                variant = result[label]
                outcomes[variant["outcome"]] += 1
                if variant["accuracy"] is not None:
                    accuracies.append(variant["accuracy"])
                retries.append(variant["retries"])
                reparents.append(variant["reparents"])
            table.add_row(
                crash_fraction,
                level,
                label,
                outcomes["accepted"] / repetitions,
                outcomes["degraded"] / repetitions,
                outcomes["rejected"] / repetitions,
                mean_std(accuracies)[0] if accuracies else 0.0,
                mean_std(retries)[0],
                mean_std(reparents)[0],
            )
    table.add_note(
        "burst levels: none / light (~4% avg loss) / heavy (~11% avg "
        "loss), Gilbert-Elliott per-link chains, mean burst 2 s"
    )
    table.add_note(
        "accuracy = reported / participant total (degraded rounds use "
        "the partial estimate); tag-robust has no integrity check"
    )
    return table


SPEC = CellExperiment(
    EXPERIMENT, cells, run_cell, reduce,
    description="Fault sweep: crash fractions x burst loss vs "
                "robust-iPDA verdicts",
)


def run(
    crash_fractions: Sequence[float] = (0.0, 0.05, 0.15),
    loss_levels: Sequence[str] = ("none", "light", "heavy"),
    *,
    repetitions: int = 5,
    readings_value: int = 10,
    seed: int = 0,
    jobs: int = 1,
) -> ExperimentTable:
    """Sweep crash fraction x burst loss for the three protocol variants."""
    from ..runner import execute

    return execute(
        SPEC,
        jobs=jobs,
        crash_fractions=tuple(crash_fractions),
        loss_levels=tuple(loss_levels),
        repetitions=repetitions,
        readings_value=readings_value,
        seed=seed,
    )


def run_session(
    rounds: int = 50,
    *,
    crash_fraction: float = 0.05,
    loss_level: str = "light",
    pollution_offset: int = 100_000,
    churn_recover_after: Optional[float] = 20.0,
    readings_value: int = 10,
    seed: int = 0,
) -> ExperimentTable:
    """The headline demo: a long faulty session, honest vs polluted.

    Each round draws a fresh fault plan (5% fail-stop crashes by
    default, recovering after ``churn_recover_after`` seconds — churn —
    plus bursty loss).  The honest service must show **zero false
    rejects**: every round accepted or degraded, never rejected and
    never silently wrong.  The polluted service runs the *same* fault
    plans with one compromised aggregator and must keep rejecting.
    """
    topology = default_topology()
    readings = {
        i: readings_value for i in range(1, topology.node_count)
    }
    burst = LOSS_LEVELS[loss_level]
    config = _robust_config()
    table = ExperimentTable(
        name=(
            f"Fault session: {rounds} rounds, "
            f"{crash_fraction:.0%} crashes + {loss_level} burst loss"
        ),
        columns=[
            "service",
            "rounds",
            "accepted",
            "degraded",
            "rejected",
            "false_rejects",
            "silently_wrong",
            "mean_accuracy",
            "min_coverage",
        ],
    )
    polluter = 24  # grid centre: well-connected, always an aggregator
    for service, polluters in (
        ("honest", None),
        ("polluted", {polluter: pollution_offset}),
    ):
        # The polluter never crashes: every polluted round carries an
        # active attack, so its reject count is a clean detection rate.
        protect = (0,) if polluters is None else (0, polluter)
        counts = {"accepted": 0, "degraded": 0, "rejected": 0}
        accuracies = []
        coverages = []
        silently_wrong = 0
        for round_id in range(rounds):
            # Plan and stream seeds are shared between the honest and
            # polluted services: the demo's claim is about the same
            # fault load with and without the attack.
            plan = _plan(
                topology,
                crash_fraction,
                burst,
                seed=derive_seed(seed, "fault-session", round_id, "plan"),
                recover_after=churn_recover_after,
                protect=protect,
            )
            out = IpdaProtocol(config).run_round(
                topology,
                readings,
                streams=RngStreams(
                    derive_seed(seed, "fault-session", round_id, "streams")
                ),
                round_id=round_id,
                polluters=polluters,
                fault_plan=plan,
            )
            counts[out.outcome] += 1
            verification = out.verification
            assert verification is not None
            if verification.coverage is not None:
                coverages.append(verification.coverage)
            if out.reported is not None:
                accuracy = out.reported / max(out.participant_total, 1)
                accuracies.append(accuracy)
                # "Silently wrong": served a value the observed loss
                # cannot explain.  The served tree is the one closest
                # to the expected population; each piece it is off by
                # (missing or duplicated) shifts it at most one slack.
                slack = piece_slack(config, out.stats["magnitude"])
                expected = verification.expected_pieces or 0
                gap = min(
                    abs(
                        (verification.pieces_red or expected) - expected
                    ),
                    abs(
                        (verification.pieces_blue or expected) - expected
                    ),
                )
                loss_bound = config.threshold + slack * gap
                if abs(out.reported - out.participant_total) > loss_bound:
                    silently_wrong += 1
        false_rejects = counts["rejected"] if polluters is None else 0
        table.add_row(
            service,
            rounds,
            counts["accepted"],
            counts["degraded"],
            counts["rejected"],
            false_rejects,
            silently_wrong,
            mean_std(accuracies)[0] if accuracies else 0.0,
            min(coverages) if coverages else 1.0,
        )
    table.add_note(
        "honest service must show false_rejects = 0 and silently_wrong "
        "= 0; the polluted service (one compromised aggregator, same "
        "fault plans) must keep rejecting — a polluted round can only "
        "be accepted when the faults censored the polluter's own "
        "report, i.e. the round was genuinely clean (silently_wrong "
        "stays 0)"
    )
    table.add_note(
        "crashed nodes recover after "
        f"{churn_recover_after} s (churn); coverage = worse tree's "
        "piece fraction"
    )
    return table


def main() -> None:  # pragma: no cover - exercised via the CLI smoke test
    """Regenerate ``results/fault_sweep*.{csv,txt}``."""
    import os

    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))
    )))
    results_dir = os.path.join(here, "results")
    os.makedirs(results_dir, exist_ok=True)
    sweep = run()
    session = run_session()
    sweep.write_csv(os.path.join(results_dir, "fault_sweep.csv"))
    session.write_csv(os.path.join(results_dir, "fault_session.csv"))
    text = sweep.to_text() + "\n\n" + session.to_text() + "\n"
    with open(os.path.join(results_dir, "fault_sweep.txt"), "w") as handle:
        handle.write(text)
    print(text)


if __name__ == "__main__":  # pragma: no cover
    main()
