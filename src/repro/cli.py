"""Command-line entry point: ``python -m repro`` / ``ipda``.

Runs any paper experiment (or all of them) and prints the resulting
table; ``--csv DIR`` additionally writes one CSV per experiment (plus a
provenance manifest sidecar), ``--svg DIR`` renders figures.
``--jobs N`` shards the sweep's cells over N worker processes — the
output is byte-identical to a sequential run (see docs/simulator.md).
``--cache``/``--cache-dir`` memoise cells in the content-addressed
experiment store, so a warm re-run does zero simulation work.

Management commands ride alongside the experiment names::

    ipda list                       # registered specs + cell counts
    ipda cache stats|gc|clear       # inspect / trim the cell store
    ipda store verify results/fig7.csv   # prove provenance
    ipda bench --quick --compare BENCH_baseline.json   # perf gate
    ipda fleet worker|status|requeue     # crash-safe work queue ops

Examples::

    ipda table1
    ipda fig7 --repetitions 5 --seed 3 --jobs 4
    ipda all --fast --csv results/ --cache
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Callable, Dict, List, Optional

from .errors import ConfigurationError, ReproError
from .experiments import (
    ablations,
    collusion_study,
    energy,
    fault_sweep,
    fig1_trees,
    fig4_messages,
    fig5_privacy,
    fig6_threshold,
    fig7_overhead,
    fig8_coverage_accuracy,
    latency,
    table1_density,
)
from .experiments.common import ExperimentTable

__all__ = ["main", "EXPERIMENTS", "TOOL_COMMANDS"]

#: Small parameterisations used by ``--fast`` (seconds, not minutes).
_FAST_SIZES = (200, 300, 400)

#: First-positional words routed to the management parser instead of
#: the experiment runner.
TOOL_COMMANDS = (
    "bench", "cache", "fleet", "list", "report", "serve", "store", "tune",
)

Runner = Callable[..., ExperimentTable]


def _run_table1(fast: bool, repetitions: Optional[int], seed: int,
                jobs: Optional[int] = 1):
    reps = repetitions if repetitions is not None else (3 if fast else 10)
    return table1_density.run(repetitions=reps, seed=seed, jobs=jobs)


def _run_fig1(fast: bool, repetitions: Optional[int], seed: int,
              jobs: Optional[int] = 1):
    return fig1_trees.run(seed=seed, jobs=jobs)


def _run_fig4(fast: bool, repetitions: Optional[int], seed: int,
              jobs: Optional[int] = 1):
    return fig4_messages.run(
        node_count=300 if fast else 500, seed=seed, jobs=jobs
    )


def _run_fig5(fast: bool, repetitions: Optional[int], seed: int,
              jobs: Optional[int] = 1):
    trials = 0 if fast else 20
    return fig5_privacy.run(seed=seed, monte_carlo_trials=trials, jobs=jobs)


def _run_fig6(fast: bool, repetitions: Optional[int], seed: int,
              jobs: Optional[int] = 1):
    reps = repetitions if repetitions is not None else (2 if fast else 5)
    sizes = _FAST_SIZES if fast else fig6_threshold.PAPER_SIZES
    return fig6_threshold.run(sizes, repetitions=reps, seed=seed, jobs=jobs)


def _run_fig7(fast: bool, repetitions: Optional[int], seed: int,
              jobs: Optional[int] = 1):
    reps = repetitions if repetitions is not None else (1 if fast else 3)
    sizes = _FAST_SIZES if fast else fig7_overhead.PAPER_SIZES
    return fig7_overhead.run(sizes, repetitions=reps, seed=seed, jobs=jobs)


def _run_fig8(fast: bool, repetitions: Optional[int], seed: int,
              jobs: Optional[int] = 1):
    reps = repetitions if repetitions is not None else (1 if fast else 3)
    sizes = _FAST_SIZES if fast else fig8_coverage_accuracy.PAPER_SIZES
    return fig8_coverage_accuracy.run(
        sizes,
        repetitions=reps,
        coverage_repetitions=5 if fast else 20,
        seed=seed,
        jobs=jobs,
    )


def _run_fault_sweep(fast: bool, repetitions: Optional[int], seed: int,
                     jobs: Optional[int] = 1):
    reps = repetitions if repetitions is not None else (2 if fast else 5)
    kwargs = {"repetitions": reps, "seed": seed, "jobs": jobs}
    if fast:
        kwargs["crash_fractions"] = (0.0, 0.05)
        kwargs["loss_levels"] = ("none", "light")
    return fault_sweep.run(**kwargs)


def _run_privacy_suite(fast: bool, repetitions: Optional[int], seed: int,
                       jobs: Optional[int] = 1):
    from .privacy import evaluate as privacy_suite

    kwargs = {"seed": seed, "jobs": jobs}
    if repetitions is not None:
        kwargs["repetitions"] = repetitions
    if fast:
        kwargs["mi_trials"] = 8
        kwargs["disclosure_trials"] = 24
    return privacy_suite.run(**kwargs)


def _run_ablation(runner: Runner):
    def run(fast: bool, repetitions: Optional[int], seed: int,
            jobs: Optional[int] = 1):
        kwargs = {"seed": seed, "jobs": jobs}
        if repetitions is not None:
            kwargs["repetitions"] = repetitions
        elif fast:
            kwargs["repetitions"] = 2
        return runner(**kwargs)

    return run


EXPERIMENTS: Dict[str, Callable] = {
    "table1": _run_table1,
    "fig1": _run_fig1,
    "fig4": _run_fig4,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "ablation-slices": _run_ablation(ablations.run_slices),
    "ablation-budget": _run_ablation(ablations.run_budget),
    "ablation-role-mode": _run_ablation(ablations.run_role_mode),
    "ablation-key-schemes": _run_ablation(ablations.run_key_schemes),
    "ablation-threshold": _run_ablation(ablations.run_threshold),
    "ablation-trees": _run_ablation(ablations.run_tree_count),
    "energy": _run_ablation(energy.run),
    "latency": _run_ablation(latency.run),
    "ablation-collusion": _run_ablation(collusion_study.run),
    "fault-sweep": _run_fault_sweep,
    "privacy-suite": _run_privacy_suite,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipda",
        description=(
            "Reproduce the iPDA paper's tables and figures "
            "(He et al., MILCOM 2008)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate ('all' runs everything)",
    )
    parser.add_argument(
        "--fast",
        action="store_true",
        help="smaller sweeps for a quick look (seconds instead of minutes)",
    )
    parser.add_argument(
        "--repetitions",
        type=int,
        default=None,
        help="override the number of repetitions per data point",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help=(
            "worker processes for the sweep (default: all cores); "
            "results are identical for any value"
        ),
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help=(
            "also write each table as CSV into this directory "
            "(plus a .manifest.json provenance sidecar)"
        ),
    )
    parser.add_argument(
        "--svg",
        metavar="DIR",
        default=None,
        help="also render figures as SVG into this directory",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help=(
            "memoise cells in the experiment store "
            "($REPRO_CACHE_DIR or ~/.cache/repro-store); warm re-runs "
            "skip all simulation work with byte-identical output"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the cell cache even when --cache/--cache-dir is given",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="cell-store location (implies --cache)",
    )
    parser.add_argument(
        "--queue",
        metavar="DIR",
        default=None,
        help=(
            "run the sweep through a crash-safe fleet work queue at DIR: "
            "cells become lease tickets, SIGKILLed workers and driver "
            "restarts are survived, and a resumed run re-runs only the "
            "cells that were in flight (results are cached in DIR/store "
            "unless --cache-dir names another store; add external "
            "workers with 'ipda fleet worker --queue DIR')"
        ),
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "soft per-cell deadline: a cell running longer counts as a "
            "failure and is retried (fleet mode) or aborts the run "
            "after repeated strikes"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help=(
            "write a structured repro-run/1 JSON run report (per-phase "
            "wall time plus engine/radio/MAC/store counters; pretty-print "
            "it with 'ipda report PATH')"
        ),
    )
    parser.add_argument(
        "--metrics-events",
        metavar="PATH",
        default=None,
        help="also write the phase event stream as JSONL",
    )
    return parser


def _prepare_output_dir(path: str, flag: str) -> None:
    """Create ``path`` if missing; reject paths that aren't directories."""
    if os.path.isdir(path):
        return
    if os.path.exists(path):
        raise ConfigurationError(
            f"{flag} target {path!r} exists and is not a directory"
        )
    os.makedirs(path, exist_ok=True)


def _throughput_line(name: str, table: ExperimentTable,
                     elapsed: float) -> str:
    """Wall-clock report, with sweep shape when the runner provided it.

    Cache behaviour at both layers rides along: the per-worker
    deployment LRU (``deploy-cache h/m``) and, when a cell store was
    attached, the content-addressed store (``store h/m``).
    """
    meta = table.meta
    if "cells" not in meta:
        return f"({name} finished in {elapsed:.1f}s)"
    parts = [
        f"{name} finished in {elapsed:.1f}s: {meta['cells']} cells "
        f"on {meta['jobs']} worker(s), "
        f"{meta['cells_per_second']:.1f} cells/s"
    ]
    if "deploy_cache_hits" in meta:
        parts.append(
            f"deploy-cache {meta['deploy_cache_hits']}/"
            f"{meta['deploy_cache_misses']} hit/miss"
        )
    if "cache_hits" in meta:
        parts.append(
            f"store {meta['cache_hits']}/{meta['cache_misses']} hit/miss"
        )
    if "fleet_queue" in meta:
        parts.append(f"fleet queue {meta['fleet_queue']}")
    return "(" + ", ".join(parts) + ")"


def _resolve_cli_cache(args):
    """Build the CellStore the run loop installs as the default, or None."""
    if args.no_cache:
        return None
    if not (args.cache or args.cache_dir):
        return None
    from .store import CellStore

    root = os.path.expanduser(args.cache_dir) if args.cache_dir else None
    return CellStore(root)


def _write_artifacts(name: str, table: ExperimentTable, args) -> List[str]:
    """Write CSV/SVG (+ manifests) for one finished experiment."""
    from .store.manifest import write_manifest

    lines: List[str] = []
    if args.csv:
        csv_path = os.path.join(args.csv, f"{name}.csv")
        table.write_csv(csv_path)
        write_manifest(csv_path, table)
    if args.svg:
        from .viz import render_known_figure

        written = render_known_figure(name, table, args.svg)
        if written:
            write_manifest(written, table)
            lines.append(f"(figure written to {written})")
    return lines


def _experiment_main(args, argv: List[str]) -> int:
    names = (
        sorted(EXPERIMENTS) if args.experiment == "all"
        else [args.experiment]
    )
    from . import runner as runner_module
    from .store.manifest import refuse_clobber

    if args.csv:
        _prepare_output_dir(args.csv, "--csv")
    if args.svg:
        _prepare_output_dir(args.svg, "--svg")
    # Fail before any experiment runs if a sidecar slot is occupied by
    # an unrelated user file (mirrors the directory-collision check).
    for name in names:
        if args.csv:
            refuse_clobber(os.path.join(args.csv, f"{name}.csv"))
        if args.svg:
            refuse_clobber(os.path.join(args.svg, f"{name}.svg"))
    from .obs import MetricsRegistry, using_registry

    store = _resolve_cli_cache(args)
    fleet_queue = None
    if args.queue:
        from .fleet import FleetQueue

        fleet_queue = FleetQueue(args.queue)
        if store is None and not args.no_cache:
            from .store import CellStore

            store = CellStore(os.path.join(fleet_queue.root, "store"))
    previous = runner_module.set_default_cache(store)
    previous_fleet = runner_module.set_default_fleet(fleet_queue)
    previous_timeout = runner_module.set_default_cell_timeout(
        args.cell_timeout
    )
    capture_events = bool(args.metrics_events)
    report_entries: List[dict] = []
    events: List[dict] = []
    try:
        for name in names:
            registry = MetricsRegistry(capture_events=capture_events)
            started = time.time()
            with using_registry(registry):
                table = EXPERIMENTS[name](
                    args.fast, args.repetitions, args.seed, args.jobs
                )
            elapsed = time.time() - started
            print(table.to_text())
            print(_throughput_line(name, table, elapsed))
            print()
            for line in _write_artifacts(name, table, args):
                print(line)
            report_entries.append(
                _report_entry(name, table, elapsed, registry)
            )
            if capture_events:
                for event in registry.events:
                    events.append(dict(event, experiment=name))
                # One synthetic summary event per finished experiment so
                # 'report --follow' can render live counter tables from
                # the JSONL stream alone.
                events.append(
                    {
                        "event": "counters",
                        "experiment": name,
                        "counters": registry.snapshot()["counters"],
                    }
                )
    finally:
        runner_module.set_default_cache(previous)
        runner_module.set_default_fleet(previous_fleet)
        runner_module.set_default_cell_timeout(previous_timeout)
    _write_run_outputs(args, argv, report_entries, events)
    return 0


def _report_entry(name, table, elapsed, registry) -> dict:
    """One ``experiments[]`` entry of the repro-run/1 report."""
    meta = table.meta
    entry = {
        "name": name,
        "elapsed_seconds": round(elapsed, 6),
        "metrics": registry.snapshot(),
    }
    for key in (
        "cells",
        "jobs",
        "cells_per_second",
        "shard_cells",
        "deploy_cache_hits",
        "deploy_cache_misses",
        "cache_hits",
        "cache_misses",
    ):
        if key in meta:
            entry[key] = meta[key]
    return entry


def _write_run_outputs(args, argv, report_entries, events) -> None:
    from .obs import build_run_report, write_events_jsonl, write_report

    if args.metrics_out:
        path = write_report(
            build_run_report(report_entries, argv=argv), args.metrics_out
        )
        print(f"(run report written to {path})")
    if args.metrics_events:
        path = write_events_jsonl(events, args.metrics_events)
        print(f"(phase events written to {path})")


# ----------------------------------------------------------------------
# Management commands: list / cache / store
# ----------------------------------------------------------------------
def _build_tools_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ipda", description="Experiment-store management commands."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="print every registered spec with its cell count"
    )

    cache = sub.add_parser("cache", help="inspect or trim the cell store")
    cache_sub = cache.add_subparsers(dest="action", required=True)
    for action, help_text in (
        ("stats", "object count and bytes, total and per experiment"),
        ("gc", "evict least-recently-used objects down to the size cap"),
        ("clear", "delete every cached object"),
    ):
        action_parser = cache_sub.add_parser(action, help=help_text)
        action_parser.add_argument(
            "--cache-dir", metavar="DIR", default=None,
            help="cell-store location (default: $REPRO_CACHE_DIR "
                 "or ~/.cache/repro-store)",
        )
        if action == "gc":
            action_parser.add_argument(
                "--max-bytes", type=int, default=None,
                help="override the size cap for this collection",
            )

    store = sub.add_parser(
        "store", help="provenance operations on results/ artifacts"
    )
    store_sub = store.add_subparsers(dest="action", required=True)
    verify = store_sub.add_parser(
        "verify",
        help="prove an artifact is reproducible from the current tree",
    )
    verify.add_argument(
        "artifacts", nargs="+", metavar="ARTIFACT",
        help="artifact path(s) with .manifest.json sidecars",
    )

    fleet = sub.add_parser(
        "fleet",
        help="operate the crash-safe fleet work queue (see --queue)",
    )
    fleet_sub = fleet.add_subparsers(dest="action", required=True)
    worker = fleet_sub.add_parser(
        "worker",
        help=(
            "run one claim/run/publish worker loop against a queue; "
            "start any number on any host sharing the filesystem"
        ),
    )
    worker.add_argument(
        "--queue", metavar="DIR", required=True,
        help="queue directory (as passed to an experiment's --queue)",
    )
    worker.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="result store (default: <queue>/store)",
    )
    worker.add_argument(
        "--worker-id", metavar="ID", default=None,
        help="lease owner name (default: hostname:pid)",
    )
    worker.add_argument(
        "--max-cells", type=int, default=None, metavar="N",
        help="exit after completing N cells",
    )
    worker.add_argument(
        "--idle-exit", type=float, default=None, metavar="SECONDS",
        help=(
            "keep polling an empty queue this long before exiting "
            "(default: exit as soon as the queue is drained)"
        ),
    )
    worker.add_argument(
        "--cell-timeout", type=float, default=None, metavar="SECONDS",
        help=(
            "stop renewing a cell's lease after this long so the "
            "fleet can retry it elsewhere (soft timeout)"
        ),
    )
    worker.add_argument(
        "--lease-seconds", type=float, default=None, metavar="SECONDS",
        help="lease duration for claims made by this worker",
    )
    status = fleet_sub.add_parser(
        "status",
        help="queue counts, journal health, and the quarantine report",
    )
    status.add_argument(
        "--queue", metavar="DIR", required=True, help="queue directory"
    )
    status.add_argument(
        "--json", action="store_true",
        help="machine-readable status (used by the CI chaos gate)",
    )
    requeue = fleet_sub.add_parser(
        "requeue",
        help="move quarantined cells back to pending with a clean slate",
    )
    requeue.add_argument(
        "--queue", metavar="DIR", required=True, help="queue directory"
    )
    requeue.add_argument(
        "digests", nargs="*", metavar="DIGEST",
        help="specific cell digests (default: everything in quarantine)",
    )

    report = sub.add_parser(
        "report",
        help=(
            "pretty-print a run (repro-run/1), service bench "
            "(repro-serve/1), or privacy/tune (repro-privacy/1) report; "
            "--follow live-tails a --metrics-events JSONL instead"
        ),
    )
    report.add_argument(
        "path", metavar="REPORT",
        help=(
            "path to a report written with --metrics-out, serve/tune "
            "--output, or (with --follow) a --metrics-events JSONL file"
        ),
    )
    report.add_argument(
        "--json", action="store_true",
        help="dump the validated report as canonical JSON instead",
    )
    report.add_argument(
        "--follow", action="store_true",
        help=(
            "treat REPORT as a --metrics-events JSONL stream and "
            "live-tail it, re-rendering the counter/phase table on "
            "each flush (waits for the file to appear; Ctrl-C stops)"
        ),
    )
    report.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="poll interval for --follow (default: 0.5)",
    )
    report.add_argument(
        "--max-updates", type=int, default=None, metavar="N",
        help="stop --follow after N re-renders (default: follow forever)",
    )

    serve = sub.add_parser(
        "serve",
        help=(
            "long-running aggregation service over a persistent fleet; "
            "--bench runs the deterministic load generator"
        ),
    )
    serve.add_argument(
        "--bench", action="store_true",
        help="closed-loop virtual-time load generator (deterministic per "
             "seed); without it a live asyncio service handles the same "
             "load in wall time",
    )
    serve.add_argument(
        "--duration", type=float, default=10.0, metavar="SECONDS",
        help="service seconds of offered arrivals (default: 10)",
    )
    serve.add_argument(
        "--qps", type=float, default=50.0,
        help="target offered load, queries per service second (default: 50)",
    )
    serve.add_argument(
        "--seed", type=int, default=0,
        help="root seed for deployment, readings, and arrivals (default: 0)",
    )
    serve.add_argument(
        "--nodes", type=int, default=200,
        help="deployment size (default: 200, the paper deployment)",
    )
    serve.add_argument(
        "--slices", type=int, default=2,
        help="iPDA slicing factor l (default: 2)",
    )
    serve.add_argument(
        "--threshold", type=int, default=5,
        help="integrity threshold Th (default: 5)",
    )
    serve.add_argument(
        "--robust", action="store_true",
        help="loss-tolerant iPDA with the three-way accept/degrade/reject "
             "verdict (default: paper fire-and-forget)",
    )
    serve.add_argument(
        "--capacity", type=int, default=256,
        help="admission-queue high-water mark; submissions past it are "
             "rejected with backpressure (default: 256)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=64,
        help="most queries folded into one dispatch cycle (default: 64)",
    )
    serve.add_argument(
        "--epoch-seconds", type=float, default=0.5,
        help="service seconds one dispatch cycle costs (default: 0.5)",
    )
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-query deadline; queries older than this when their "
             "cycle starts come back 'expired' (default: none)",
    )
    serve.add_argument(
        "--mix", choices=sorted(_serve_mixes()), default="ipda",
        help="query mix: 'ipda' (pipelined-epoch perf mix) or 'mixed' "
             "(all lanes and kinds) (default: ipda)",
    )
    serve.add_argument(
        "--faults", metavar="SPEC", default=None,
        help="arm faults against the live service, scheduled by epoch: "
             "'crash=<n>@<epoch>[+<k>]' and/or 'loss=<light|heavy>"
             "[@<epoch>]', comma-separated (e.g. 'crash=2@3+4,loss=light')",
    )
    serve.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the repro-serve/1 report JSON here",
    )
    serve.add_argument(
        "--metrics-events", metavar="PATH", default=None,
        help="also write the phase/metric event stream as JSONL",
    )
    serve.add_argument(
        "--json", action="store_true",
        help="print the report as JSON instead of the summary",
    )

    tune = sub.add_parser(
        "tune",
        help=(
            "autotune (l, Th, key scheme, fan-out) for the cheapest "
            "configuration meeting a privacy/overhead/accuracy envelope"
        ),
    )
    tune.add_argument(
        "--min-privacy", type=float, default=0.0, metavar="SCORE",
        help="composite privacy score the winner must reach (default: 0)",
    )
    tune.add_argument(
        "--max-overhead", type=float, default=None, metavar="RATIO",
        help=(
            "cap on the per-node message overhead ratio vs TAG "
            "(the paper's (2l+1)/2 axis; default: unconstrained)"
        ),
    )
    tune.add_argument(
        "--max-accuracy-loss", type=float, default=None, metavar="LOSS",
        help="cap on 1 - mean collected/true (default: unconstrained)",
    )
    tune.add_argument(
        "--quick", action="store_true",
        help=(
            "4-configuration grid with small trial counts "
            "(CI smoke; seconds instead of minutes)"
        ),
    )
    tune.add_argument(
        "--nodes", type=int, default=200,
        help="deployment size (default: 200, the paper deployment)",
    )
    tune.add_argument("--seed", type=int, default=0, help="root seed")
    tune.add_argument(
        "--repetitions", type=int, default=1,
        help="terrain repetitions averaged per candidate (default: 1)",
    )
    tune.add_argument(
        "--jobs", "-j", type=int, default=None,
        help="worker processes (default: all cores)",
    )
    tune.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cell-store location (default: $REPRO_CACHE_DIR "
             "or ~/.cache/repro-store)",
    )
    tune.add_argument(
        "--no-cache", action="store_true",
        help=(
            "re-evaluate every candidate instead of reusing "
            "digest-matched evaluation cells from the store"
        ),
    )
    tune.add_argument(
        "--queue", metavar="DIR", default=None,
        help=(
            "shard candidate evaluations over a fleet work queue at DIR "
            "(see the experiment runner's --queue)"
        ),
    )
    tune.add_argument(
        "--output", metavar="PATH", default=None,
        help="write the repro-privacy/1 tune report JSON here",
    )
    tune.add_argument(
        "--json", action="store_true",
        help="print the report as JSON instead of the summary",
    )

    bench = sub.add_parser(
        "bench",
        help="run hot-path benchmarks, emit BENCH_*.json, gate regressions",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="shorter measurements (CI smoke); workload shape is unchanged",
    )
    bench.add_argument(
        "--only", action="append", metavar="NAME", default=None,
        help="run only this benchmark (repeatable; see --list)",
    )
    bench.add_argument(
        "--list", action="store_true", dest="list_benchmarks",
        help="list available benchmarks and exit",
    )
    bench.add_argument(
        "--repeats", type=int, default=None,
        help="best-of repeats per benchmark (default: 3, or 1 with --quick)",
    )
    bench.add_argument(
        "--output", metavar="PATH", default=None,
        help="report destination: a directory (default BENCH_<ts>.json name) "
             "or an explicit file path (default: current directory)",
    )
    bench.add_argument(
        "--no-write", action="store_true",
        help="do not write a report file (print + compare only)",
    )
    bench.add_argument(
        "--input", metavar="REPORT", default=None,
        help="compare an existing BENCH_*.json instead of running benchmarks",
    )
    bench.add_argument(
        "--compare", metavar="BASELINE", default=None,
        help="compare against this baseline report and gate on regressions",
    )
    bench.add_argument(
        "--fail-above", type=float, default=25.0, metavar="PCT",
        help="tolerated throughput drop in percent before the gate fails "
             "(default: 25)",
    )
    return parser


def _open_store(cache_dir: Optional[str]):
    from .store import CellStore

    root = os.path.expanduser(cache_dir) if cache_dir else None
    return CellStore(root)


def _format_bytes(count: int) -> str:
    value = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{int(count)} B"  # pragma: no cover - unreachable


def _tools_list() -> int:
    from .runner import available_experiments, get_spec

    names = available_experiments()
    width = max(len(name) for name in names)
    for name in names:
        spec = get_spec(name)
        count = len(spec.cells())
        description = spec.description or "(no description)"
        print(f"{name.ljust(width)}  {count:>5} cells  {description}")
    return 0


def _tools_cache(args) -> int:
    store = _open_store(args.cache_dir)
    if args.action == "stats":
        stats = store.stats()
        print(f"cache dir: {stats.root}")
        print(
            f"objects: {stats.objects} "
            f"({_format_bytes(stats.total_bytes)} of "
            f"{_format_bytes(stats.max_bytes)} cap)"
        )
        for name, (count, nbytes) in stats.per_experiment.items():
            print(f"  {name}: {count} objects, {_format_bytes(nbytes)}")
    elif args.action == "gc":
        evicted, freed = store.gc(args.max_bytes)
        print(
            f"evicted {evicted} object(s), freed {_format_bytes(freed)} "
            f"({store.root})"
        )
    elif args.action == "clear":
        removed = store.clear()
        print(f"removed {removed} object(s) ({store.root})")
    return 0


def _verify_store_root(path: str) -> None:
    """Index health check for a store-root directory argument.

    A crash during an index append leaves a torn final line; loading
    already tolerates it, and verify *repairs* it by rewriting the
    index from its surviving records.
    """
    from .store import CellStore

    store = CellStore(path)
    records, torn = store.verify_index(repair=True)
    if torn:
        print(
            f"{path}: index repaired — kept {records} record(s), "
            f"dropped {torn} torn line(s) (crash during append)"
        )
    else:
        print(f"{path}: index ok ({records} record(s))")


def _tools_store(args) -> int:
    from .store.manifest import verify_artifact

    failures = 0
    for artifact in args.artifacts:
        if os.path.isdir(artifact) and (
            os.path.exists(os.path.join(artifact, "index.jsonl"))
            or os.path.isdir(os.path.join(artifact, "objects"))
        ):
            _verify_store_root(artifact)
            continue
        problems = verify_artifact(artifact)
        if problems:
            failures += 1
            print(f"{artifact}: NOT reproducible from the current tree:")
            for problem in problems:
                print(f"  - {problem}")
        else:
            print(f"{artifact}: verified (digests match the current tree)")
    return 1 if failures else 0


def _tools_fleet(args) -> int:
    from .fleet import FleetQueue

    if args.action == "worker":
        import repro.fleet.chaos  # noqa: F401  (registers chaos-grid)
        from .fleet import run_worker
        from .store import CellStore

        kwargs = {}
        if args.lease_seconds is not None:
            kwargs["lease_seconds"] = args.lease_seconds
        queue = FleetQueue(args.queue, **kwargs)
        store_root = (
            os.path.expanduser(args.cache_dir)
            if args.cache_dir
            else os.path.join(queue.root, "store")
        )
        summary = run_worker(
            queue,
            CellStore(store_root),
            worker_id=args.worker_id,
            max_cells=args.max_cells,
            idle_timeout=args.idle_exit,
            stop_when_drained=args.idle_exit is None,
            cell_timeout=args.cell_timeout,
        )
        print(
            f"worker {summary.worker_id} stopped ({summary.stopped}): "
            f"{summary.cells_done} done, {summary.cells_failed} failed, "
            f"{summary.cells_lost} lost lease(s), "
            f"{summary.claims} claim(s)"
        )
        return 0
    queue = FleetQueue(args.queue)
    if args.action == "status":
        status = queue.status()
        if args.json:
            import json

            print(
                json.dumps(
                    {
                        "root": status.root,
                        "pending": status.pending,
                        "leased": status.leased,
                        "done": status.done,
                        "quarantined": status.quarantined,
                        "journal_entries": status.journal_entries,
                        "journal_torn_lines": status.journal_torn_lines,
                        "quarantine": status.quarantine,
                    },
                    indent=1,
                    sort_keys=True,
                )
            )
            return 0
        print(f"queue: {status.root}")
        print(
            f"pending {status.pending}  leased {status.leased}  "
            f"done {status.done}  quarantined {status.quarantined}"
        )
        journal = f"journal: {status.journal_entries} entries"
        if status.journal_torn_lines:
            journal += (
                f" ({status.journal_torn_lines} torn line(s) tolerated)"
            )
        print(journal)
        for record in status.quarantine:
            cell = record.get("cell", {})
            key = "/".join(str(part) for part in cell.get("key", ()))
            errors = record.get("errors", [])
            last = errors[-1] if errors else {}
            print(
                f"  quarantined {cell.get('experiment', '?')}[{key}"
                f"#{cell.get('rep', '?')}] "
                f"digest={str(record.get('digest', ''))[:12]} "
                f"attempts={record.get('attempts', '?')}: "
                f"{last.get('message', 'unknown error')}"
            )
        return 0
    # requeue
    restored = queue.requeue(args.digests or None)
    print(f"requeued {restored} cell(s) ({queue.root})")
    return 0


def _load_bench_report(path: str) -> dict:
    """Load ``path``, which ``repro bench`` needs to be a bench report."""
    from .obs import load_report
    from .perf import BENCH_SCHEMA

    report = load_report(path)
    if report["schema"] != BENCH_SCHEMA:
        raise ConfigurationError(
            f"{path!r} is not a {BENCH_SCHEMA} report "
            f"(schema={report['schema']!r})"
        )
    return report


def _tools_bench(args, argv: List[str]) -> int:
    from . import perf
    from .obs import render_report

    if args.list_benchmarks:
        descriptions = perf.benchmark_descriptions()
        width = max(len(name) for name in descriptions)
        for name, text in descriptions.items():
            print(f"{name.ljust(width)}  {text}")
        return 0
    repeats = args.repeats
    if repeats is None:
        repeats = 1 if args.quick else 3
    if args.input is not None:
        report = _load_bench_report(args.input)
    else:
        from .obs import MetricsRegistry, using_registry

        registry = MetricsRegistry()
        with using_registry(registry):
            results = perf.run_benchmarks(
                args.only, quick=args.quick, repeats=repeats,
                progress=lambda line: print(line, flush=True),
            )
        report = perf.build_report(
            results, quick=args.quick, repeats=repeats,
            metrics=registry.snapshot(), argv=argv,
        )
        if not args.no_write:
            path = perf.write_report(report, args.output)
            print(f"(report written to {path})")
    print(render_report(report))
    if args.compare is None:
        return 0
    baseline = _load_bench_report(args.compare)
    rows, unmatched, warnings = perf.compare_reports(
        report, baseline, fail_above=args.fail_above
    )
    print(
        perf.render_comparison(
            rows, unmatched, fail_above=args.fail_above, warnings=warnings
        )
    )
    return 1 if any(row.regressed for row in rows) else 0


def _tools_report(args) -> int:
    if args.follow:
        from .obs import follow_events

        try:
            follow_events(
                args.path,
                interval=args.interval,
                max_updates=args.max_updates,
            )
        except KeyboardInterrupt:
            pass
        return 0
    from .obs import load_report, render_report

    report = load_report(args.path)
    if args.json:
        import json

        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(render_report(report))
    return 0


def _tools_tune(args, argv: List[str]) -> int:
    from .obs import (
        MetricsRegistry,
        render_report,
        using_registry,
        write_report,
    )
    from .privacy import build_privacy_report
    from .tune import TuneTargets, autotune

    targets = TuneTargets(
        min_privacy=args.min_privacy,
        max_overhead=args.max_overhead,
        max_accuracy_loss=args.max_accuracy_loss,
    )
    # Candidate evaluations are digest-keyed cells, so the store is on
    # by default: an interrupted sweep resumes, a repeated sweep with
    # overlapping grids re-evaluates only the new candidates.
    store = None
    fleet_queue = None
    if args.queue:
        from .fleet import FleetQueue

        fleet_queue = FleetQueue(args.queue)
        if not args.no_cache and args.cache_dir is None:
            from .store import CellStore

            store = CellStore(os.path.join(fleet_queue.root, "store"))
    if store is None and not args.no_cache:
        store = _open_store(args.cache_dir)
    registry = MetricsRegistry()
    started = time.time()
    with using_registry(registry):
        outcome = autotune(
            targets=targets,
            quick=args.quick,
            node_count=args.nodes,
            seed=args.seed,
            repetitions=args.repetitions,
            jobs=args.jobs,
            cache=store,
            queue=fleet_queue,
        )
    elapsed = time.time() - started
    report = build_privacy_report(
        outcome.evaluations,
        targets=outcome.targets.to_jsonable(),
        frontier=outcome.frontier,
        winner=outcome.winner,
        baseline=outcome.baseline,
        dominating=outcome.dominating,
        cache={"hits": outcome.cache_hits, "misses": outcome.cache_misses},
        metrics=registry.snapshot(),
        argv=argv,
    )
    if args.json:
        import json

        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(render_report(report))
        print(
            f"({len(outcome.evaluations)} candidate(s) in {elapsed:.1f}s, "
            f"store {outcome.cache_hits}/{outcome.cache_misses} hit/miss)"
        )
    if args.output:
        path = write_report(report, args.output)
        print(f"(tune report written to {path})")
    if outcome.winner is None:
        print(
            "ipda: no configuration meets the target envelope "
            f"({len(outcome.feasible)} feasible of "
            f"{len(outcome.evaluations)})",
            file=sys.stderr,
        )
        return 1
    return 0


def _serve_mixes():
    from .serve.bench import MIXES

    return MIXES


def _tools_serve(args, argv: List[str]) -> int:
    from .obs import (
        MetricsRegistry,
        render_report,
        write_events_jsonl,
        write_report,
    )
    from .serve import BenchConfig, FleetConfig, ServiceConfig, run_bench

    bench = BenchConfig(
        duration=args.duration,
        qps=args.qps,
        seed=args.seed,
        mix=args.mix,
        deadline=args.deadline,
    )
    fleet_config = FleetConfig(
        node_count=args.nodes,
        seed=args.seed,
        slices=args.slices,
        threshold=args.threshold,
        robust=args.robust,
    )
    service_config = ServiceConfig(
        capacity=args.capacity,
        max_batch=args.max_batch,
        epoch_seconds=args.epoch_seconds,
    )
    registry = MetricsRegistry(capture_events=bool(args.metrics_events))
    if args.bench:
        report = run_bench(
            bench,
            fleet_config=fleet_config,
            service_config=service_config,
            fault_spec=args.faults,
            argv=argv,
            registry=registry,
        )
    else:
        report = _serve_live(
            bench, fleet_config, service_config, args.faults, registry, argv
        )
    if args.json:
        import json

        print(json.dumps(report, indent=1, sort_keys=True))
    else:
        print(render_report(report))
    if args.output:
        path = write_report(report, args.output)
        print(f"(serve report written to {path})")
    if args.metrics_events:
        path = write_events_jsonl(list(registry.events), args.metrics_events)
        print(f"(metric events written to {path})")
    return 0


def _serve_live(
    bench, fleet_config, service_config, fault_spec, registry, argv
):
    """Drive the asyncio service with the bench's arrival schedule.

    Same Poisson arrivals, but paced on the wall clock through the
    live :class:`~repro.serve.AggregationService`; the report's SLO
    figures are therefore real wall-time latencies and NOT expected to
    be deterministic across runs.
    """
    import asyncio

    from .errors import ServiceOverloadError
    from .obs import using_registry
    from .serve import (
        AggregationQuery,
        AggregationService,
        ServiceCore,
        ServiceFaultSchedule,
        build_serve_report,
        parse_fault_spec,
    )
    from .serve.bench import arrival_schedule

    faults = (
        parse_fault_spec(fault_spec) if fault_spec else ServiceFaultSchedule()
    )
    schedule = arrival_schedule(bench)
    results: List[object] = []
    rejected = 0

    async def drive():
        nonlocal rejected
        core = ServiceCore(
            config=service_config, fleet_config=fleet_config, faults=faults
        )
        wall_start = time.perf_counter()
        async with AggregationService(core) as service:
            construction_wall = time.perf_counter() - wall_start
            loop = asyncio.get_running_loop()
            epoch_zero = loop.time()

            async def submit_at(offset, kind, protocol, deadline):
                nonlocal rejected
                await asyncio.sleep(
                    max(0.0, epoch_zero + offset - loop.time())
                )
                query = AggregationQuery(
                    kind, protocol=protocol, deadline_seconds=deadline
                )
                try:
                    results.append(await service.submit(query))
                except ServiceOverloadError:
                    rejected += 1

            serve_start = time.perf_counter()
            await asyncio.gather(
                *(submit_at(*arrival) for arrival in schedule)
            )
        return core, construction_wall, time.perf_counter() - serve_start

    with using_registry(registry):
        core, construction_wall, serve_wall = asyncio.run(drive())
    return build_serve_report(
        bench,
        fleet_config,
        service_config,
        results=results,
        rejected=rejected,
        offered=len(schedule),
        snapshot=registry.snapshot(),
        construction_bytes=core.fleet.construction_bytes,
        epochs_served=core.fleet.epoch,
        construction_wall=construction_wall,
        serve_wall=serve_wall,
        fault_spec=fault_spec,
        argv=argv,
    )


def _tools_main(argv: List[str]) -> int:
    args = _build_tools_parser().parse_args(argv)
    if args.command == "list":
        return _tools_list()
    if args.command == "cache":
        return _tools_cache(args)
    if args.command == "bench":
        return _tools_bench(args, argv)
    if args.command == "fleet":
        return _tools_fleet(args)
    if args.command == "report":
        return _tools_report(args)
    if args.command == "serve":
        return _tools_serve(args, argv)
    if args.command == "tune":
        return _tools_tune(args, argv)
    return _tools_store(args)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        if argv and argv[0] in TOOL_COMMANDS:
            return _tools_main(argv)
        return _experiment_main(_build_parser().parse_args(argv), argv)
    except ReproError as error:
        print(f"ipda: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
