"""Run one workload of the repository benchmark and print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload ipda-round-600 --seed 0 \\
        --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it carries the run's details (``outputs_sha256``, the tail percentile,
raw timings, any failed checks).  Without a ``src/repro`` tree next to
this directory the run exits with status 2 and prints no result.

Timings are scaled to a reference host speed.  The host this benchmark
was defined on drifts by up to twofold over minutes, so every op time
and every set-up time is multiplied by ``RefClock.NOMINAL_S / t_ref``,
where ``t_ref`` is the time of a fixed pure-Python reference load
measured around the op or set-up.  The raw timings are printed on the
details line.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

#: fresh processes timed from spawn to their first op, per run
SETUP_PROBES = 9
#: the measured loop stops here even if the deterministic prefix is
#: unfinished, so that a run always exits within 180 s
HARD_STOP_S = 150.0
#: ops whose raw spans are written out by a traced run
SPAN_OPS = 2


class _Cell:
    """A node of the reference event loop."""

    __slots__ = ("value", "seen", "peers")

    def __init__(self, value: int):
        self.value = value
        self.seen = {}
        self.peers = []

    def hit(self, sender: int, amount: int) -> int:
        self.value += amount
        self.seen[sender] = self.seen.get(sender, 0) + 1
        return self.value & 7


class RefClock:
    """A fixed reference load whose duration tracks the host's speed.

    A sample is a weighted geometric mean of three loops: one bound by
    the interpreter (small objects that stay in cache, weight 1/4), one
    bound by memory latency (random lookups in a ~50 MB dict, 1/4), and
    a small event loop of method calls through a heap (1/2).  Over
    minutes of host drift, window medians of op time divided by this
    blend spread about half as much on serve-chaos-200 as with the
    first two loops alone, and no more on ipda-round-600.

    The dict holds only tuples of atomic values, so the first full
    collection stops tracking it: the workload's own garbage-collector
    passes never traverse the reference table.
    """

    #: sample time that defines the scaled timings (about the median
    #: on the 2-CPU host where the benchmark was defined)
    NOMINAL_S = 0.0031

    def __init__(self, entries: int = 200_000, lookups: int = 8_000,
                 steps: int = 6_000, events: int = 1_000):
        rng = random.Random(20131)
        self._table = {i: (i, str(i), float(i)) for i in range(entries)}
        gc.collect()
        keys = list(self._table)
        rng.shuffle(keys)
        self._keys = keys[:lookups]
        self._steps = range(steps)
        self._cells = [_Cell(i) for i in range(256)]
        for i, cell in enumerate(self._cells):
            cell.peers = [self._cells[(i * 7 + k) % 256] for k in range(5)]
        self._events = [
            ((i * 7919) % 1000 / 1000.0, i, self._cells[i & 255])
            for i in range(events)
        ]

    def sample(self) -> float:
        perf = time.perf_counter
        start = perf()
        recent = {}
        total = 0
        for i in self._steps:
            item = (i, i * 3, str(i))
            recent[i & 1023] = item
            total += len(item[2]) + i % 7
        tight = perf()
        table = self._table
        for key in self._keys:
            entry = table[key]
            total += entry[0] + len(entry[1])
        lookups = perf()
        heap = []
        for at, i, cell in self._events:
            heapq.heappush(heap, [at, i, cell])
        while heap:
            _at, i, cell = heapq.heappop(heap)
            for peer in cell.peers:
                total += peer.hit(cell.value & 255, i & 3)
        for i, cell in enumerate(self._cells):
            cell.value = i
            cell.seen.clear()
        end = perf()
        return (
            ((tight - start) * (lookups - tight)) ** 0.25
            * math.sqrt(end - lookups)
        )

    def factor(self, before: float, after: float) -> float:
        """Scale for an op timed between samples ``before`` and ``after``.

        An op is scaled by the mean of the two samples around it.  The
        host's slow spells last from a fraction of a second to minutes,
        and the slowest ops of a run fall in the short ones, which a
        wider window of samples would dilute.
        """
        return 2.0 * self.NOMINAL_S / (before + after)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe", choices=("setup", "rss"), default=None,
        help=argparse.SUPPRESS,
    )
    parser.add_argument(
        "--spawned-at", type=float, default=None, help=argparse.SUPPRESS
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# ----------------------------------------------------------------------
# Probes: each a fresh process that ran only this workload
# ----------------------------------------------------------------------
def probe(args, workloads) -> int:
    """Child side: set up and report the set-up time; an ``rss`` probe
    then runs the workload's ``probe_ops`` and reports its peak RSS."""
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    index = 0
    while args.probe == "rss" and index < workload.probe_ops:
        prepared = workload.prepare(index)
        workload.check(index, prepared, workload.run(prepared))
        index += 1
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}))
    return 0


def peak_rss_mb() -> float:
    """This process image's peak RSS.

    ``VmHWM`` restarts at ``exec``; ``ru_maxrss`` would also carry the
    parent's high-water mark across the fork.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def spawn_probe(args, kind: str) -> dict:
    """Parent side: run one probe process and return what it reported."""
    command = [
        sys.executable, os.path.abspath(__file__), "--probe", kind,
        "--workload", args.workload, "--seed", str(args.seed),
        "--spawned-at", repr(time.monotonic()),
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    if done.returncode != 0:
        raise RuntimeError(f"{kind} probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class SetupProbes:
    """Set-up time from fresh processes spread through the measured loop.

    Each probe is timed from spawn to its first op.  Spread evenly
    through the loop's window, the probes see the same drift of the
    host as the ops, and each is scaled like an op by the reference
    samples around it: the median of three taken right before it, three
    right after, and those the loop took within ``WINDOW_S`` of it.  One
    pair of samples, as an op gets, is too noisy for a single 0.3-0.6 s
    set-up, and the first samples after a probe run slow on the caches
    the child process left cold.
    """

    #: seconds around a probe whose loop samples also scale it
    WINDOW_S = 1.0

    def __init__(self, args, count: int = SETUP_PROBES) -> None:
        self._args = args
        self.count = count
        self.raw_s = []
        #: (spawned, ended, own reference samples) per probe
        self._probes = []
        #: wall seconds spent probing, which the loop adds to its window
        self.spent = 0.0

    def due(self, fraction: float) -> bool:
        """Whether a probe is due ``fraction`` of the way through."""
        done = len(self.raw_s)
        return done < self.count and fraction >= done / self.count

    def run(self, clock: RefClock) -> None:
        start = time.perf_counter()
        samples = [clock.sample() for _ in range(3)]
        spawned = time.perf_counter()
        self.raw_s.append(spawn_probe(self._args, "setup")["setup_s"])
        ended = time.perf_counter()
        samples += [clock.sample() for _ in range(3)]
        self._probes.append((spawned, ended, samples))
        self.spent += time.perf_counter() - start

    def setup_s(self, ref):
        """Scaled set-up times, given the loop's ``(time, sample)``s."""
        scaled = []
        for raw, (spawned, ended, samples) in zip(self.raw_s, self._probes):
            near = [
                sample for at, sample in ref
                if spawned - self.WINDOW_S <= at <= ended + self.WINDOW_S
            ]
            scaled.append(
                raw * RefClock.NOMINAL_S / statistics.median(samples + near)
            )
        return scaled


# ----------------------------------------------------------------------
# The measured closed loop
# ----------------------------------------------------------------------
class Measurement:
    def __init__(self) -> None:
        self.op_ms = []  # scaled
        self.raw_ms = []
        self.ref = []  # (time, reference sample)
        self.results = []
        self.records = []
        self.untraced_ms = []
        self.traced_ms = []
        self.traces = []  # (factor, OpTrace)


def measure(workload, clock: RefClock, seconds: float, tracer=None,
            probes=None):
    """Run ops back to back for ``seconds`` (and at least the prefix).

    With a tracer, odd ops are traced and even ops are not, so that the
    tracing overhead is measured on the same host state.  The wrappers
    are in place while any op is prepared: a ``Network`` built there,
    such as a fresh service's, binds its delivery hooks for good.

    ``probes`` (:class:`SetupProbes`) run between ops when due; the
    window is extended by the time they take.
    """
    out = Measurement()
    perf = time.perf_counter

    def sample():
        value = clock.sample()
        out.ref.append((perf(), value))
        return value

    start = perf()
    hard_stop = start + HARD_STOP_S
    before = sample()
    durations, factors, traces = [], [], {}
    index = 0
    while perf() < hard_stop:
        elapsed = perf() - start - (probes.spent if probes else 0.0)
        if probes is not None and probes.due(elapsed / seconds):
            probes.run(clock)
            before = sample()
            continue
        if index >= workload.digest_ops and elapsed >= seconds:
            break
        if tracer is not None:
            tracer.install()
        prepared = workload.prepare(index)
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.begin_op(index)
        elif tracer is not None:
            tracer.uninstall()
        t0 = perf()
        output = workload.run(prepared)
        t1 = perf()
        if traced:
            traces[index] = tracer.end_op()
            tracer.uninstall()
        after = sample()
        durations.append(t1 - t0)
        factors.append(clock.factor(before, after))
        before = after
        result = workload.check(index, prepared, output)
        out.results.append(result)
        if index < workload.digest_ops:
            out.records.append(result.record)
        index += 1
    while probes is not None and probes.due(1.0):  # cut by the hard stop
        probes.run(clock)
    for index, (duration, factor) in enumerate(zip(durations, factors)):
        scaled = duration * 1e3 * factor
        out.op_ms.append(scaled)
        out.raw_ms.append(duration * 1e3)
        if index in traces:
            out.traced_ms.append(scaled)
            out.traces.append((factor, traces[index]))
        elif tracer is not None:
            out.untraced_ms.append(scaled)
    return out


def tail(values):
    """Highest percentile with at least ten values beyond it.

    Returns ``(value, percentile, count beyond)``; with ten values or
    fewer there is no such percentile and the maximum is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def defined_mean(values) -> float:
    """Mean of the values that are not None (NaN when none is)."""
    values = [value for value in values if value is not None]
    return statistics.mean(values) if values else math.nan


def end_to_end(workload, out: Measurement, probes: SetupProbes, peak):
    prefix = out.results[: workload.digest_ops]
    op_tail, percentile, beyond = tail(out.op_ms)
    queries = sum(result.queries for result in out.results)
    metrics = {
        "setup_s": statistics.median(probes.setup_s(out.ref)),
        "op_ms_p50": statistics.median(out.op_ms),
        "op_ms_tail": op_tail,
        "queries_per_s": queries / (sum(out.op_ms) / 1e3),
        "peak_rss_mb": peak,
        "sim_bytes_per_node": defined_mean(r.bytes_per_node for r in prefix),
        "sim_accuracy": defined_mean(r.accuracy for r in prefix),
    }
    details = {
        "op_ms_tail_percentile": percentile,
        "op_ms_tail_ops_beyond": beyond,
        "raw_setup_s": probes.raw_s,
    }
    return metrics, details


def emit(spec_metrics, values, *, correct, attempted, failed):
    metrics = {}
    for entry in spec_metrics:
        value = float(values[entry["name"]])
        if not math.isfinite(value):
            raise ValueError(f"metric {entry['name']} is {value}")
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(
            f"perfbench: no repro source tree at {SRC}; run it from the "
            "root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; choose from "
            f"{sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.probe is not None:
        return probe(args, workloads)

    spec = load_spec()
    clock = RefClock()
    cls = workloads.WORKLOADS[args.workload]
    tracer = probes = None
    if args.trace:
        import spans

        tracer = spans.Tracer(keep_ops=SPAN_OPS)
        # Networks bind their delivery hooks when built: build the
        # workload's long-lived ones with the wrappers in place.
        tracer.install()
        workload = cls(args.seed)
        tracer.uninstall()
    else:
        peak = spawn_probe(args, "rss")["peak_rss_mb"]
        probes = SetupProbes(args)
        workload = cls(args.seed)
    out = measure(workload, clock, args.seconds, tracer, probes)

    problems = [p for result in out.results for p in result.problems]
    if len(out.records) < workload.digest_ops:
        problems.append(
            f"the deterministic prefix was cut by the hard stop after "
            f"{len(out.records)} ops"
        )
    attempted = sum(result.attempted for result in out.results)
    failed = sum(result.failed for result in out.results)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "outputs_sha256": workload.digest(out.records),
        "digest_ops": workload.digest_ops,
        "ops": len(out.op_ms),
        "failed_frac": failed / attempted,
        "raw_op_ms_p50": statistics.median(out.raw_ms),
        "ref_ms_p50": statistics.median(s for _, s in out.ref) * 1e3,
        "problems": problems[:10],
    }
    if tracer is None:
        values, extra = end_to_end(workload, out, probes, peak)
        details.update(extra)
        spec_metrics = spec["end_to_end"]
    else:
        values = spans.layer_metrics(
            out.traces, out.traced_ms, out.untraced_ms
        )
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"spans-{args.workload}.npz")
        tracer.spans.write(path)
        details["untraced_targets"] = tracer.missing
        details["traced_ops"] = len(out.traces)
        details["tracer_ms_per_op"] = statistics.mean(
            trace.tracer_s * 1e3 * factor for factor, trace in out.traces
        )
        details["spans_file"] = os.path.relpath(path, ROOT)
        spec_metrics = spec["per_layer"]
    print(json.dumps(details))
    emit(
        spec_metrics,
        values,
        correct=not problems,
        attempted=attempted,
        failed=failed,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
