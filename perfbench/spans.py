"""Per-layer spans for the traced benchmark run.

The tracer wraps the entry points of each layer of ``repro`` from the
outside, at run time: class attributes are replaced on the class that
defines them, and module functions in every loaded ``repro`` module
that bound them by name.  Wrappers pass straight through unless an op
is being traced.

Each span has a layer, a start, an end, a parent span and an op id.
Self time is a span's duration minus the spans directly inside it, and
it accumulates per layer while the op runs.  The op's own root span
takes whatever no layer claimed: its self time is the unattributed
remainder, so the layers' self times plus that remainder add up to the
op's wall time.  Counts are taken inside the same wrappers.  The raw
spans of the first few traced ops stay in memory and are written out
once, when the run ends.

``Network`` hands the radio bound methods when it is built, so the
wrappers must be installed before any ``Network`` whose hooks should
be traced is constructed.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import statistics
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Layer names; index 0 is the op's own root span.
LAYERS: Tuple[str, ...] = (
    "unattributed",
    "sim.engine",
    "sim.radio",
    "sim.mac",
    "sim.network",
    "protocols",
    "crypto.keys",
    "crypto.cipher",
    "core.slicing",
    "sim.trace",
    "faults",
    "obs",
    "serve",
    "core.pipeline",
    "core.trees",
    "privacy",
    "store.digest",
    "runner",
    "net.topology",
)
LAYER_ID: Dict[str, int] = {name: index for index, name in enumerate(LAYERS)}
ROOT = LAYER_ID["unattributed"]

#: Module prefix -> layer, for engine callbacks (a callback is spanned
#: under the layer of the module that defines it).  First match wins.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.engine", "sim.engine"),
    ("repro.sim.radio", "sim.radio"),
    ("repro.sim.mac", "sim.mac"),
    ("repro.sim.network", "sim.network"),
    ("repro.sim.node", "sim.network"),
    ("repro.sim.trace", "sim.trace"),
    ("repro.protocols", "protocols"),
    ("repro.crypto.keys", "crypto.keys"),
    ("repro.crypto", "crypto.cipher"),
    ("repro.core.slicing", "core.slicing"),
    ("repro.core.pipeline", "core.pipeline"),
    ("repro.core.trees", "core.trees"),
    ("repro.faults", "faults"),
    ("repro.obs", "obs"),
    ("repro.serve", "serve"),
    ("repro.privacy", "privacy"),
    ("repro.attacks", "privacy"),
    ("repro.store", "store.digest"),
    ("repro.runner", "runner"),
    ("repro.net", "net.topology"),
)


def module_layer(module: Optional[str]) -> int:
    """Layer id of the code defined in ``module`` (root when unknown)."""
    if module:
        for prefix, layer in MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return LAYER_ID[layer]
    return ROOT


# ----------------------------------------------------------------------
# Counting hooks: hook(counts, args, result), called after a call that
# is not nested inside another call of the same layer.
# ----------------------------------------------------------------------
def _count(key: str, size: Optional[Callable] = None) -> Callable:
    if size is None:

        def hook(counts, args, result):
            counts[key] += 1

    else:

        def hook(counts, args, result):
            counts[key] += size(args)

    return hook


def _count_frame(counts, args, result):
    radio, message = args[0], args[1]
    counts["sim.radio.frames"] += 1
    counts["sim.radio.receptions"] += len(radio.topology.neighbors(message.src))


def _count_loss(counts, args, result):
    counts["faults.loss_draws"] += 1
    if result:
        counts["faults.losses"] += 1


def _count_verdict(counts, args, result):
    counts["protocols.verdicts"] += 1
    verification = getattr(result, "verification", None)
    if verification is not None and verification.outcome == "degraded":
        counts["protocols.degraded"] += 1


def _count_dispatch(counts, args, result):
    counts["serve.dispatches"] += 1
    counts["serve.batch"] += len(result)


_ALWAYS = object()  # marks hooks that also count nested calls

#: (layer, "module[:Class]", attribute, hook).  A missing target is
#: skipped, so a refactor that removes an entry point does not break
#: the run; it is listed in ``Tracer.missing``, which the traced run
#: prints, because its time then counts toward the calling layer.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("sim.engine", "repro.sim.engine:EventEngine", "run", None),
    ("sim.radio", "repro.sim.radio:RadioMedium", "transmit", _count_frame),
    ("sim.mac", "repro.sim.mac:CsmaMac", "send", _count("sim.mac.sends")),
    ("sim.mac", "repro.sim.mac:CsmaMac", "transmission_result", None),
    ("sim.network", "repro.sim.network:Network", "__init__", None),
    ("sim.network", "repro.sim.network:Network", "_deliver",
     _count("sim.network.deliveries")),
    ("sim.network", "repro.sim.network:Network", "_node_alive", None),
    ("sim.network", "repro.sim.network:Network", "_notify_sender", None),
    ("sim.network", "repro.sim.node:Node", "deliver", None),
    ("faults", "repro.sim.network:Network", "kill_node", None),
    ("faults", "repro.sim.network:Network", "revive_node", None),
    ("obs", "repro.sim.network:Network", "_harvest_metrics", None),
    ("protocols", "repro.protocols.ipda:_IpdaNode", "on_receive",
     _count("protocols.handler_calls")),
    ("protocols", "repro.protocols.ipda:_IpdaNode", "begin_slicing", None),
    ("protocols", "repro.protocols.ipda:_IpdaNode", "_report", None),
    ("protocols", "repro.protocols.ipda:IpdaProtocol", "run_round",
     _count_verdict),
    ("protocols", "repro.protocols.epochs:EpochedIpdaSession", "run_epoch",
     _count_verdict),
    ("crypto.keys", "repro.crypto.keys:KeyManagementScheme",
     "can_communicate", None),
    ("crypto.keys", "repro.crypto.keys:PairwiseKeyScheme", "link_key", None),
    ("crypto.keys", "repro.crypto.keys:PairwiseKeyScheme", "key_holders", None),
    ("crypto.keys", "repro.crypto.keys:GlobalKeyScheme", "link_key", None),
    ("crypto.keys", "repro.crypto.keys:GlobalKeyScheme", "key_holders", None),
    ("crypto.keys", "repro.crypto.keys:RandomPredistributionScheme",
     "link_key", None),
    ("crypto.keys", "repro.crypto.keys:RandomPredistributionScheme",
     "key_holders", None),
    ("crypto.cipher", "repro.crypto.envelope", "seal",
     _count("crypto.cipher.items")),
    ("crypto.cipher", "repro.crypto.envelope", "seal_batch",
     _count("crypto.cipher.items", lambda args: len(args[0]))),
    ("crypto.cipher", "repro.crypto.envelope", "open_sealed",
     _count("crypto.cipher.items")),
    ("crypto.cipher", "repro.crypto.cipher", "xor_encrypt",
     _count("crypto.cipher.items")),
    ("crypto.cipher", "repro.crypto.cipher", "xor_encrypt_batch",
     _count("crypto.cipher.items", lambda args: len(args[0]))),
    ("core.slicing", "repro.core.slicing", "plan_slices",
     _count("core.slicing.plans")),
    ("core.slicing", "repro.core.slicing", "schedule_fanout", None),
    ("core.slicing", "repro.core.slicing", "slice_value", None),
    ("core.slicing", "repro.core.slicing:SliceAssembler", "keep", None),
    ("core.slicing", "repro.core.slicing:SliceAssembler", "receive", None),
    ("core.slicing", "repro.core.slicing:SliceAssembler", "assembled_value",
     None),
    ("sim.trace", "repro.sim.trace:TraceCollector", "record_send",
     _count("sim.trace.records")),
    ("sim.trace", "repro.sim.trace:TraceCollector", "record_delivery",
     _count("sim.trace.records")),
    ("sim.trace", "repro.sim.trace:TraceCollector", "record_delivery_batch",
     _count("sim.trace.records")),
    ("sim.trace", "repro.sim.trace:TraceCollector", "record_drop",
     _count("sim.trace.records")),
    ("sim.trace", "repro.sim.trace:TraceCollector", "record_drop_batch",
     _count("sim.trace.records")),
    ("sim.trace", "repro.sim.trace:TraceCollector", "record_fault",
     _count("sim.trace.records")),
    ("sim.trace", "repro.sim.trace:TraceCollector", "summary", None),
    ("sim.trace", "repro.sim.trace:TraceCollector", "begin_round", None),
    ("sim.trace", "repro.sim.trace:TraceCollector", "round_summary", None),
    ("faults", "repro.faults.channel:GilbertElliottChannel", "__call__",
     _count_loss),
    ("faults", "repro.faults.injector:FaultInjector", "arm", None),
    ("obs", "repro.obs.registry:MetricsRegistry", "inc", _count("obs.calls")),
    ("obs", "repro.obs.registry:MetricsRegistry", "observe",
     _count("obs.calls")),
    ("obs", "repro.obs.registry:MetricsRegistry", "gauge", _count("obs.calls")),
    ("obs", "repro.obs.registry:MetricsRegistry", "phase_timer",
     _count("obs.calls")),
    ("obs", "repro.obs.registry:MetricsRegistry", "merge", _count("obs.calls")),
    ("serve", "repro.serve.service:ServiceCore", "submit", None),
    ("serve", "repro.serve.service:ServiceCore", "dispatch", _count_dispatch),
    ("serve", "repro.serve.fleet:ServiceFleet", "serve_cycle", None),
    ("core.pipeline", "repro.core.pipeline", "run_lossless_round",
     _count("core.pipeline.rounds")),
    ("core.trees", "repro.core.trees", "build_disjoint_trees", None),
    ("privacy", "repro.privacy.evaluate", "evaluate_privacy", None),
    ("privacy", "repro.attacks.eavesdropper:LinkEavesdropper",
     "monte_carlo_disclosure", None),
    ("privacy", "repro.attacks.collusion", "coalition_disclosure", None),
    ("privacy", "repro.attacks.collusion", "random_coalition", None),
    ("store.digest", "repro.store.digest", "spec_fingerprint", None),
    ("store.digest", "repro.store.digest", "cell_digest", None),
    ("runner", "repro.runner", "execute", None),
    ("net.topology", "repro.net.topology", "random_deployment", _ALWAYS),
    ("net.topology", "repro.experiments.common", "cached_deployment", None),
)

#: Key-scheme calls whose link is tracked for ``crypto.keys.repeat_frac``.
_LINK_CALLS = ("link_key", "key_holders", "can_communicate")
#: Engine scheduling entry points whose callbacks get spans.
_SCHEDULERS = ("schedule", "post")
#: Modules the workloads never reach (plotting, the command line).
_SKIP_MODULES = ("repro.viz", "repro.cli", "repro.__main__")


class SpanLog:
    """Raw spans, columnar: layer, start, end, span id, parent id, op."""

    def __init__(self) -> None:
        self.layer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.span = array("q")
        self.parent = array("q")
        self.op = array("q")

    def __len__(self) -> int:
        return len(self.layer)

    def write(self, path: str) -> None:
        import numpy as np

        np.savez(
            path,
            layers=np.array(LAYERS),
            layer=np.frombuffer(self.layer, dtype=np.int8),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            span=np.frombuffer(self.span, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
        )


class OpTrace:
    """What one traced op did: wall time, self time per layer, counts.

    ``tracer_s`` is the tracer's own estimated cost inside the op, so
    ``sum(self_s) + tracer_s == wall_s``; ``self_s[ROOT]`` is the
    unattributed remainder.
    """

    def __init__(self, wall_s, self_s, counts, tracer_s):
        self.wall_s = wall_s
        self.self_s = self_s
        self.counts = counts
        self.tracer_s = tracer_s


def _noop(_arg):
    return None


#: the layer the calibration probe is spanned under (any non-root one)
_PROBE_LAYER = LAYER_ID["sim.engine"]


class Tracer:
    """Installs the layer wrappers and accumulates one op at a time.

    Wrapper code runs partly outside the clock reads of its own span,
    where it would inflate the parent's self time, and partly inside.
    Before each op both per-span costs are calibrated on a no-op and
    moved out of the layers into ``OpTrace.tracer_s``.
    """

    def __init__(self, *, keep_ops: int = 2) -> None:
        self.active = False
        # Persistent containers: the wrappers close over them.
        self.stack: List[list] = []
        self.self_s: List[float] = [0.0] * len(LAYERS)
        self.counts: Dict[str, float] = defaultdict(int)
        self.links: set = set()
        self.span_ids = itertools.count()
        #: the tracer's own time inside the current op
        self.overhead = 0.0
        self.cost_in = 0.0
        self.cost_out = 0.0
        self.op_id = -1
        self.log: Optional[SpanLog] = None
        self.spans = SpanLog()
        self.keep_ops = keep_ops
        self._kept = 0
        self._callback_layers: Dict[Optional[str], int] = {}
        #: (id(owner), attribute) -> [owner, attribute, original, wrapper]
        self._patches: Dict[Tuple[int, str], list] = {}
        #: entry points that could not be found, so are not spanned
        self.missing: List[str] = []
        self._probe = self._span_wrapper(_PROBE_LAYER, _noop)
        self._resolve()

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _resolve(self) -> None:
        """Import the target modules and build every wrapper once.

        Every ``repro`` module is imported first, so that each module
        binding a target function by name is patched as well.
        """
        import repro

        for info in pkgutil.walk_packages(repro.__path__, "repro."):
            if not info.name.startswith(_SKIP_MODULES):
                importlib.import_module(info.name)
        for layer, owner, attribute, hook in TARGETS:
            module_name, _, class_name = owner.partition(":")
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{owner}.{attribute}")
                continue
            if class_name:
                cls = getattr(module, class_name, None)
                if cls is None:
                    self.missing.append(f"{owner}.{attribute}")
                    continue
                self._wrap(cls, attribute, functools.partial(
                    self._span_wrapper, LAYER_ID[layer], hook=hook,
                    link=attribute in _LINK_CALLS,
                ))
                continue
            original = getattr(module, attribute, None)
            if not callable(original):
                self.missing.append(f"{owner}.{attribute}")
                continue
            wrapper = self._span_wrapper(LAYER_ID[layer], original, hook)
            for name, bound in list(sys.modules.items()):
                if bound is None or not name.startswith("repro"):
                    continue
                for key, value in list(vars(bound).items()):
                    if value is original:
                        self._wrap(bound, key, lambda _fn: wrapper)
        engine = importlib.import_module("repro.sim.engine")
        for name in _SCHEDULERS:
            self._wrap(engine.EventEngine, name, functools.partial(
                self._scheduler_wrapper, count_events=True
            ))
        self._wrap(engine.ScheduledEvent, "cancel", self._cancel_wrapper)
        node = importlib.import_module("repro.sim.node")
        self._wrap(node.Node, "schedule", functools.partial(
            self._scheduler_wrapper, count_events=False
        ))
        mac = importlib.import_module("repro.sim.mac")
        for name in ("_attempt", "transmission_result"):
            self._wrap(mac.CsmaMac, name, self._mac_counter)
        ipda = importlib.import_module("repro.protocols.ipda")
        for name in ("_slice_timeout", "_report_timeout"):
            self._wrap(ipda._IpdaNode, name, self._retry_counter)

    def _wrap(self, owner, attribute: str, make) -> None:
        """Queue ``owner.attribute = make(current)``.

        ``current`` is the attribute's own value, or the wrapper already
        queued for it, so wrappers stack.  An attribute that the owner
        does not define itself is skipped and listed in ``missing``.
        """
        key = (id(owner), attribute)
        entry = self._patches.get(key)
        if entry is None:
            original = vars(owner).get(attribute)
            if not callable(original):
                where = owner.__name__  # a module, or a class below
                if isinstance(owner, type):
                    where = f"{owner.__module__}:{owner.__qualname__}"
                self.missing.append(f"{where}.{attribute}")
                return
            entry = self._patches[key] = [owner, attribute, original, original]
        entry[3] = make(entry[3])

    def install(self) -> None:
        for owner, attribute, _original, wrapper in self._patches.values():
            setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        for owner, attribute, original, _wrapper in self._patches.values():
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Op boundaries
    # ------------------------------------------------------------------
    def _open_root(self, op_id: int, log: Optional[SpanLog]) -> list:
        self.self_s[:] = [0.0] * len(LAYERS)
        self.counts.clear()
        self.links.clear()
        self.overhead = 0.0
        self.op_id = op_id
        self.log = log
        root = [0.0, 0.0, next(self.span_ids), ROOT]
        self.stack[:] = [root]
        self.active = True
        return root

    def calibrate(self, calls: int = 2000) -> None:
        """Measure the per-span tracer cost the wrappers cannot time.

        The wrappers time their own bookkeeping; what is left is the
        call into the wrapper and its return (outside the span, charged
        to the parent) and the few steps between the span's clock reads
        and the wrapped call (inside it).  Both are measured here on a
        no-op.
        """
        keep = self._kept < self.keep_ops
        self.cost_in = self.cost_out = 0.0
        perf = time.perf_counter
        probe = self._probe
        loop = range(calls)
        start = perf()
        for _ in loop:
            _noop(None)
        plain = perf() - start
        root = self._open_root(-1, SpanLog() if keep else None)
        start = perf()
        for _ in loop:
            probe(None)
        traced = perf() - start
        self.active = False
        self.cost_out = max((traced - root[1] - plain) / calls, 0.0)
        self.cost_in = max(self.self_s[_PROBE_LAYER] / calls, 0.0)
        self.overhead = 0.0

    def begin_op(self, op_id: int) -> None:
        self.calibrate()
        keep = self._kept < self.keep_ops
        root = self._open_root(op_id, self.spans if keep else None)
        root[0] = time.perf_counter()

    def end_op(self) -> OpTrace:
        end = time.perf_counter()
        self.active = False
        start, child, span, _layer = self.stack.pop()
        self.self_s[ROOT] += (end - start) - child
        if self.log is not None:
            self._log(ROOT, start, end, span, -1)
            self._kept += 1
            self.log = None
        return OpTrace(
            end - start, list(self.self_s), dict(self.counts), self.overhead
        )

    def _log(self, layer, start, end, span, parent) -> None:
        log = self.log
        log.layer.append(layer)
        log.start.append(start)
        log.end.append(end)
        log.span.append(span)
        log.parent.append(parent)
        log.op.append(self.op_id)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _span_wrapper(self, layer: int, fn, hook=None, *, link=False):
        """Span ``fn`` under ``layer``; count through ``hook``.

        A call from inside the same layer is no layer boundary: it runs
        unspanned (and uncounted, unless the hook counts every call).
        """
        tracer = self
        perf = time.perf_counter
        stack = self.stack
        self_s = self.self_s
        span_ids = self.span_ids
        always = hook is _ALWAYS
        if always:
            hook = _count("net.topology.builds")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if parent[3] == layer:
                result = fn(*args, **kwargs)
                if always:
                    hook(tracer.counts, args, result)
                return result
            entered = perf()
            if link:
                tracer._note_link(args)
            frame = [0.0, 0.0, next(span_ids), layer]
            stack.append(frame)
            start = frame[0] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[1] - tracer.cost_in
                if tracer.log is not None:
                    tracer._log(layer, start, end, frame[2], parent[2])
                outside = start - entered + tracer.cost_out
                parent[1] += duration + outside
                tracer.overhead += outside + tracer.cost_in
            if hook is not None:
                hook(tracer.counts, args, result)
            tail = perf() - end
            parent[1] += tail
            tracer.overhead += tail
            return result

        return wrapper

    def _charge(self, seconds: float) -> None:
        """Move tracer work done inside the current span to the tracer."""
        self.stack[-1][1] += seconds
        self.overhead += seconds

    def _note_link(self, args) -> None:
        scheme, a, b = args[0], args[1], args[2]
        key = (id(scheme), a, b) if a < b else (id(scheme), b, a)
        counts = self.counts
        counts["crypto.keys.calls"] += 1
        if key in self.links:
            counts["crypto.keys.repeats"] += 1
        else:
            self.links.add(key)

    def _callback_span(self, callback, count_event: bool):
        module = getattr(callback, "__module__", None)
        layer = self._callback_layers.get(module)
        if layer is None:
            layer = self._callback_layers[module] = module_layer(module)
        return self._callback_wrapper(
            layer, callback, "sim.engine.events" if count_event else None
        )

    def _callback_wrapper(self, layer: int, fn, count_key):
        """A span around a zero-argument callback (no functools.wraps:
        one is built per scheduled event)."""
        tracer = self
        perf = time.perf_counter
        stack = self.stack
        self_s = self.self_s

        def fire():
            if not tracer.active:
                return fn()
            if count_key is not None:
                tracer.counts[count_key] += 1
            parent = stack[-1]
            if parent[3] == layer:
                return fn()
            entered = perf()
            frame = [0.0, 0.0, next(tracer.span_ids), layer]
            stack.append(frame)
            start = frame[0] = perf()
            try:
                return fn()
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                self_s[layer] += duration - frame[1] - tracer.cost_in
                if tracer.log is not None:
                    tracer._log(layer, start, end, frame[2], parent[2])
                outside = start - entered + perf() - end + tracer.cost_out
                parent[1] += duration + outside
                tracer.overhead += outside + tracer.cost_in

        return fire

    def _scheduler_wrapper(self, fn, *, count_events: bool):
        tracer = self

        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(owner, delay, callback, *args, **kwargs):
            if tracer.active:
                entered = perf()
                if count_events:
                    tracer.counts["sim.engine.scheduled"] += 1
                callback = tracer._callback_span(callback, count_events)
                tracer._charge(perf() - entered)
            return fn(owner, delay, callback, *args, **kwargs)

        return wrapper

    def _cancel_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(event):
            if tracer.active and not event.cancelled:
                tracer.counts["sim.engine.cancelled"] += 1
            return fn(event)

        return wrapper

    def _mac_counter(self, fn):
        """Count MAC backoffs/retransmissions/drops across ``fn``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(mac, *args, **kwargs):
            if not tracer.active:
                return fn(mac, *args, **kwargs)
            before = (mac.backoffs, mac.retransmissions, mac.dropped_frames)
            try:
                return fn(mac, *args, **kwargs)
            finally:
                counts = tracer.counts
                counts["sim.mac.backoffs"] += mac.backoffs - before[0]
                counts["sim.mac.retransmissions"] += (
                    mac.retransmissions - before[1]
                )
                counts["sim.mac.dropped"] += mac.dropped_frames - before[2]

        return wrapper

    def _retry_counter(self, fn):
        """Count protocol-level retries across ``fn``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(node, *args, **kwargs):
            if not tracer.active:
                return fn(node, *args, **kwargs)
            before = node.retries_used
            try:
                return fn(node, *args, **kwargs)
            finally:
                tracer.counts["protocols.retries"] += (
                    node.retries_used - before
                )

        return wrapper


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    traced: Sequence[Tuple[float, OpTrace]],
    traced_ms: Sequence[float],
    untraced_ms: Sequence[float],
) -> Dict[str, float]:
    """Per-layer metrics from ``(speed factor, OpTrace)`` per traced op.

    Times are scaled by each op's speed factor, like the op times.
    Counts and times are means per op; fractions are pooled ratios.
    """
    ops = len(traced)
    totals: Dict[str, float] = defaultdict(float)
    self_ms = [0.0] * len(LAYERS)
    wall_ms = 0.0
    for factor, trace in traced:
        for key, value in trace.counts.items():
            totals[key] += value
        for layer, seconds in enumerate(trace.self_s):
            self_ms[layer] += seconds * 1e3 * factor
        wall_ms += trace.wall_s * 1e3 * factor

    def mean(key: str) -> float:
        return _ratio(totals[key], ops)

    def self_of(layer: str) -> float:
        return _ratio(self_ms[LAYER_ID[layer]], ops)

    engine_ms = self_ms[LAYER_ID["sim.engine"]]
    metrics = {
        "sim.engine.events": mean("sim.engine.events"),
        "sim.engine.cancelled_frac": _ratio(
            totals["sim.engine.cancelled"], totals["sim.engine.scheduled"]
        ),
        "sim.engine.self_ms": self_of("sim.engine"),
        "sim.engine.host_us_per_event": _ratio(
            engine_ms * 1e3, totals["sim.engine.events"]
        ),
        "sim.radio.frames": mean("sim.radio.frames"),
        "sim.radio.receptions": mean("sim.radio.receptions"),
        "sim.radio.delivered_frac": _ratio(
            totals["sim.network.deliveries"], totals["sim.radio.receptions"]
        ),
        "sim.radio.self_ms": self_of("sim.radio"),
        "sim.mac.sends": mean("sim.mac.sends"),
        "sim.mac.backoffs": mean("sim.mac.backoffs"),
        "sim.mac.retransmissions": mean("sim.mac.retransmissions"),
        "sim.mac.dropped": mean("sim.mac.dropped"),
        "sim.mac.self_ms": self_of("sim.mac"),
        "sim.network.deliveries": mean("sim.network.deliveries"),
        "sim.network.self_ms": self_of("sim.network"),
        "protocols.handler_calls": mean("protocols.handler_calls"),
        "protocols.retries": mean("protocols.retries"),
        "protocols.degraded_frac": _ratio(
            totals["protocols.degraded"], totals["protocols.verdicts"]
        ),
        "protocols.self_ms": self_of("protocols"),
        "crypto.keys.calls": mean("crypto.keys.calls"),
        "crypto.keys.repeat_frac": _ratio(
            totals["crypto.keys.repeats"], totals["crypto.keys.calls"]
        ),
        "crypto.keys.self_ms": self_of("crypto.keys"),
        "crypto.cipher.items": mean("crypto.cipher.items"),
        "crypto.cipher.self_ms": self_of("crypto.cipher"),
        "core.slicing.plans": mean("core.slicing.plans"),
        "core.slicing.self_ms": self_of("core.slicing"),
        "sim.trace.records": mean("sim.trace.records"),
        "sim.trace.self_ms": self_of("sim.trace"),
        "faults.loss_draws": mean("faults.loss_draws"),
        "faults.loss_frac": _ratio(
            totals["faults.losses"], totals["faults.loss_draws"]
        ),
        "faults.self_ms": self_of("faults"),
        "obs.calls": mean("obs.calls"),
        "obs.self_ms": self_of("obs"),
        "serve.batch_mean": _ratio(
            totals["serve.batch"], totals["serve.dispatches"]
        ),
        "serve.self_ms": self_of("serve"),
        "core.pipeline.rounds": mean("core.pipeline.rounds"),
        "core.pipeline.self_ms": self_of("core.pipeline"),
        "core.trees.self_ms": self_of("core.trees"),
        "privacy.self_ms": self_of("privacy"),
        "store.digest.self_ms": self_of("store.digest"),
        "runner.self_ms": self_of("runner"),
        "net.topology.builds": mean("net.topology.builds"),
        "net.topology.self_ms": self_of("net.topology"),
        "trace_overhead_frac": (
            _ratio(statistics.median(traced_ms), statistics.median(untraced_ms))
            - 1.0
            if traced_ms and untraced_ms
            else 0.0
        ),
        "unattributed_frac": _ratio(self_ms[ROOT], wall_ms),
    }
    return metrics
