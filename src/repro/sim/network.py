"""Network container: wires topology, engine, radio, MACs, and nodes.

:class:`Network` is the composition root of a simulation run.  Protocol
runners construct one with a node factory, run the engine, read
results off their node objects and the trace collector, and close it
(:meth:`Network.close`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Set

import numpy as np

from ..errors import SimulationError
from ..net.topology import Topology
from ..obs import DEFAULT_EVENT_EDGES, get_registry
from .engine import EventEngine
from .mac import CsmaMac, MacConfig
from .messages import Message
from .node import Node
from .radio import RadioConfig, RadioMedium
from .rng import RngStreams
from .trace import TraceCollector

__all__ = ["Network", "NodeFactory"]

NodeFactory = Callable[[int, "Network"], Node]


class Network:
    """A fully wired simulated sensor network.

    Parameters
    ----------
    topology:
        The deployment to simulate over.
    node_factory:
        Called as ``factory(node_id, network)`` for every node id; lets
        protocols install their own node classes (and a distinct class
        for the base station, conventionally node 0).
    streams / seed:
        Random stream factory (or a root seed to build one).
    radio_config / mac_config:
        Physical and MAC layer parameters.
    keep_frames:
        Retain a full frame log in the trace (needed by attacks).
    trace_detail:
        Trace granularity, passed through to :class:`TraceCollector`:
        ``"full"`` (default) or ``"counters"`` for throughput runs that
        only need aggregate totals.
    fault_plan:
        A declarative :class:`~repro.faults.FaultPlan`; when given, a
        :class:`~repro.faults.FaultInjector` is armed on this network
        (crashes and recoveries scheduled, burst-loss channel installed)
        before the first event runs.
    """

    def __init__(
        self,
        topology: Topology,
        node_factory: Optional[NodeFactory] = None,
        *,
        streams: Optional[RngStreams] = None,
        seed: int = 0,
        radio_config: Optional[RadioConfig] = None,
        mac_config: Optional[MacConfig] = None,
        keep_frames: bool = False,
        trace_detail: str = "full",
        fault_plan=None,
    ):
        self.topology = topology
        self.streams = streams if streams is not None else RngStreams(seed)
        self.engine = EventEngine()
        self.trace = TraceCollector(keep_frames=keep_frames, detail=trace_detail)
        self._mac_config = mac_config if mac_config is not None else MacConfig()
        self._macs: Dict[int, CsmaMac] = {}
        #: ids of the fail-stopped nodes; kept by Node.kill/revive.
        self.down: Set[int] = set()
        #: the shared medium; None while the factory builds the nodes
        #: and after :meth:`close`.
        self.radio: Optional[RadioMedium] = None
        factory = node_factory if node_factory is not None else Node
        self.nodes: Dict[int, Node] = {
            node_id: factory(node_id, self)
            for node_id in range(topology.node_count)
        }
        # Built after the nodes so the radio dispatches overheard
        # unicast frames only to nodes whose class handles them.
        self.radio = RadioMedium(
            engine=self.engine,
            topology=topology,
            trace=self.trace,
            deliver=self._deliver,
            rng=self.streams.get("radio"),
            config=radio_config,
            notify_sender=self._notify_sender,
            overhearers=[
                node_id
                for node_id, node in self.nodes.items()
                if type(node).on_overhear is not Node.on_overhear
            ],
        )
        self._sync_liveness_hook()
        self.injector = None
        #: last absolute counter values harvested into a metrics
        #: registry; lets repeated run() calls report deltas only.
        self._metrics_checkpoint: Optional[Dict[str, float]] = None
        if fault_plan is not None:
            self.arm_faults(fault_plan)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def mac(self, node_id: int) -> CsmaMac:
        """Return (lazily creating) the MAC instance of ``node_id``."""
        mac = self._macs.get(node_id)
        if mac is None:
            mac = CsmaMac(
                node_id=node_id,
                engine=self.engine,
                radio=self.radio,
                rng=self.streams.get("mac", node_id),
                config=self._mac_config,
            )
            self._macs[node_id] = mac
        return mac

    def node_rng(self, node_id: int) -> np.random.Generator:
        """Per-node private random stream."""
        return self.streams.get("node", node_id)

    def node(self, node_id: int) -> Node:
        """Return the node object for ``node_id``."""
        try:
            return self.nodes[node_id]
        except KeyError:
            raise SimulationError(f"unknown node id {node_id}") from None

    def _deliver(self, receiver: int, message: Message, addressed: bool) -> None:
        node = self.nodes.get(receiver)
        if node is None:
            return
        node.deliver(message, addressed)

    def _notify_sender(self, message: Message, delivered: bool) -> None:
        self.mac(message.src).transmission_result(message, delivered)

    def _node_alive(self, node_id: int) -> bool:
        return node_id not in self.down

    def _set_down(self, node_id: int, down: bool) -> None:
        """Record a node's liveness (called by :meth:`Node.kill`/``revive``)."""
        if down:
            self.down.add(node_id)
        else:
            self.down.discard(node_id)
        # A node factory may kill its node before the radio exists;
        # __init__ syncs the hook once the radio is built.
        if self.radio is not None:
            self._sync_liveness_hook()

    def _sync_liveness_hook(self) -> None:
        # Probing liveness per receiver is needed only while some node
        # is down; with the hook cleared the radio's "nothing can drop"
        # shortcuts apply.
        self.radio.node_alive = self._node_alive if self.down else None

    # ------------------------------------------------------------------
    # Fault entry points (used by the fault injector and tests)
    # ------------------------------------------------------------------
    def kill_node(self, node_id: int) -> None:
        """Fail-stop ``node_id`` now: silence its node and flush its MAC."""
        self.node(node_id).kill()
        self.mac(node_id).halt()
        self.trace.record_fault(self.engine.now, "crash", node_id)

    def revive_node(self, node_id: int) -> None:
        """Bring a fail-stopped node back (churn)."""
        self.node(node_id).revive()
        self.mac(node_id).resume()
        self.trace.record_fault(self.engine.now, "recovery", node_id)

    def arm_faults(self, plan) -> "FaultInjector":
        """Arm a :class:`~repro.faults.FaultPlan` on this network.

        Re-entrant: callable any number of times over the network's
        lifetime (long-running services arm plans between query
        epochs).  Plan times are run-relative, so arming mid-run
        anchors them at ``engine.now`` — a plan whose crash fires "at
        2.0" armed at t=500 crashes at t=502.  Returns the injector;
        :attr:`injector` tracks the most recent one.
        """
        from ..faults.injector import FaultInjector

        injector = FaultInjector(plan, self, time_offset=self.engine.now)
        injector.arm()
        self.injector = injector
        return injector

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run the event loop; returns the stop time.

        When a metrics registry is active (:mod:`repro.obs`), the
        counter deltas accumulated by this run are harvested into it;
        with no registry the harvest is a single ``None`` check, so
        instrumentation never taxes ordinary simulations.
        """
        stopped = self.engine.run(until)
        if get_registry() is not None:
            self._harvest_metrics()
        return stopped

    def _harvest_metrics(self) -> None:
        """Publish counter deltas since the last harvest."""
        registry = get_registry()
        if registry is None:
            return
        engine = self.engine
        radio = self.radio
        trace = self.trace
        current: Dict[str, float] = {
            "engine.processed_events": engine.processed_events,
            "engine.cancelled_events": engine.cancelled_events,
            "engine.compactions": engine.compactions,
            "radio.fast_path_frames": radio.fast_path_frames,
            "radio.generic_frames": radio.generic_frames,
            "trace.frames_sent": trace.total_frames_sent,
            "trace.bytes_sent": trace.total_bytes_sent,
            "trace.delivered": sum(trace.delivered_count.values()),
            "trace.dropped": trace.total_drops,
            "trace.fault_events": len(trace.fault_events),
        }
        for reason, count in trace.dropped_count.items():
            current[f"trace.drops.{reason}"] = count
        for kind, count in trace.sent_count.items():
            current[f"trace.frames.{kind}"] = count
        mac_backoffs = mac_retx = mac_dropped = 0
        for mac in self._macs.values():
            mac_backoffs += mac.backoffs
            mac_retx += mac.retransmissions
            mac_dropped += mac.dropped_frames
        current["mac.backoffs"] = mac_backoffs
        current["mac.retransmissions"] = mac_retx
        current["mac.dropped_frames"] = mac_dropped
        previous = self._metrics_checkpoint or {}
        for name in sorted(current):
            delta = current[name] - previous.get(name, 0)
            if delta:
                registry.inc(name, delta)
        events_delta = current["engine.processed_events"] - previous.get(
            "engine.processed_events", 0
        )
        if events_delta:
            registry.observe(
                "engine.events_per_run",
                events_delta,
                edges=DEFAULT_EVENT_EDGES,
            )
        self._metrics_checkpoint = current

    # ------------------------------------------------------------------
    # Lifetime
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Break the reference cycles of a finished run.

        Every node points back at its network, the radio's hooks are
        bound methods of it, the fault injector holds it, and pending
        events close over nodes: left alone, a finished run is one
        cyclic graph that only a full garbage collection frees.
        Dropping the node and MAC tables, the radio, the injector and
        any pending events lets reference counting free it as soon as
        the caller lets go.  The topology, clock, streams and trace stay
        readable; a closed network cannot run again.  One-shot runners
        close theirs once the outcome is built (``with Network(...)``);
        standing sessions keep theirs open across epochs.
        """
        self.nodes = {}
        self._macs = {}
        self.radio = None
        self.injector = None
        self.engine.clear()

    def __enter__(self) -> "Network":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def iter_nodes(self) -> Iterator[Node]:
        """Iterate nodes in id order."""
        for node_id in sorted(self.nodes):
            yield self.nodes[node_id]

    def __repr__(self) -> str:
        return (
            f"Network(nodes={self.topology.node_count}, "
            f"t={self.engine.now:.4f})"
        )
