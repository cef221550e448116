"""Node runtime: the base class protocol nodes subclass.

A :class:`Node` owns no networking machinery itself — it asks its
:class:`~repro.sim.network.Network` for the engine, its MAC, and its
neighbour set, and overrides the ``on_receive`` / ``on_overhear``
hooks.  This keeps protocol code (TAG, iPDA, ...) free of simulator
plumbing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, FrozenSet

import numpy as np

from .engine import ScheduledEvent
from .messages import Message

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .network import Network

__all__ = ["Node"]


class Node:
    """A sensor node (or the base station) attached to a network.

    Subclasses implement behaviour by overriding :meth:`on_receive`
    (frames addressed to this node, including broadcasts) and
    :meth:`on_overhear` (unicast frames this node merely heard —
    relevant to eavesdropping and to the paper's two-colour HELLO
    consistency check).  The network dispatches overheard frames only
    to nodes whose class overrides :meth:`on_overhear`, decided once
    when it is built.
    """

    def __init__(self, node_id: int, network: "Network"):
        self.id = node_id
        self.network = network
        self.alive = True

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------
    @property
    def engine(self):
        """The shared event engine."""
        return self.network.engine

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.network.engine.now

    @property
    def rng(self) -> np.random.Generator:
        """This node's private random stream."""
        return self.network.node_rng(self.id)

    def neighbors(self) -> FrozenSet[int]:
        """One-hop neighbour ids."""
        return self.network.topology.neighbors(self.id)

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Queue a frame on this node's MAC (dead nodes stay silent)."""
        if not self.alive:
            return
        self.network.mac(self.id).send(message)

    def schedule(self, delay: float, callback: Callable[[], None]) -> ScheduledEvent:
        """Schedule a timer callback ``delay`` seconds from now."""
        return self.engine.schedule(delay, self._guarded(callback))

    def _guarded(self, callback: Callable[[], None]) -> Callable[[], None]:
        def fire() -> None:
            if self.alive:
                callback()

        return fire

    def kill(self) -> None:
        """Fail-stop this node: it stops sending and reacting."""
        self.alive = False
        self.network._set_down(self.id, True)

    def revive(self) -> None:
        """Recover from a fail-stop (churn): the node reacts again.

        State is whatever survived the crash; timers that came due while
        dead were skipped and stay lost, exactly as a rebooted mote
        misses its schedule.
        """
        self.alive = True
        self.network._set_down(self.id, False)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def deliver(self, message: Message, addressed: bool) -> None:
        """Dispatch a concluded reception to the right hook."""
        if not self.alive:
            return
        if addressed:
            self.on_receive(message)
        else:
            self.on_overhear(message)

    def on_receive(self, message: Message) -> None:
        """Handle a frame addressed to this node. Default: ignore."""

    def on_overhear(self, message: Message) -> None:
        """Handle an overheard unicast frame. Default: ignore."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id})"
