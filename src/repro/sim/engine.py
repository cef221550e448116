"""Discrete-event simulation engine.

A minimal, deterministic event loop: events are ``(time, priority,
sequence)``-ordered callbacks on a binary heap.  The sequence number
breaks ties so that two events scheduled for the same instant always
fire in scheduling order, which keeps runs byte-for-byte reproducible.

The heap stores ``[time, priority, sequence, callback]`` list entries,
so every sift compare is a C-level sequence comparison that never
reaches the callback (the sequence number is unique).  Cancellation
replaces the callback with ``None`` in place — no handle object lives
on the heap at all.  :class:`ScheduledEvent` is a thin view over the
entry, and :meth:`EventEngine.post` skips even that for fire-and-forget
events on the simulator's hottest scheduling paths (radio end-of-frame,
MAC backoff timers).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError

__all__ = ["EventEngine", "ScheduledEvent"]

_heappush = heapq.heappush
_heappop = heapq.heappop


class ScheduledEvent:
    """A cancellable handle for one event on the simulation heap.

    A view over the underlying heap entry: ``time``, ``priority``,
    ``sequence`` and ``callback`` read through to it, and events order
    by ``(time, priority, sequence)`` exactly like the engine pops
    them.  The callback is excluded from comparisons.
    """

    __slots__ = ("_entry", "_engine")

    def __init__(
        self,
        entry: List[Any],
        engine: Optional["EventEngine"] = None,
    ):
        self._entry = entry
        self._engine = engine

    @property
    def time(self) -> float:
        """Absolute firing time in seconds."""
        return self._entry[0]

    @property
    def priority(self) -> int:
        """Tie-break priority (lower fires first at equal times)."""
        return self._entry[1]

    @property
    def sequence(self) -> int:
        """Scheduling order; unique per engine."""
        return self._entry[2]

    @property
    def callback(self) -> Optional[Callable[[], Any]]:
        """The scheduled callable, or ``None`` once cancelled."""
        return self._entry[3]

    @property
    def cancelled(self) -> bool:
        """True once cancelled while live, or dropped by ``clear()``."""
        return self._entry[3] is None

    def cancel(self) -> None:
        """Mark the event so the engine skips it when it comes due.

        Does nothing once the event has fired or been dropped by
        :meth:`EventEngine.clear`: only a live event counts as cancelled.
        """
        entry = self._entry
        engine = self._engine
        if entry[3] is None:
            return
        if engine is not None and not engine._on_heap(entry):
            return  # already fired, or dropped by clear()
        entry[3] = None
        if engine is not None:
            engine._note_cancellation()

    def _sort_key(self) -> Tuple[float, int, int]:
        entry = self._entry
        return (entry[0], entry[1], entry[2])

    def __lt__(self, other: "ScheduledEvent") -> bool:
        return self._sort_key() < other._sort_key()

    def __le__(self, other: "ScheduledEvent") -> bool:
        return self._sort_key() <= other._sort_key()

    def __gt__(self, other: "ScheduledEvent") -> bool:
        return self._sort_key() > other._sort_key()

    def __ge__(self, other: "ScheduledEvent") -> bool:
        return self._sort_key() >= other._sort_key()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduledEvent):
            return NotImplemented
        return self._sort_key() == other._sort_key()

    # Events compare by sort key, so (like the previous ordered
    # dataclass) they are deliberately unhashable.
    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        flag = ", cancelled" if self.cancelled else ""
        return (
            f"ScheduledEvent(time={self.time:.6f}, priority={self.priority}, "
            f"sequence={self.sequence}{flag})"
        )


_new_event = ScheduledEvent.__new__


class EventEngine:
    """A deterministic discrete-event scheduler.

    Typical use::

        engine = EventEngine()
        engine.schedule(1.5, lambda: print("fires at t=1.5"))
        engine.run()
    """

    #: Compact the heap when it exceeds this size and more than half of
    #: it is cancelled; keeps ``pending_events`` honest without paying a
    #: rebuild on every cancellation.
    COMPACT_MIN_SIZE = 64

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[List[Any]] = []
        self._sequence = 0
        self._processed = 0
        self._running = False
        self._cancelled_pending = 0
        self._cancelled_total = 0
        self._compactions = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far.

        Updated in batch while :meth:`run` drains the heap without
        limits; read it between runs (or from a limited run), not from
        inside a callback of an unlimited one.
        """
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still on the heap."""
        return len(self._heap) - self._cancelled_pending

    @property
    def cancelled_events(self) -> int:
        """Total cancellations observed over the engine's lifetime."""
        return self._cancelled_total

    @property
    def compactions(self) -> int:
        """Heap compactions performed over the engine's lifetime."""
        return self._compactions

    def _on_heap(self, entry: List[Any]) -> bool:
        """Is ``entry`` still on the heap?

        The heap pops in time order and nothing is scheduled in the
        past, so every entry earlier than ``now`` has left it; only one
        due exactly now needs a look.
        """
        when = entry[0]
        return when > self._now or (when == self._now and entry in self._heap)

    def _note_cancellation(self) -> None:
        """Bookkeeping hook invoked by :meth:`ScheduledEvent.cancel`."""
        self._cancelled_pending += 1
        self._cancelled_total += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        """Drop cancelled events when they dominate the heap.

        Compacts *in place*: callbacks can cancel timers while
        :meth:`run` is draining, and ``run`` holds a local alias to the
        heap list, so the list's identity must never change.
        """
        heap = self._heap
        if (
            len(heap) >= self.COMPACT_MIN_SIZE
            and self._cancelled_pending * 2 > len(heap)
        ):
            heap[:] = [entry for entry in heap if entry[3] is not None]
            heapq.heapify(heap)
            self._cancelled_pending = 0
            self._compactions += 1

    def schedule(
        self,
        delay: float,
        callback: Callable[[], Any],
        *,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        Lower ``priority`` fires first among same-time events.  Returns
        the event handle, whose :meth:`ScheduledEvent.cancel` removes it.
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        sequence = self._sequence
        self._sequence = sequence + 1
        entry = [self._now + delay, priority, sequence, callback]
        # Inlined handle construction: this is the hottest allocation
        # in the simulator and skipping the __init__ frame measurably
        # cuts schedule() cost.
        event = _new_event(ScheduledEvent)
        event._entry = entry
        event._engine = self
        _heappush(self._heap, entry)
        return event

    def post(
        self,
        delay: float,
        callback: Callable[[], Any],
        *,
        priority: int = 0,
    ) -> None:
        """Fire-and-forget :meth:`schedule`: no handle, not cancellable.

        Skips the :class:`ScheduledEvent` allocation entirely —
        ordering (and therefore reproducibility) is identical to
        :meth:`schedule` because both draw from the same sequence
        counter.  Use it for events that are never cancelled
        (end-of-frame deliveries, MAC backoff timers); keep
        :meth:`schedule` where the caller needs the handle.
        """
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        sequence = self._sequence
        self._sequence = sequence + 1
        _heappush(self._heap, [self._now + delay, priority, sequence, callback])

    def schedule_at(
        self,
        when: float,
        callback: Callable[[], Any],
        *,
        priority: int = 0,
    ) -> ScheduledEvent:
        """Schedule ``callback`` at absolute time ``when``."""
        return self.schedule(when - self._now, callback, priority=priority)

    def post_at(
        self,
        when: float,
        callback: Callable[[], Any],
        *,
        priority: int = 0,
    ) -> None:
        """Fire-and-forget :meth:`schedule_at` (see :meth:`post`)."""
        self.post(when - self._now, callback, priority=priority)

    def clear(self) -> None:
        """Drop every pending event unrun; the clock stays where it is.

        Handles of the dropped events read as cancelled, and cancelling
        one does nothing.
        """
        for entry in self._heap:
            entry[3] = None
        self._heap.clear()
        self._cancelled_pending = 0

    def run(
        self,
        until: Optional[float] = None,
        *,
        max_events: Optional[int] = None,
    ) -> float:
        """Run until the heap drains, ``until`` passes, or ``max_events``.

        Returns the simulated time at which the loop stopped.  ``now``
        never moves backwards: a ``run(until=...)`` with ``until`` in
        the past executes nothing new and leaves the clock where the
        furthest previous run left it.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        heap = self._heap
        try:
            if until is None and max_events is None:
                # Hot path: drain the heap with no per-event limit
                # checks (the common case for whole-round runs), with
                # the processed counter batched into a local.
                processed = 0
                try:
                    while heap:
                        entry = _heappop(heap)
                        payload = entry[3]
                        if payload is None:
                            self._cancelled_pending -= 1
                            continue
                        self._now = entry[0]
                        processed += 1
                        payload()
                finally:
                    self._processed += processed
                return self._now
            executed = 0
            clamp = until is not None
            while heap:
                if max_events is not None and executed >= max_events:
                    clamp = False
                    break
                entry = heap[0]
                if until is not None and entry[0] > until:
                    break
                _heappop(heap)
                payload = entry[3]
                if payload is None:
                    self._cancelled_pending -= 1
                    continue
                self._now = entry[0]
                self._processed += 1
                executed += 1
                payload()
            if clamp and until > self._now:
                # Single clamp for both the early-break and drained
                # cases; the guard keeps `now` monotonic when `until`
                # lies in the past.
                self._now = until
        finally:
            self._running = False
        return self._now

    def __repr__(self) -> str:
        return (
            f"EventEngine(now={self._now:.6f}, pending={self.pending_events}, "
            f"processed={self._processed})"
        )
