"""Stateful property test: the event engine's counts under any operation mix.

A hypothesis state machine schedules, posts, cancels, runs (to a horizon
or to the end) and clears an :class:`EventEngine`, including callbacks
that cancel other events while the engine drains.  A plain model fires
the same events in ``(time, priority, sequence)`` order.  After every
step the engine must agree with the model: ``pending_events`` counts the
live callbacks still due and is never negative, ``cancelled_events``
counts only cancellations of live events, and the callbacks fired are
exactly the model's, in its order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    multiple,
    rule,
)

from repro.sim.engine import EventEngine, ScheduledEvent

# Few distinct values, so events tie on time and on priority.
DELAYS = st.sampled_from([0.0, 0.5, 1.0, 2.5])
PRIORITIES = st.sampled_from([-1, 0, 1])
HORIZONS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0])


@dataclass
class ModelEvent:
    time: float
    priority: int
    sequence: int
    handle: Optional[ScheduledEvent]
    #: index of the event this one cancels when it fires
    cancels: Optional[int] = None
    state: str = "pending"  # pending, fired, cancelled or dropped


class EngineMachine(RuleBasedStateMachine):
    handles = Bundle("handles")

    def __init__(self):
        super().__init__()
        self.engine = EventEngine()
        self.events: List[ModelEvent] = []
        self.fired: List[int] = []
        self.expected: List[int] = []
        self.cancelled = 0
        self.now = 0.0

    # -- operations ----------------------------------------------------
    def _add(self, delay, priority, *, keep_handle, cancels=None):
        index = len(self.events)

        def callback():
            self.fired.append(index)
            if cancels is not None:
                self.events[cancels].handle.cancel()

        if keep_handle:
            handle = self.engine.schedule(delay, callback, priority=priority)
        else:
            handle = None
            self.engine.post(delay, callback, priority=priority)
        self.events.append(
            ModelEvent(self.now + delay, priority, index, handle, cancels)
        )
        return index

    @rule(target=handles, delay=DELAYS, priority=PRIORITIES)
    def schedule(self, delay, priority):
        return self._add(delay, priority, keep_handle=True)

    @rule(delay=DELAYS, priority=PRIORITIES)
    def post(self, delay, priority):
        self._add(delay, priority, keep_handle=False)

    @rule(target=handles, count=st.integers(20, 70), delay=DELAYS)
    def schedule_many(self, count, delay):
        # Big enough for the heap to compact once most of it is cancelled.
        return multiple(
            *(self._add(delay, 0, keep_handle=True) for _ in range(count))
        )

    @rule(target=handles, delay=DELAYS, priority=PRIORITIES, victim=handles)
    def schedule_canceller(self, delay, priority, victim):
        return self._add(delay, priority, keep_handle=True, cancels=victim)

    def _cancel_in_model(self, index):
        event = self.events[index]
        if event.state == "pending":
            event.state = "cancelled"
            self.cancelled += 1

    @rule(index=handles)
    def cancel(self, index):
        self._cancel_in_model(index)
        self.events[index].handle.cancel()

    @rule(stride=st.integers(1, 3))
    def cancel_many(self, stride):
        for index, event in enumerate(self.events):
            if event.handle is not None and index % stride == 0:
                self._cancel_in_model(index)
                event.handle.cancel()

    def _fire_in_model(self, until):
        while True:
            due = [
                event
                for event in self.events
                if event.state == "pending"
                and (until is None or event.time <= until)
            ]
            if not due:
                break
            event = min(due, key=lambda e: (e.time, e.priority, e.sequence))
            event.state = "fired"
            self.now = event.time
            self.expected.append(event.sequence)
            if event.cancels is not None:
                self._cancel_in_model(event.cancels)
        if until is not None:
            self.now = max(self.now, until)

    @rule(until=HORIZONS)
    def run_until(self, until):
        self._fire_in_model(until)
        self.engine.run(until=until)

    @rule()
    def run_all(self):
        self._fire_in_model(None)
        self.engine.run()

    @rule()
    def clear(self):
        for event in self.events:
            if event.state == "pending":
                event.state = "dropped"
        self.engine.clear()

    # -- invariants ----------------------------------------------------
    @invariant()
    def pending_counts_live_callbacks(self):
        live = sum(1 for event in self.events if event.state == "pending")
        assert self.engine.pending_events == live
        assert self.engine.pending_events >= 0

    @invariant()
    def cancellations_count_live_events_only(self):
        assert self.engine.cancelled_events == self.cancelled

    @invariant()
    def fires_in_model_order(self):
        assert self.fired == self.expected
        assert self.engine.now == self.now

    @invariant()
    def cancelled_flag_matches_model(self):
        # A fired event does not read as cancelled; a dropped one does.
        for event in self.events:
            if event.handle is not None:
                assert event.handle.cancelled == (
                    event.state in ("cancelled", "dropped")
                )


EngineMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestEngineStateMachine = EngineMachine.TestCase
