"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import EventEngine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = EventEngine()
        fired = []
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        engine = EventEngine()
        fired = []
        for label in "abc":
            engine.schedule(1.0, lambda lab=label: fired.append(lab))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_priority_overrides_sequence_at_same_time(self):
        engine = EventEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append("later"), priority=1)
        engine.schedule(1.0, lambda: fired.append("sooner"), priority=-1)
        engine.run()
        assert fired == ["sooner", "later"]

    def test_now_advances_with_events(self):
        engine = EventEngine()
        seen = []
        engine.schedule(0.5, lambda: seen.append(engine.now))
        engine.schedule(1.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [0.5, 1.5]

    def test_negative_delay_rejected(self):
        engine = EventEngine()
        with pytest.raises(SimulationError):
            engine.schedule(-0.1, lambda: None)

    def test_nan_delay_rejected(self):
        # A NaN event would fire first at now = NaN, then the clock
        # would jump forward to the next real event.
        engine = EventEngine()
        for schedule in (
            engine.schedule,
            engine.post,
            engine.schedule_at,
            engine.post_at,
        ):
            with pytest.raises(SimulationError):
                schedule(float("nan"), lambda: None)
        assert engine.pending_events == 0

    def test_schedule_at_absolute_time(self):
        engine = EventEngine()
        seen = []
        engine.schedule(1.0, lambda: engine.schedule_at(
            3.0, lambda: seen.append(engine.now)
        ))
        engine.run()
        assert seen == [3.0]

    def test_events_can_schedule_events(self):
        engine = EventEngine()
        fired = []

        def chain(depth):
            fired.append(depth)
            if depth < 3:
                engine.schedule(1.0, lambda: chain(depth + 1))

        engine.schedule(0.0, lambda: chain(0))
        engine.run()
        assert fired == [0, 1, 2, 3]


class TestRunControl:
    def test_run_until_stops_before_future_events(self):
        engine = EventEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(5.0, lambda: fired.append(5))
        engine.run(until=2.0)
        assert fired == [1]
        assert engine.now == 2.0
        engine.run()
        assert fired == [1, 5]

    def test_run_until_advances_clock_when_no_events(self):
        engine = EventEngine()
        engine.run(until=7.0)
        assert engine.now == 7.0

    def test_max_events(self):
        engine = EventEngine()
        fired = []
        for i in range(5):
            engine.schedule(float(i), lambda i=i: fired.append(i))
        engine.run(max_events=2)
        assert fired == [0, 1]

    def test_cancelled_events_are_skipped(self):
        engine = EventEngine()
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append("cancelled"))
        engine.schedule(2.0, lambda: fired.append("kept"))
        handle.cancel()
        engine.run()
        assert fired == ["kept"]

    def test_processed_events_counter(self):
        engine = EventEngine()
        for i in range(3):
            engine.schedule(float(i), lambda: None)
        engine.run()
        assert engine.processed_events == 3

    def test_reentrant_run_rejected(self):
        engine = EventEngine()
        errors = []

        def reenter():
            try:
                engine.run()
            except SimulationError as exc:
                errors.append(exc)

        engine.schedule(0.0, reenter)
        engine.run()
        assert len(errors) == 1

    def test_repr_smoke(self):
        assert "EventEngine" in repr(EventEngine())


class TestMonotonicClock:
    """run(until=...) must never move `now` backwards (regression:
    the early-break path used to assign `_now = until` even when a
    previous run had advanced further)."""

    def test_until_in_the_past_leaves_clock_alone(self):
        engine = EventEngine()
        engine.run(until=5.0)
        assert engine.now == 5.0
        engine.run(until=2.0)
        assert engine.now == 5.0

    def test_until_in_the_past_with_pending_future_events(self):
        engine = EventEngine()
        fired = []
        engine.schedule(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        engine.run(until=2.0)
        assert engine.now == 5.0
        assert fired == []

    def test_clock_monotonic_across_interleaved_runs(self):
        engine = EventEngine()
        observed = []
        for t in (1.0, 3.0, 6.0):
            engine.schedule(t, lambda t=t: observed.append(t))
        previous = engine.now
        for until in (2.0, 0.5, 4.0, 1.0, None):
            engine.run(until=until)
            assert engine.now >= previous
            previous = engine.now
        assert observed == [1.0, 3.0, 6.0]

    def test_max_events_break_does_not_clamp_to_until(self):
        engine = EventEngine()
        for t in range(5):
            engine.schedule(float(t), lambda: None)
        engine.run(until=100.0, max_events=2)
        # Stopped by the event budget, so the clock reflects the last
        # executed event, not the `until` horizon.
        assert engine.now == 1.0

    def test_drained_run_clamps_to_until(self):
        engine = EventEngine()
        engine.schedule(1.0, lambda: None)
        engine.run(until=9.0)
        assert engine.now == 9.0


class TestCompaction:
    def _churn(self, engine, total, cancel_every):
        handles = [engine.schedule(float(i), lambda: None) for i in range(total)]
        cancelled = 0
        for i, handle in enumerate(handles):
            if i % cancel_every == 0:
                handle.cancel()
                cancelled += 1
        return handles, cancelled

    def test_compaction_drops_cancelled_entries(self):
        engine = EventEngine()
        handles = [engine.schedule(float(i), lambda: None) for i in range(100)]
        for handle in handles[:60]:
            handle.cancel()
        # Compaction fired once >half of the >=64-entry heap was
        # cancelled (at the 51st cancel), purging the dead entries.
        assert len(engine._heap) < 100
        assert engine.pending_events == 40
        assert engine.cancelled_events == 60

    def test_pending_events_honest_below_compaction_threshold(self):
        engine = EventEngine()
        handles = [engine.schedule(float(i), lambda: None) for i in range(10)]
        handles[3].cancel()
        handles[7].cancel()
        # Too small to compact; the count must exclude cancelled events.
        assert len(engine._heap) == 10
        assert engine.pending_events == 8

    def test_ordering_preserved_across_compaction(self):
        engine = EventEngine()
        fired = []
        handles = []
        for i in range(128):
            handles.append(
                engine.schedule(float(i % 7), lambda i=i: fired.append(i))
            )
        for handle in handles[: len(handles) // 2 + 5]:
            handle.cancel()
        engine.run()
        survivors = list(range(69, 128))
        expected = sorted(survivors, key=lambda i: (i % 7, i))
        assert fired == expected

    def test_same_instant_order_preserved_across_compaction(self):
        engine = EventEngine()
        fired = []
        keep = [
            engine.schedule(1.0, lambda i=i: fired.append(i)) for i in range(40)
        ]
        doomed = [engine.schedule(0.5, lambda: None) for _ in range(60)]
        for handle in doomed:
            handle.cancel()
        engine.run()
        assert fired == list(range(40))

    def test_cancel_is_idempotent(self):
        engine = EventEngine()
        handle = engine.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert engine.cancelled_events == 1
        assert engine.pending_events == 0

    def test_cancelling_a_fired_event_does_nothing(self):
        # Regression: the handle still held its callback after firing,
        # so a late cancel() drove pending_events to -1.
        engine = EventEngine()
        handle = engine.schedule(1.0, lambda: None)
        engine.run()
        handle.cancel()
        assert engine.pending_events == 0
        assert engine.cancelled_events == 0
        assert not handle.cancelled

    def test_cancelling_a_cleared_event_does_nothing(self):
        engine = EventEngine()
        handle = engine.schedule(1.0, lambda: None)
        engine.clear()
        handle.cancel()
        assert engine.pending_events == 0
        assert engine.cancelled_events == 0

    def test_cancel_at_the_current_instant(self):
        # Entries due exactly now may or may not have fired yet.
        engine = EventEngine()
        fired = []
        early = engine.schedule(
            1.0, lambda: fired.append("early"), priority=-1
        )
        late = engine.schedule(1.0, lambda: fired.append("late"), priority=1)
        engine.schedule(1.0, lambda: (early.cancel(), late.cancel()))
        engine.run()
        assert fired == ["early"]
        assert engine.cancelled_events == 1
        assert engine.pending_events == 0
        assert not early.cancelled and late.cancelled

    def test_compaction_during_run_keeps_heap_alive(self):
        # Regression: _maybe_compact used to rebind self._heap to a new
        # list while run() held a local alias to the old one.  A
        # callback that cancels enough timers to trigger compaction
        # mid-run then made the engine (a) drop events scheduled after
        # the compaction, (b) drive _cancelled_pending negative, and
        # (c) re-fire already-executed events on the next run().
        engine = EventEngine()
        fired = []
        handles = []

        def cancel_and_reschedule():
            # Cancel >half of a >=64-entry heap from inside a callback
            # (protocols cancel ACK timers exactly like this), forcing
            # compaction while run() is draining, then schedule more
            # work that must not be lost.
            for handle in handles:
                handle.cancel()
            engine.schedule(1.0, lambda: fired.append("after-compaction"))

        engine.schedule(0.5, cancel_and_reschedule)
        handles.extend(
            engine.schedule(2.0, lambda: None) for _ in range(100)
        )
        engine.run()
        assert fired == ["after-compaction"]
        assert engine._cancelled_pending >= 0
        assert engine.pending_events == 0
        # Nothing already executed may re-fire on a subsequent run.
        before = engine.processed_events
        engine.run()
        assert fired == ["after-compaction"]
        assert engine.processed_events == before

    def test_post_entries_survive_compaction(self):
        engine = EventEngine()
        fired = []
        engine.post(2.0, lambda: fired.append("posted"))
        handles = [engine.schedule(1.0, lambda: None) for _ in range(100)]
        for handle in handles[:70]:
            handle.cancel()
        engine.run()
        assert fired == ["posted"]


class TestPost:
    def test_post_fires_like_schedule(self):
        engine = EventEngine()
        fired = []
        engine.post(2.0, lambda: fired.append("b"))
        engine.post(1.0, lambda: fired.append("a"))
        engine.run()
        assert fired == ["a", "b"]

    def test_post_and_schedule_share_tie_break_order(self):
        engine = EventEngine()
        fired = []
        engine.schedule(1.0, lambda: fired.append("s1"))
        engine.post(1.0, lambda: fired.append("p1"))
        engine.schedule(1.0, lambda: fired.append("s2"))
        engine.post(1.0, lambda: fired.append("p2"))
        engine.run()
        assert fired == ["s1", "p1", "s2", "p2"]

    def test_post_priority(self):
        engine = EventEngine()
        fired = []
        engine.post(1.0, lambda: fired.append("later"))
        engine.post(1.0, lambda: fired.append("sooner"), priority=-1)
        engine.run()
        assert fired == ["sooner", "later"]

    def test_post_negative_delay_rejected(self):
        engine = EventEngine()
        with pytest.raises(SimulationError):
            engine.post(-0.5, lambda: None)

    def test_post_at_absolute_time(self):
        engine = EventEngine()
        seen = []
        engine.schedule(1.0, lambda: engine.post_at(
            3.0, lambda: seen.append(engine.now)
        ))
        engine.run()
        assert seen == [3.0]

    def test_post_counts_as_pending_and_processed(self):
        engine = EventEngine()
        engine.post(1.0, lambda: None)
        assert engine.pending_events == 1
        engine.run()
        assert engine.processed_events == 1


class TestScheduledEventHandle:
    def test_handle_exposes_entry_fields(self):
        engine = EventEngine()
        callback = lambda: None  # noqa: E731
        handle = engine.schedule(2.5, callback, priority=3)
        assert handle.time == 2.5
        assert handle.priority == 3
        assert handle.sequence == 0
        assert handle.callback is callback
        assert not handle.cancelled
        handle.cancel()
        assert handle.cancelled
        assert handle.callback is None

    def test_handles_order_by_time_priority_sequence(self):
        engine = EventEngine()
        early = engine.schedule(1.0, lambda: None)
        late = engine.schedule(2.0, lambda: None)
        urgent = engine.schedule(2.0, lambda: None, priority=-1)
        assert early < late
        assert urgent < late
        assert late > early
        assert early <= early and early >= early
        assert early == early
        assert not early == "not-an-event"
