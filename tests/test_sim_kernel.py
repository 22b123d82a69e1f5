"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.sim import EventLog, PeriodicTask, SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(2.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.schedule(3.0, order.append, "latest")
        sim.run()
        assert order == ["early", "late", "latest"]

    def test_simultaneous_events_preserve_insertion_order(self, sim):
        order = []
        for label in ("a", "b", "c", "d"):
            sim.schedule(1.0, order.append, label)
        sim.run()
        assert order == ["a", "b", "c", "d"]
        # A deep heap of ties still dispatches first in, first out.
        del order[:]
        for index in range(2_000):
            sim.schedule(1.0, order.append, index)
        sim.run()
        assert order == list(range(2_000))

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(5.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.5]
        assert sim.now == 5.5

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_in_the_past_rejected(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_callbacks_can_schedule_more_events(self, sim):
        seen = []

        def first():
            seen.append("first")
            sim.schedule(1.0, lambda: seen.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == ["first", "second"]
        assert sim.now == 2.0

    def test_kwargs_passed_to_callback(self, sim):
        results = {}
        sim.schedule(1.0, lambda **kw: results.update(kw), value=7)
        sim.run()
        assert results == {"value": 7}

    def test_name_kwarg_reaches_callback(self, sim):
        """``name=`` is a normal callback kwarg, not kernel bookkeeping."""
        results = {}
        sim.schedule(1.0, lambda **kw: results.update(kw), name="alice")
        sim.run()
        assert results == {"name": "alice"}

    def test_name_kwarg_reaches_callback_via_schedule_at(self, sim):
        results = {}
        sim.schedule_at(2.0, lambda **kw: results.update(kw), name="bob", x=1)
        sim.run()
        assert results == {"name": "bob", "x": 1}

    def test_label_names_the_event(self, sim):
        event = sim.schedule(1.0, lambda: None, label="my:event")
        assert event.name == "my:event"
        traced = []
        sim.add_trace_hook(lambda e: traced.append(e.name))
        sim.run()
        assert traced == ["my:event"]

    def test_unlabeled_event_falls_back_to_qualname(self, sim):
        def some_callback():
            pass

        event = sim.schedule(1.0, some_callback)
        assert "some_callback" in event.name


class TestRunControl:
    def test_run_until_stops_before_later_events(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.schedule(10.0, seen.append, 10)
        stopped_at = sim.run(until=5.0)
        assert seen == [1]
        assert stopped_at == 5.0
        assert sim.pending() == 1

    def test_run_until_executes_events_at_boundary(self, sim):
        seen = []
        sim.schedule(5.0, seen.append, "boundary")
        sim.run(until=5.0)
        assert seen == ["boundary"]

    def test_run_resumes_after_until(self, sim):
        seen = []
        sim.schedule(10.0, seen.append, "later")
        sim.run(until=5.0)
        assert seen == []
        sim.run()
        assert seen == ["later"]

    def test_stop_aborts_run(self, sim):
        seen = []
        sim.schedule(1.0, seen.append, 1)
        sim.schedule(2.0, sim.stop)
        sim.schedule(3.0, seen.append, 3)
        sim.run()
        assert seen == [1]

    def test_cancelled_event_does_not_fire(self, sim):
        seen = []
        event = sim.schedule(1.0, seen.append, "cancelled")
        sim.schedule(2.0, seen.append, "kept")
        event.cancel()
        sim.run()
        assert seen == ["kept"]

    def test_max_events_bounds_execution(self, sim):
        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        sim.run(max_events=25)
        assert sim.processed_events == 25
        # 64 self-rescheduling chains stop at exactly the bound too.
        churn = Simulator()

        def tick():
            if churn.processed_events < 200_000:
                churn.schedule(0.001, tick)

        for _ in range(64):
            churn.schedule(0.001, tick)
        churn.run(max_events=200_000)
        assert churn.processed_events == 200_000

    def test_run_until_with_empty_queue_advances_clock(self, sim):
        sim.run(until=42.0)
        assert sim.now == 42.0

    def test_trace_hook_sees_events(self, sim):
        traced = []
        sim.add_trace_hook(lambda event: traced.append(event.time))
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert traced == [1.0, 2.0]


class TestKernelInvariants:
    """Invariants the tuple-heap/lazy-cancellation optimization must keep."""

    def test_same_time_fifo_across_schedule_and_schedule_at(self, sim):
        order = []
        sim.schedule(1.0, order.append, "a")
        sim.schedule_at(1.0, order.append, "b")
        sim.schedule(1.0, order.append, "c")
        sim.schedule_at(1.0, order.append, "d")
        sim.run()
        assert order == ["a", "b", "c", "d"]

    def test_pending_tracks_cancellations(self, sim):
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(10)]
        assert sim.pending() == 10
        for event in events[::2]:
            event.cancel()
        assert sim.pending() == 5
        # Double-cancel must not double-count.
        events[0].cancel()
        assert sim.pending() == 5
        sim.run()
        assert sim.pending() == 0
        assert sim.processed_events == 5
        # 5,000 events on 7 instants, half cancelled: 1,000 pending()
        # probes neither fire nor drop anything.
        events = [sim.schedule(float(i % 7) + 1.0, lambda: None)
                  for i in range(5_000)]
        for event in events[::2]:
            event.cancel()
        probes = 0
        for _ in range(1_000):
            probes += sim.pending()
        assert probes == 2_500_000
        sim.run()
        assert sim.processed_events == 5 + 2_500

    def test_cancel_after_fire_keeps_pending_consistent(self, sim):
        fired = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        fired.cancel()  # already executed; must not affect the queue count
        assert sim.pending() == 1
        sim.run()
        assert sim.processed_events == 2

    def test_cancelled_events_do_not_advance_clock(self, sim):
        event = sim.schedule(5.0, lambda: None)
        event.cancel()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.now == 2.0

class TestPeriodicTask:
    def test_fires_at_interval(self, sim):
        ticks = []
        task = PeriodicTask(sim, 2.0, lambda: ticks.append(sim.now))
        task.start()
        sim.run(until=7.0)
        assert ticks == [2.0, 4.0, 6.0]

    def test_fire_immediately(self, sim):
        ticks = []
        task = PeriodicTask(sim, 2.0, lambda: ticks.append(sim.now))
        task.start(fire_immediately=True)
        sim.run(until=5.0)
        assert ticks == [0.0, 2.0, 4.0]

    def test_stop_prevents_future_ticks(self, sim):
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now))
        task.start()
        sim.schedule(3.5, task.stop)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0]

    def test_invalid_interval_rejected(self, sim):
        with pytest.raises(SimulationError):
            PeriodicTask(sim, 0.0, lambda: None)

    def test_start_twice_is_idempotent(self, sim):
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now))
        task.start()
        task.start()
        sim.run(until=2.5)
        assert ticks == [1.0, 2.0]

    def test_callback_exception_does_not_reschedule_forever(self, sim):
        calls = []

        def cb():
            calls.append(sim.now)

        task = PeriodicTask(sim, 1.0, cb)
        task.start()
        sim.run(until=3.0)
        task.stop()
        sim.run(until=10.0)
        assert calls == [1.0, 2.0, 3.0]


class TestEventLog:
    def test_records_are_timestamped(self, sim):
        log = EventLog(sim)
        sim.schedule(4.0, log.record, "test", "hello", detail=1)
        sim.run()
        assert len(log) == 1
        entry = log.entries[0]
        assert entry["time"] == 4.0
        assert entry["category"] == "test"
        assert entry["data"] == {"detail": 1}

    def test_filter_by_category(self, sim):
        log = EventLog(sim)
        log.record("a", "one")
        log.record("b", "two")
        log.record("a", "three")
        assert [e["message"] for e in log.filter("a")] == ["one", "three"]

    def test_last_entry(self, sim):
        log = EventLog(sim)
        assert log.last() is None
        log.record("x", "first")
        log.record("y", "second")
        assert log.last()["message"] == "second"
        assert log.last("x")["message"] == "first"
        assert log.last("missing") is None
