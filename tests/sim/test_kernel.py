"""Unit tests for the discrete-event kernel: clock, events, loop."""

import pytest

from repro.sim import Event, EventKind, EventLoop, SimClock, SimTimeError
from repro.telemetry import Telemetry


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_us == 0.0

    def test_advance_forward(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now_us == 10.0
        clock.advance_to(10.0)  # no-op, not an error
        assert clock.now_us == 10.0

    def test_advance_backwards_raises(self):
        clock = SimClock(5.0)
        with pytest.raises(SimTimeError):
            clock.advance_to(4.0)

    def test_negative_start_rejected(self):
        with pytest.raises(SimTimeError):
            SimClock(-1.0)


class TestEventOrdering:
    def test_sorts_by_time_then_priority_then_seq(self):
        loop = EventLoop(telemetry=Telemetry())
        # Same instant, mixed kinds, scheduled in "wrong" order.
        loop.schedule(5.0, kind=EventKind.POWER_DOWN)
        loop.schedule(5.0, kind=EventKind.ARRIVAL)
        loop.schedule(5.0, kind=EventKind.COMPLETE)
        loop.schedule(5.0, kind=EventKind.IDLE_GC)
        loop.schedule(1.0, kind=EventKind.GENERIC)
        loop.run()
        kinds = [point[3] for point in loop.telemetry.kernel_events]
        assert kinds == ["GENERIC", "COMPLETE", "IDLE_GC", "ARRIVAL", "POWER_DOWN"]

    def test_equal_keys_fire_in_scheduling_order(self):
        loop = EventLoop(telemetry=Telemetry())
        for _ in range(5):
            loop.schedule(3.0, kind=EventKind.ARRIVAL)
        loop.run()
        seqs = [point[2] for point in loop.telemetry.kernel_events]
        assert seqs == sorted(seqs)

    def test_event_sort_key_is_precomputed(self):
        event = Event(time_us=2.0, kind=EventKind.ARRIVAL, seq=7)
        assert event.sort_key == (2.0, EventKind.ARRIVAL.value, 7)


class TestEventLoop:
    def test_schedule_in_past_raises(self):
        loop = EventLoop()
        loop.schedule(10.0)
        loop.run()
        with pytest.raises(SimTimeError):
            loop.schedule(5.0)

    def test_callbacks_fire_with_clock_advanced(self):
        loop = EventLoop()
        seen = []
        loop.schedule(4.0, lambda event: seen.append(loop.now_us))
        loop.schedule(9.0, lambda event: seen.append(loop.now_us))
        loop.run()
        assert seen == [4.0, 9.0]
        assert loop.now_us == 9.0

    def test_cancel_suppresses_event(self):
        loop = EventLoop()
        seen = []
        keep = loop.schedule(1.0, lambda e: seen.append("keep"))
        drop = loop.schedule(2.0, lambda e: seen.append("drop"))
        loop.cancel(drop)
        loop.cancel(drop)  # idempotent
        loop.cancel(None)  # no-op
        loop.run()
        assert seen == ["keep"]
        assert loop.cancellations == 1
        assert not keep.canceled

    def test_run_until_is_inclusive_and_advances_clock(self):
        loop = EventLoop()
        seen = []
        loop.schedule(5.0, lambda e: seen.append(5.0))
        loop.schedule(7.0, lambda e: seen.append(7.0))
        fired = loop.run_until(5.0)
        assert fired == 1 and seen == [5.0]
        loop.run_until(6.0)  # nothing due, clock still moves
        assert loop.now_us == 6.0
        loop.run_until(10.0)
        assert seen == [5.0, 7.0]

    def test_events_scheduled_during_processing_fire_in_window(self):
        loop = EventLoop()
        seen = []
        loop.schedule(1.0, lambda e: loop.schedule(2.0, lambda e2: seen.append(2.0)))
        loop.run_until(3.0)
        assert seen == [2.0]

    def test_drain_leaves_trailing_timers(self):
        loop = EventLoop()
        seen = []
        loop.schedule(5.0, lambda e: seen.append("gc"), kind=EventKind.IDLE_GC)
        loop.schedule(10.0, lambda e: seen.append("arrival"), kind=EventKind.ARRIVAL)
        loop.schedule(20.0, lambda e: seen.append("sleep"), kind=EventKind.POWER_DOWN)
        loop.drain()
        # The timer *before* material work fires; the trailing one must not.
        assert seen == ["gc", "arrival"]
        assert len(loop) == 1
        loop.run()
        assert seen == ["gc", "arrival", "sleep"]

    def test_pending_material_tracks_non_timers(self):
        loop = EventLoop()
        loop.schedule(1.0, kind=EventKind.ARRIVAL)
        loop.schedule(2.0, kind=EventKind.POWER_DOWN)
        assert loop.pending_material() == 1
        loop.drain()
        assert loop.pending_material() == 0

    def test_peek_time_skips_canceled(self):
        loop = EventLoop()
        first = loop.schedule(1.0)
        loop.schedule(2.0)
        loop.cancel(first)
        assert loop.peek_time() == 2.0

    def test_telemetry_counters(self):
        loop = EventLoop()
        events = [loop.schedule(float(i)) for i in range(4)]
        loop.cancel(events[0])
        loop.run()
        assert loop.scheduled == 4
        assert loop.processed == 3
        assert loop.cancellations == 1
