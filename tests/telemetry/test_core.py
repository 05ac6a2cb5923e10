"""Telemetry sink API + kernel event recording through ``EventLoop(telemetry=)``."""

import pytest

from repro.emmc import EmmcDevice, small_four_ps
from repro.sim import EventLoop, Host
from repro.telemetry import (
    S_DUR,
    S_NAME,
    S_PARENT,
    S_START,
    Telemetry,
    attach_telemetry,
)
from repro.trace import Op, Request, SECTOR, Trace


def _trace(num=10):
    return Trace(
        "core",
        [
            Request(
                arrival_us=i * 150.0,
                lba=(i % 8) * SECTOR,
                size=2 * SECTOR,
                op=Op.WRITE if i % 2 else Op.READ,
            )
            for i in range(num)
        ],
    )


class TestSink:
    def test_span_ids_are_indices(self):
        sink = Telemetry()
        a = sink.add_span("a", 0.0, 5.0)
        b = sink.add_span("b", 1.0, 2.0, parent=a)
        assert (a, b) == (0, 1)
        assert sink.spans[b][S_PARENT] == a
        assert sink.children_of(a) == [b]
        assert sink.spans_named("a") == [a]
        assert len(sink) == 2

    def test_parents_precede_children(self):
        # Exporters and the flame pass rely on it: a child's parent id is
        # always a smaller index (already fully recorded).
        sink = Telemetry()
        device = EmmcDevice(small_four_ps(), telemetry=sink)
        Host(device).replay(_trace())
        for index, span in enumerate(sink.spans):
            assert span[S_PARENT] < index

    def test_clear_drops_everything(self):
        sink = Telemetry()
        sink.add_span("a", 0.0, 1.0)
        sink.add_event("e", 2.0)
        sink.add_counter("c", 3.0, 4.0)
        sink.meta["k"] = "v"
        sink.clear()
        assert not sink.spans and not sink.events
        assert not sink.counters and not sink.meta

    def test_wall_span_context_manager(self):
        sink = Telemetry()
        with sink.wall_span("outer") as box:
            pass
        assert box[0] == 0
        name, _, _, parent, start, dur = sink.spans[0]
        assert name == "outer" and parent == -1
        assert dur >= 0.0

    def test_add_wall_span_origin_math(self):
        sink = Telemetry()
        sink.add_wall_span("w", started_s=10.5, ended_s=11.0, origin_s=10.0)
        span = sink.spans[0]
        assert span[S_START] == pytest.approx(0.5e6)
        assert span[S_DUR] == pytest.approx(0.5e6)


class TestAttach:
    def test_attach_after_construction(self):
        device = EmmcDevice(small_four_ps())
        sink = attach_telemetry(device)
        assert device.telemetry is sink
        assert device.kernel.telemetry is sink
        Host(device).replay(_trace())
        assert sink.spans and sink.decompositions

    def test_attach_refuses_a_used_device(self):
        device = EmmcDevice(small_four_ps())
        Host(device).replay(_trace())
        with pytest.raises(ValueError, match="already served"):
            attach_telemetry(device)


class TestKernelSink:
    def test_default_records_nothing(self):
        kernel = EventLoop()
        assert kernel.telemetry is None

    def test_sink_records_fired_events(self):
        sink = Telemetry()
        kernel = EventLoop(telemetry=sink)
        kernel.schedule(1.0, label="x")
        kernel.run()
        assert len(sink.kernel_events) == 1
        assert sink.kernel_events[0][4] == "x"
        # The kernel reads the same live list.
        assert kernel.telemetry.kernel_events is sink.kernel_events

    def test_explicit_sink_is_never_dropped(self):
        sink = Telemetry()
        device = EmmcDevice(small_four_ps(), kernel=EventLoop(telemetry=sink))
        Host(device).replay(_trace())
        # A device built without its own sink keeps the kernel's.
        assert device.kernel.telemetry is sink
        assert device.telemetry is None
        assert sink.kernel_events

    def test_kernel_event_shape(self):
        sink = Telemetry()
        kernel = EventLoop(telemetry=sink)
        kernel.schedule(5.0, label="probe")
        kernel.run()
        time_us, priority, seq, kind_name, label = sink.kernel_events[0]
        assert time_us == 5.0
        assert isinstance(priority, int) and isinstance(seq, int)
        assert kind_name == "GENERIC" and label == "probe"


class TestSuccessor:
    def test_no_sink_successor_has_no_sink(self):
        fresh = EventLoop().successor(10.0)
        assert fresh.telemetry is None
        assert fresh.now_us == 10.0

    def test_successor_keeps_recording_into_the_sink(self):
        sink = Telemetry()
        kernel = EventLoop(telemetry=sink)
        kernel.schedule(1.0)
        kernel.run()
        fresh = kernel.successor(2.0)
        fresh.schedule(3.0)
        fresh.run()
        assert [event[0] for event in sink.kernel_events] == [1.0, 3.0]

    def test_explicit_sink_survives_succession(self):
        sink = Telemetry()
        kernel = EventLoop(telemetry=sink)
        fresh = kernel.successor(0.0)
        assert fresh.telemetry is sink
