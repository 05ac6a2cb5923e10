"""The telemetry sink: spans, instant events, counters, kernel trace.

A :class:`Telemetry` object is a passive, append-only recorder.  Nothing
in the simulator *reads* it while running -- producers append, exporters
(:mod:`repro.telemetry.chrome`, :mod:`repro.telemetry.flame`,
:mod:`repro.telemetry.spanstore`) walk it afterwards.  Disabled mode is
structural absence: a device built without a sink carries
``telemetry=None`` and the hot path never branches into recording code,
mirroring how an inactive :class:`repro.faults.FaultPlan` is dropped on
the floor at device construction.

Determinism contract
--------------------
Sim-time recording is a pure function of the simulation: span ids are
list indices (assigned in emission order, which is event order), names
are plain strings appended in first-seen order by the exporters, and no
set/dict iteration order leaks in.  Two replays of the same trace --
in the same process, across processes, or across ``PYTHONHASHSEED``
values -- produce byte-identical exports.  Wall-clock spans (the
experiment runner's) are real time and deliberately outside that
contract.

Spans are stored as plain tuples (see the ``S_*`` index constants)
because the enabled-mode budget is tight: one request emits up to a
dozen spans, and a NamedTuple/dataclass per span would double the
recording cost for no analytical gain.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, List, Optional, Tuple

#: Span tuple layout: ``spans[i] == (name, cat, track, parent, start, dur)``
#: and the span's id *is* its index ``i``.  ``parent`` is another span's
#: id, or -1 for a root.
S_NAME, S_CAT, S_TRACK, S_PARENT, S_START, S_DUR = range(6)

#: Instant-event tuple layout: ``(name, cat, track, ts_us, args)``.
E_NAME, E_CAT, E_TRACK, E_TS, E_ARGS = range(5)

#: Counter-sample tuple layout: ``(name, ts_us, value)``.
C_NAME, C_TS, C_VALUE = range(3)

#: A recorded kernel event: (time_us, priority, seq, kind name, label).
KernelEvent = Tuple[float, int, int, str, str]


class Telemetry:
    """Append-only span/event/counter sink for one simulation or run."""

    __slots__ = (
        "spans",
        "events",
        "counters",
        "kernel_events",
        "decompositions",
        "meta",
    )

    def __init__(self) -> None:
        #: Completed spans, id == index (see ``S_*`` constants).
        self.spans: List[Tuple[str, str, str, int, float, float]] = []
        #: Instant events (see ``E_*`` constants).
        self.events: List[Tuple[str, str, str, float, Any]] = []
        #: Counter samples (see ``C_*`` constants).
        self.counters: List[Tuple[str, float, float]] = []
        #: Every event the kernel fired, in fire order (``KernelEvent``).
        self.kernel_events: List[KernelEvent] = []
        #: One :class:`~repro.telemetry.decomposition.LatencyDecomposition`
        #: per served request, in service (arrival-event) order.
        self.decompositions: List[Any] = []
        #: Free-form run metadata carried into exports (insertion-ordered).
        self.meta: dict = {}

    # -- recording ---------------------------------------------------------

    def add_span(
        self,
        name: str,
        start_us: float,
        dur_us: float,
        cat: str = "",
        track: str = "",
        parent: int = -1,
    ) -> int:
        """Record a completed span; returns its id (for child spans)."""
        spans = self.spans
        span_id = len(spans)
        spans.append((name, cat, track, parent, start_us, dur_us))
        return span_id

    def add_event(
        self,
        name: str,
        ts_us: float,
        cat: str = "",
        track: str = "",
        args: Any = None,
    ) -> None:
        """Record an instant (zero-duration) event."""
        self.events.append((name, cat, track, ts_us, args))

    def add_counter(self, name: str, ts_us: float, value: float) -> None:
        """Record one sample of a named counter series."""
        self.counters.append((name, ts_us, value))

    # -- wall-clock spans (experiment runner) ------------------------------

    @contextmanager
    def wall_span(
        self,
        name: str,
        cat: str = "wall",
        track: str = "main",
        parent: int = -1,
        origin_s: float = 0.0,
    ):
        """Measure a wall-clock span around a ``with`` body.

        Timestamps are ``time.perf_counter()`` seconds relative to
        ``origin_s``, stored in microseconds so wall spans share the
        exporters with sim-time spans.  Yields a mutable one-slot list
        whose final value is the span id (assigned at exit, when the
        span is complete and its duration known).
        """
        box = [-1]
        started = time.perf_counter()
        try:
            yield box
        finally:
            ended = time.perf_counter()
            box[0] = self.add_span(
                name,
                (started - origin_s) * 1e6,
                (ended - started) * 1e6,
                cat=cat,
                track=track,
                parent=parent,
            )

    def add_wall_span(
        self,
        name: str,
        started_s: float,
        ended_s: float,
        cat: str = "wall",
        track: str = "main",
        parent: int = -1,
        origin_s: float = 0.0,
    ) -> int:
        """Record a wall span from raw ``perf_counter`` endpoints.

        Used for spans measured in worker processes:
        ``time.perf_counter`` is CLOCK_MONOTONIC on Linux, a system-wide
        clock, so endpoints taken in a forked worker are directly
        comparable with the parent's origin.
        """
        return self.add_span(
            name,
            (started_s - origin_s) * 1e6,
            (ended_s - started_s) * 1e6,
            cat=cat,
            track=track,
            parent=parent,
        )

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def children_of(self, span_id: int) -> List[int]:
        """Ids of the spans whose parent is ``span_id`` (emission order)."""
        return [
            index
            for index, span in enumerate(self.spans)
            if span[S_PARENT] == span_id
        ]

    def spans_named(self, name: str) -> List[int]:
        """Ids of every span called ``name`` (emission order)."""
        return [
            index
            for index, span in enumerate(self.spans)
            if span[S_NAME] == name
        ]

    def clear(self) -> None:
        """Drop everything recorded so far (metadata included)."""
        del self.spans[:]
        del self.events[:]
        del self.counters[:]
        del self.kernel_events[:]
        del self.decompositions[:]
        self.meta.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Telemetry(spans={len(self.spans)}, events={len(self.events)}, "
            f"kernel_events={len(self.kernel_events)})"
        )


def attach_telemetry(device, sink: Optional[Telemetry] = None) -> Telemetry:
    """Attach a sink to an existing device (and its kernel); returns it.

    Convenience for tests and the CLI: ``EmmcDevice(config,
    telemetry=Telemetry())`` is the normal construction path, but a
    device built elsewhere can opt in after the fact as long as it has
    not served anything yet.
    """
    if sink is None:
        sink = Telemetry()
    if device.stats.requests:
        raise ValueError(
            "cannot attach telemetry to a device that already served "
            f"{device.stats.requests} requests (spans would be incomplete)"
        )
    device.telemetry = sink
    device.kernel.telemetry = sink
    attach = getattr(device.ftl, "attach_telemetry", None)
    if attach is not None:
        attach(sink, device.kernel.clock)
    return sink
