"""Fast-path orchestration: plan, time, apply, assemble.

:func:`fast_replay` is the two-pass replacement for
``Host.replay``'s schedule-arrivals-and-drain loop;
:func:`maybe_fast_replay` is the dispatcher ``Host.replay`` consults --
it checks the ``REPRO_REPLAY_FASTPATH`` switch and the preconditions,
and returns ``None`` when the event kernel should run instead.
"""

from __future__ import annotations

import os

import numpy as np

from repro.trace import Request, Trace
from repro.trace.columns import FLAG_HAS_FINISH, FLAG_HAS_SERVICE, TraceColumns

from .planner import plan_trace
from .preconditions import REPLAY_FASTPATH_ENV, decide
from .timing import compute_timing


class FastPathUnavailable(RuntimeError):
    """``REPRO_REPLAY_FASTPATH=require`` but the replay is ineligible."""


#: Timed copies of the (frozen) trace requests are built via ``__new__``
#: plus a ``__dict__`` fill: identical objects to ``Request.with_timing``'s
#: ``dataclasses.replace``, minus the replace machinery and the
#: ``__post_init__`` revalidation -- the timestamps are the timing pass's
#: own ``dispatch >= arrival`` / ``finish >= dispatch`` invariants.
_NEW_REQUEST = Request.__new__



def maybe_fast_replay(device, trace):
    """The dispatcher: a ``ReplayResult`` on the fast path, else ``None``.

    Consults ``$REPRO_REPLAY_FASTPATH`` (``auto``/``off``/``require``;
    see :data:`~repro.replay.preconditions.REPLAY_FASTPATH_ENV`) and the
    structural preconditions.  Any fallback happens *before* the planner
    touches the FTL, so a ``None`` return leaves the device pristine for
    the event kernel.
    """
    mode = os.environ.get(REPLAY_FASTPATH_ENV, "auto").strip().lower() or "auto"
    if mode == "off":
        return None
    if mode not in ("auto", "require"):
        raise ValueError(
            f"unknown {REPLAY_FASTPATH_ENV}={mode!r}: "
            "expected auto, off, or require"
        )
    decision = decide(device, trace)
    if not decision.eligible:
        if mode == "require":
            raise FastPathUnavailable(
                f"{REPLAY_FASTPATH_ENV}={mode} but the fast path is "
                "ineligible: " + "; ".join(decision.reasons)
            )
        return None
    return fast_replay(device, trace)


def fast_replay(device, trace: Trace):
    """Replay ``trace`` on ``device`` via the two-pass engine.

    Callers must have checked :func:`repro.replay.preconditions.decide`
    first; this function assumes eligibility.  On return the device --
    stats, FTL, admission queue, power model, resource timelines, kernel
    clock and re-armed timers -- is in the state a kernel replay would
    have left, except for the kernel's event-counter telemetry
    (``processed``/``scheduled``/``cancellations``/seq numbers), which
    count events that deliberately never existed.
    """
    from repro.emmc.device import ReplayResult  # local: avoids cycle

    requests = trace.requests
    stats = device.stats
    if not requests:
        # Kernel parity: drain() fires nothing, nothing changes.
        return ReplayResult(
            trace=trace.with_requests([]),
            stats=stats,
            config_name=device.config.name,
        )

    columns = trace.columns()
    plan = plan_trace(device, columns)
    outcome = compute_timing(device, plan, columns.arrival_us)

    dispatch_arr = np.array(outcome.dispatch_us, dtype=np.float64)
    finish_arr = np.array(outcome.finish_us, dtype=np.float64)
    # Element-wise subtraction is the same IEEE-754 op the kernel performs
    # per request, so these columns are bit-identical to its appends.
    wait_arr = dispatch_arr - columns.arrival_us
    service_arr = finish_arr - dispatch_arr
    response_arr = finish_arr - columns.arrival_us

    n = len(requests)
    stats.wait_us.extend(wait_arr.tolist())
    stats.service_us.extend(service_arr.tolist())
    stats.response_us.extend(response_arr.tolist())
    stats.requests += n
    stats.no_wait_requests += int(np.count_nonzero(wait_arr <= 1e-9))
    stats.data_bytes_written += plan.data_bytes_written
    stats.flash_bytes_consumed += plan.flash_bytes_consumed
    stats.data_bytes_read += plan.data_bytes_read
    stats.gc_collections += plan.gc_collections
    stats.gc_migrated_slots += plan.gc_migrated_slots
    stats.preloaded_pages += plan.preloaded_pages
    for kind, count in plan.page_reads.items():
        stats.page_reads[kind] = stats.page_reads.get(kind, 0) + count
    for kind, count in plan.page_programs.items():
        stats.page_programs[kind] = stats.page_programs.get(kind, 0) + count
    stats.erases = outcome.erases
    stats.active_idle_us = outcome.active_idle_us
    stats.low_power_us = outcome.low_power_us
    stats.busy_read_us = outcome.busy_read_us
    stats.busy_program_us = outcome.busy_program_us
    stats.busy_erase_us = outcome.busy_erase_us
    stats.busy_transfer_us = outcome.busy_transfer_us
    stats.wakeups = outcome.wakeups

    queue = device.queue
    queue._busy_until_us = outcome.busy_until_us
    queue.dispatches += n
    queue.slot_waits = outcome.slot_waits
    queue.max_in_flight = max(queue.max_in_flight, 1)

    power = device.power
    power._last_activity_end_us = outcome.last_activity_end_us
    power._low_power = outcome.low_power
    power.wakeups = outcome.wakeups
    power.mode_switches = outcome.mode_switches
    power.low_power_entries = outcome.low_power_entries

    controller = device.controller
    controller.next_free_us = outcome.controller_next_free_us
    controller.busy_us = outcome.controller_busy_us
    controller.reservations = outcome.controller_reservations
    for index, timeline in enumerate(device.channels):
        timeline.next_free_us = outcome.channel_next_free_us[index]
        timeline.busy_us = outcome.channel_busy_us[index]
        timeline.reservations = outcome.channel_reservations[index]
    for index, timeline in enumerate(device.units):
        timeline.next_free_us = outcome.unit_next_free_us[index]
        timeline.busy_us = outcome.unit_busy_us[index]
        timeline.reservations = outcome.unit_reservations[index]

    # Kernel end state: the clock sits at the last COMPLETE event (the
    # final finish -- finishes are monotone at depth 1), the arrival-time
    # timers were canceled by their dispatches, and fresh speculative
    # timers armed after the last request are left pending by drain().
    device._cancel_activity_timers()
    device.kernel.clock.advance_to(outcome.finish_us[-1])
    device._arm_activity_timers()

    completed = []
    append = completed.append
    new = _NEW_REQUEST
    for request, dispatch, finish in zip(
        requests, outcome.dispatch_us, outcome.finish_us
    ):
        timed = new(Request)
        fields = timed.__dict__
        fields.update(request.__dict__)
        fields["service_start_us"] = dispatch
        fields["finish_us"] = finish
        append(timed)
    result_trace = trace.with_requests(completed)
    flags = np.full(n, FLAG_HAS_SERVICE | FLAG_HAS_FINISH, dtype=np.uint8)
    result_trace._adopt_columns(
        TraceColumns(
            columns.arrival_us,
            dispatch_arr,
            finish_arr,
            columns.lba,
            columns.size,
            columns.op,
            flags,
        )
    )
    return ReplayResult(
        trace=result_trace, stats=stats, config_name=device.config.name
    )
