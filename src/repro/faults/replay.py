"""Replay traces under a fault plan, surviving a mid-replay power loss.

The harness is the fault-injection analogue of :meth:`repro.sim.Host.replay`:
every request is scheduled as an ``ARRIVAL`` event, the kernel is drained,
and -- when the plan schedules a power loss -- the drain is cut by
:class:`repro.sim.SimInterrupt` at the chosen event index, the device runs
its :meth:`~repro.emmc.device.EmmcDevice.recover` path, and the requests
whose arrival events never fired are re-armed and served to completion.

Cut semantics (event granularity): kernel events are atomic, so a request
is either fully served (its ``ARRIVAL`` fired, its timing is fixed) or
untouched.  Because arrivals fire in trace order, the unserved requests
are always a suffix of the trace.  Resubmitted requests arrive at
``max(original arrival, recovery instant)`` -- the host retries them as
soon as the device is back, never before their original time.

Everything is deterministic: the fault injector's stream cursors survive
the recovery (one trajectory, not two reseeded halves), re-arming happens
in trace order, and :func:`stats_digest` canonicalizes the resulting
``DeviceStats`` so tests can compare runs across worker counts, processes
and ``PYTHONHASHSEED`` values byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.emmc import DeviceConfig, EmmcDevice
from repro.emmc.device import RecoveryReport
from repro.emmc.stats import DeviceStats
from repro.sim import SimInterrupt
from repro.telemetry import Telemetry
from repro.trace import Request, Trace

from .plan import FaultPlan


@dataclass
class FaultReplayResult:
    """A replay that may have survived injected faults and a power loss."""

    trace: Trace
    stats: DeviceStats
    config_name: str
    plan: FaultPlan
    #: True when the plan's power loss actually cut the replay (False when
    #: ``power_loss_at_event`` was None or beyond the last event).
    interrupted: bool
    #: The device's recovery report, when a power loss occurred.
    recovery: Optional[RecoveryReport]
    #: Requests re-armed after recovery (always a suffix of the trace).
    resubmitted: int
    #: Kernel event trace tuples ``(time_us, priority, seq, kind, label)``
    #: (``record_events=True`` only).  After a power loss this holds the
    #: *post-recovery* events -- the pre-cut kernel, like the real
    #: device's volatile state, is gone.
    events: List = field(default_factory=list)


def replay_with_faults(
    config: DeviceConfig,
    trace: Trace,
    plan: FaultPlan,
    record_events: bool = False,
) -> FaultReplayResult:
    """Replay ``trace`` on a fresh device built with ``plan``.

    With ``FaultPlan.none()`` this is behaviourally identical to
    ``Host(EmmcDevice(config)).replay(trace)`` -- the plan is dropped by
    the device and no cut is armed.
    """
    device = EmmcDevice(config, faults=plan)
    # The sink rides on the kernel only (no device spans), and survives
    # the power cycle; ``mark`` is where the post-recovery events begin.
    sink = Telemetry() if record_events else None
    device.kernel.telemetry = sink
    mark = 0
    requests = list(trace.without_timing())
    boxes: List[List[Request]] = []
    for request in requests:
        box: List[Request] = []
        boxes.append(box)
        device.arrive(request, record_to=box)
    if plan.power_loss_at_event is not None:
        device.kernel.interrupt_before(plan.power_loss_at_event)

    interrupted = False
    recovery: Optional[RecoveryReport] = None
    resubmitted = 0
    try:
        device.kernel.drain()
    except SimInterrupt:
        interrupted = True
        recovery = device.recover(
            at_us=device.kernel.now_us + plan.power_loss_recovery_us
        )
        if sink is not None:
            mark = len(sink.kernel_events)
        for index, request in enumerate(requests):
            if boxes[index]:
                continue
            revived = replace(
                request, arrival_us=max(request.arrival_us, recovery.resumed_us)
            )
            device.arrive(revived, record_to=boxes[index])
            resubmitted += 1
        device.kernel.drain()

    completed = [box[0] for box in boxes if box]
    if len(completed) != len(requests):
        raise RuntimeError(
            f"replay served {len(completed)} of {len(requests)} requests"
        )
    return FaultReplayResult(
        trace=trace.with_requests(completed),
        stats=device.stats,
        config_name=config.name,
        plan=plan,
        interrupted=interrupted,
        recovery=recovery,
        resubmitted=resubmitted,
        events=sink.kernel_events[mark:] if sink is not None else [],
    )


def stats_digest(stats: DeviceStats) -> str:
    """Canonical sha256 of a :class:`DeviceStats` (determinism oracle).

    Every field is serialized: per-kind dicts are keyed by the kind's
    name and sorted, float lists ride through ``json.dumps``'s shortest
    ``repr`` (bit-faithful for round-trippable doubles), and key order is
    fixed -- so two runs digest equal iff their stats are value-identical.
    """
    payload = {}
    for key, value in vars(stats).items():
        if isinstance(value, dict):
            payload[key] = {
                kind.name: count
                for kind, count in sorted(value.items(), key=lambda item: item[0].name)
            }
        else:
            payload[key] = value
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
