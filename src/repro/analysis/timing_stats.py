"""Timing-related trace characterization (Table IV).

Thin adapter: the metric is defined in :mod:`repro.metrics.timing` (one
definition, three engines); this module keeps the whole-trace
convenience signature the analysis layer has always offered.
"""

from __future__ import annotations

from repro.metrics.timing import TIMING_STATS, TimingStats
from repro.trace import Trace

__all__ = ["TimingStats", "timing_stats"]


def timing_stats(trace: Trace) -> TimingStats:
    """Compute every Table IV column for ``trace``.

    The service/response/no-wait columns need device timestamps; pass a
    trace that was replayed on an :class:`~repro.emmc.device.EmmcDevice`
    (they are reported as 0 for an un-replayed trace, like the localities
    of an empty trace).
    """
    return TIMING_STATS.batch(trace.columns(), trace.name)
