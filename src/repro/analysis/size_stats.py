"""Size-related trace characterization (Table III).

Thin adapter: the metric is defined in :mod:`repro.metrics.size` (one
definition, three engines); this module keeps the whole-trace
convenience signature the analysis layer has always offered.
"""

from __future__ import annotations

from repro.metrics.size import SIZE_STATS, SizeStats
from repro.trace import Trace

__all__ = ["SizeStats", "size_stats"]


def size_stats(trace: Trace) -> SizeStats:
    """Compute every Table III column for ``trace``.

    Averages over an empty class (e.g. a trace with no reads) are reported
    as 0, mirroring how a column would be blank in the paper's table.
    """
    return SIZE_STATS.batch(trace.columns(), trace.name)
