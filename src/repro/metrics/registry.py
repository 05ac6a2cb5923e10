"""The metric registry: every statistic the repro reports, by name.

One flat, ordered namespace.  Consumers address metrics by registry key
-- the CLI (``repro-trace metrics list``, ``stats``), the
``MetricSetState`` driver, the experiment ShardPlans, the fleet executor
-- so adding a statistic is one state class, one
:class:`~repro.metrics.base.Metric` declaration and one :func:`register`
call, and every engine picks it up.  Pickled and deep-copied definitions
resolve back to the registered singleton through :func:`get_metric`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .base import Metric
from .histograms import (
    INTERARRIVAL_DISTRIBUTION,
    RESPONSE_DISTRIBUTION,
    SIZE_DISTRIBUTION,
)
from .locality import LOCALITIES, SPATIAL_LOCALITY, TEMPORAL_LOCALITY
from .size import SIZE_STATS
from .throughput import THROUGHPUT_BY_SIZE_READ, THROUGHPUT_BY_SIZE_WRITE
from .timing import TIMING_STATS

#: Registered metrics by name, in registration order (plain dicts keep
#: insertion order, so listings are deterministic under any hash seed).
REGISTRY: Dict[str, Metric] = {}


def register(metric: Metric) -> Metric:
    """Add ``metric`` to the registry; its ``name`` must be unique."""
    if not metric.name:
        raise ValueError("metric has no name")
    existing = REGISTRY.get(metric.name)
    if existing is not None and existing is not metric:
        raise ValueError(f"metric {metric.name!r} already registered")
    REGISTRY[metric.name] = metric
    return metric


def get_metric(name: str) -> Metric:
    """Look a metric up by registry key."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown metric {name!r}; registered: {', '.join(REGISTRY)}"
        ) from None


def metric_names() -> List[str]:
    """All registry keys, in registration order."""
    return list(REGISTRY)


def all_metrics() -> List[Metric]:
    """All registered metrics, in registration order."""
    return list(REGISTRY.values())


#: The metric set a trace summary folds (what ``stats``/``store stats``
#: print): the Table III/IV rows plus the three figure histograms.
SUMMARY_METRIC_NAMES: Tuple[str, ...] = (
    "size_stats",
    "timing_stats",
    "size_distribution",
    "response_distribution",
    "interarrival_distribution",
)


def summary_metrics() -> List[Metric]:
    """The metrics behind one trace summary, in summary order."""
    return [get_metric(name) for name in SUMMARY_METRIC_NAMES]


for _metric in (
    SIZE_STATS,
    TIMING_STATS,
    SPATIAL_LOCALITY,
    TEMPORAL_LOCALITY,
    LOCALITIES,
    SIZE_DISTRIBUTION,
    RESPONSE_DISTRIBUTION,
    INTERARRIVAL_DISTRIBUTION,
    THROUGHPUT_BY_SIZE_READ,
    THROUGHPUT_BY_SIZE_WRITE,
):
    register(_metric)
del _metric
