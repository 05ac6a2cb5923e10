"""Unified metric layer: one definition per statistic, three engines.

Every statistic the paper reports -- the Table III/IV rows, the
Figs. 4-6 histograms, the localities, the trace-derived Fig. 3 curve --
is written exactly once, as a mergeable streaming state, and declared
as a :class:`~repro.metrics.base.Metric` over it.  The state's
``finalize`` is the same bits under any chunking and any contiguous
shard split, and ``batch`` is the one-chunk fold (see
:mod:`repro.metrics.base` for the contract and
:mod:`repro.metrics.reductions` for the float-fold machinery).

:mod:`repro.analysis` (whole-trace convenience functions) is a thin
adapter over this package; the registry (:mod:`repro.metrics.registry`)
is the single namespace every engine -- the CLI, the out-of-core store
path, the parallel experiment runner -- resolves metrics from, and
:mod:`repro.metrics.driver` folds any metric set over a chunk stream.
"""

from .base import ENGINES, Metric
from .buckets import HistogramState
from .driver import MetricSetState, fold_chunks
from .histograms import (
    INTERARRIVAL_DISTRIBUTION,
    InterarrivalHistogramState,
    RESPONSE_DISTRIBUTION,
    ResponseHistogramState,
    SIZE_DISTRIBUTION,
    SizeHistogramState,
)
from .locality import (
    LOCALITIES,
    Localities,
    LocalitiesState,
    SPATIAL_LOCALITY,
    SpatialLocalityState,
    TEMPORAL_LOCALITY,
    TemporalLocalityState,
)
from .reductions import OrderedSum, chunked
from .registry import (
    REGISTRY,
    SUMMARY_METRIC_NAMES,
    all_metrics,
    get_metric,
    metric_names,
    register,
    summary_metrics,
)
from .size import SIZE_STATS, SizeStats, SizeStatsState
from .throughput import (
    THROUGHPUT_BY_SIZE_READ,
    THROUGHPUT_BY_SIZE_WRITE,
    ThroughputBySizeState,
)
from .timing import (
    NO_WAIT_TOLERANCE_US,
    NoWaitState,
    TIMING_STATS,
    TimingStats,
    TimingStatsState,
)

__all__ = [
    "ENGINES",
    "Metric",
    "MetricSetState",
    "fold_chunks",
    "OrderedSum",
    "chunked",
    "REGISTRY",
    "SUMMARY_METRIC_NAMES",
    "all_metrics",
    "get_metric",
    "metric_names",
    "register",
    "summary_metrics",
    # size
    "SIZE_STATS",
    "SizeStats",
    "SizeStatsState",
    # timing
    "NO_WAIT_TOLERANCE_US",
    "NoWaitState",
    "TIMING_STATS",
    "TimingStats",
    "TimingStatsState",
    # locality
    "LOCALITIES",
    "Localities",
    "LocalitiesState",
    "SPATIAL_LOCALITY",
    "SpatialLocalityState",
    "TEMPORAL_LOCALITY",
    "TemporalLocalityState",
    # histograms
    "HistogramState",
    "SizeHistogramState",
    "ResponseHistogramState",
    "InterarrivalHistogramState",
    "SIZE_DISTRIBUTION",
    "RESPONSE_DISTRIBUTION",
    "INTERARRIVAL_DISTRIBUTION",
    # throughput
    "THROUGHPUT_BY_SIZE_READ",
    "THROUGHPUT_BY_SIZE_WRITE",
    "ThroughputBySizeState",
]
