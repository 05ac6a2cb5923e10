"""Bucketed distributions: Figs. 4, 5, 6 and 7 of the paper.

Each figure is a per-application stacked histogram; here a distribution is
a ``{bucket label: fraction}`` dict over the paper's bucket edges (see
:mod:`repro.metrics.buckets`).

Thin adapter: the three distribution metrics are defined in
:mod:`repro.metrics.histograms` (one definition, three engines); the
derived shares (Characteristics 2 and 6) stay here as whole-trace
conveniences.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.metrics.histograms import (
    INTERARRIVAL_DISTRIBUTION,
    RESPONSE_DISTRIBUTION,
    SIZE_DISTRIBUTION,
)
from repro.trace import Trace, US_PER_MS

__all__ = [
    "size_distribution",
    "response_distribution",
    "interarrival_distribution",
    "small_request_share",
    "long_gap_share",
]


def size_distribution(trace: Trace) -> Dict[str, float]:
    """Fig. 4 / Fig. 7a: request size histogram (fractions per bucket)."""
    return SIZE_DISTRIBUTION.batch(trace.columns())


def response_distribution(trace: Trace) -> Dict[str, float]:
    """Fig. 5 / Fig. 7b: response-time histogram, for a replayed trace."""
    return RESPONSE_DISTRIBUTION.batch(trace.columns())


def interarrival_distribution(trace: Trace) -> Dict[str, float]:
    """Fig. 6 / Fig. 7c: inter-arrival-time histogram."""
    return INTERARRIVAL_DISTRIBUTION.batch(trace.columns())


def small_request_share(trace: Trace) -> float:
    """Fraction of single-page (<= 4 KB) requests (Characteristic 2)."""
    return size_distribution(trace).get("<=4K", 0.0)


def long_gap_share(trace: Trace, threshold_ms: float = 16.0) -> float:
    """Fraction of inter-arrival gaps above ``threshold_ms`` (Char. 6)."""
    gaps = trace.columns().inter_arrival_us
    if not gaps.size:
        return 0.0
    return int(np.count_nonzero(gaps > threshold_ms * US_PER_MS)) / gaps.size
