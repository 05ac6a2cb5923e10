"""Spatial and temporal locality, per the paper's definitions (Section III-C).

Thin adapter: the metrics are defined in :mod:`repro.metrics.locality` (one
definition, three engines); this module keeps the whole-trace
convenience signatures the analysis layer has always offered.
"""

from __future__ import annotations

from repro.metrics.locality import (
    LOCALITIES,
    Localities,
    SPATIAL_LOCALITY,
    TEMPORAL_LOCALITY,
)
from repro.trace import Trace

__all__ = ["Localities", "measure", "spatial_locality", "temporal_locality"]


def spatial_locality(trace: Trace) -> float:
    """Fraction of requests that start exactly at their predecessor's end."""
    return SPATIAL_LOCALITY.batch(trace.columns())


def temporal_locality(trace: Trace) -> float:
    """Fraction of requests whose start address was accessed before."""
    return TEMPORAL_LOCALITY.batch(trace.columns())


def measure(trace: Trace) -> Localities:
    """Both localities in one pass-friendly call."""
    return LOCALITIES.batch(trace.columns())
