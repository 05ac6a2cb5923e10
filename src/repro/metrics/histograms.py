"""Bucketed-distribution metrics (Figs. 4/5/6/7, paper bucket edges).

Each state bins one column per chunk through the generic
:class:`~repro.metrics.buckets.HistogramState` (first matching bucket
wins) and divides integer counts by the total value count at the end.
Bucket membership is an element-wise comparison, so chunking cannot
change a count, and ``finalize()`` is the same on any chunking and any
merge tree.

Only the inter-arrival histogram carries boundary state: the gap that
straddles two chunks (or two merged shards) is computed from the carried
``last_arrival_us`` with the same subtraction ``np.diff`` performs.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.trace import TraceColumns, US_PER_MS
from repro.metrics.buckets import (
    HistogramState,
    INTERARRIVAL_BUCKETS_MS,
    RESPONSE_BUCKETS_MS,
    SIZE_BUCKETS,
)

from .base import Metric


class SizeHistogramState(HistogramState):
    """Fig. 4 / 7a: request-size distribution over the paper's buckets."""

    __slots__ = ()

    def __init__(self, collapse: bool = False) -> None:
        del collapse  # integer counts: one state form serves every engine
        super().__init__(SIZE_BUCKETS)

    def update(self, chunk: TraceColumns) -> None:
        self.update_values(chunk.size)


class ResponseHistogramState(HistogramState):
    """Fig. 5 / 7b: response-time distribution of completed requests."""

    __slots__ = ()

    def __init__(self, collapse: bool = False) -> None:
        del collapse
        super().__init__(RESPONSE_BUCKETS_MS)

    def update(self, chunk: TraceColumns) -> None:
        completed_mask = chunk.completed_mask
        if completed_mask.any():
            self.update_values(chunk.response_us[completed_mask] / US_PER_MS)


class InterarrivalHistogramState(HistogramState):
    """Fig. 6 / 7c: inter-arrival-time distribution, with boundary state."""

    __slots__ = ("first_arrival_us", "last_arrival_us", "requests")

    def __init__(self, collapse: bool = False) -> None:
        del collapse
        super().__init__(INTERARRIVAL_BUCKETS_MS)
        self.first_arrival_us: Optional[float] = None
        self.last_arrival_us: Optional[float] = None
        self.requests = 0

    def update(self, chunk: TraceColumns) -> None:
        rows = len(chunk)
        if rows == 0:
            return
        arrivals = chunk.arrival_us
        gaps = np.diff(arrivals) if rows > 1 else np.empty(0, dtype=np.float64)
        if self.last_arrival_us is not None:
            crossing = np.array(
                [float(arrivals[0]) - self.last_arrival_us], dtype=np.float64
            )
            gaps = np.concatenate((crossing, gaps))
        self.update_values(gaps / US_PER_MS)
        if self.first_arrival_us is None:
            self.first_arrival_us = float(arrivals[0])
        self.last_arrival_us = float(arrivals[-1])
        self.requests += rows

    def merge(self, other: "InterarrivalHistogramState") -> None:  # type: ignore[override]
        """Absorb the summary of the stream segment following this one."""
        if other.requests == 0:
            return
        if self.requests:
            assert other.first_arrival_us is not None
            assert self.last_arrival_us is not None
            crossing = np.array(
                [other.first_arrival_us - self.last_arrival_us], dtype=np.float64
            )
            self.update_values(crossing / US_PER_MS)
            self.last_arrival_us = other.last_arrival_us
        else:
            self.first_arrival_us = other.first_arrival_us
            self.last_arrival_us = other.last_arrival_us
        HistogramState.merge(self, other)
        self.requests += other.requests


#: The registered singletons (see :mod:`repro.metrics.registry`).
SIZE_DISTRIBUTION = Metric(
    "size_distribution",
    "{bucket label: fraction} over SIZE_BUCKETS (Fig. 4/7a)",
    SizeHistogramState,
    carry_fields=(),  # element-wise binning: order-insensitive
)
RESPONSE_DISTRIBUTION = Metric(
    "response_distribution",
    "{bucket label: fraction} over RESPONSE_BUCKETS_MS (Fig. 5/7b)",
    ResponseHistogramState,
)
INTERARRIVAL_DISTRIBUTION = Metric(
    "interarrival_distribution",
    "{bucket label: fraction} over INTERARRIVAL_BUCKETS_MS (Fig. 6/7c)",
    InterarrivalHistogramState,
    carry_fields=("first_arrival_us", "last_arrival_us"),
)
