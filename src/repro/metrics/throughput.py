"""Per-size average access rate metric (the trace-derived Fig. 3).

For every request size, the mean ``size / response`` rate of the
eligible (completed, positive-response) requests of one operation type.
The streaming state keeps one
:class:`~repro.metrics.reductions.OrderedSum` per size class; because
chunking preserves stream order and each class's values land in its sum
in that same order, ``finalize()`` is each class's left-to-right
:func:`~repro.trace.sequential_sum` mean, bit for bit, under any
chunking.  Folding several traces' columns in order pools them (the
paper pools all 18 traces).

The device-side Fig. 3 measurement (sweeping synthetic back-to-back
requests on an :class:`~repro.emmc.device.EmmcDevice`) is *not* a trace
metric and stays in :mod:`repro.analysis.throughput`.
"""

from __future__ import annotations

from functools import partial
from typing import Dict

import numpy as np

from repro.trace import Op, OP_WRITE, TraceColumns

from .base import Metric
from .reductions import OrderedSum


class ThroughputBySizeState:
    """Single-pass, mergeable per-size mean access rates.

    One instance covers one operation type (read or write) over one
    request stream.  ``collapse=True`` keeps each per-size sum O(1) for
    sequential out-of-core consumption; the default deferred form is
    mergeable across contiguous shard splits.
    """

    __slots__ = ("op_code", "collapse", "_sums")

    def __init__(self, op: Op, collapse: bool = False) -> None:
        self.op_code = OP_WRITE if op is Op.WRITE else 0
        self.collapse = bool(collapse)
        self._sums: Dict[int, OrderedSum] = {}

    def update(self, chunk: TraceColumns) -> None:
        """Fold the next chunk (in stream order) in."""
        if len(chunk) == 0:
            return
        response = chunk.response_us
        # NaN response times (incomplete requests) are excluded by the
        # completed mask; silence their comparison warning.
        with np.errstate(invalid="ignore"):
            eligible = (
                (chunk.op == self.op_code) & chunk.completed_mask & (response > 0)
            )
        if not eligible.any():
            return
        sizes = chunk.size[eligible]
        rates = sizes / response[eligible]
        for size in np.unique(sizes):
            key = int(size)
            ordered = self._sums.get(key)
            if ordered is None:
                ordered = self._sums[key] = OrderedSum(collapse=self.collapse)
            ordered.update(rates[sizes == size])

    def merge(self, other: "ThroughputBySizeState") -> None:
        """Absorb the summary of the stream segment following this one."""
        if other.op_code != self.op_code:
            raise ValueError("cannot merge throughput summaries of different ops")
        for key, ordered in other._sums.items():
            mine = self._sums.get(key)
            if mine is None:
                self._sums[key] = mine = OrderedSum(collapse=self.collapse)
            mine.merge(ordered)

    def finalize(self, name: str = "") -> Dict[int, float]:
        """Per-size mean rates (MB/s), keyed by size in bytes, ascending."""
        return {
            size: self._sums[size].total() / self._sums[size].count
            for size in sorted(self._sums)
        }


_THROUGHPUT_DOC = "{size bytes: mean MB/s} of completed requests (Fig. 3, trace-derived)"

#: The registered singletons (see :mod:`repro.metrics.registry`): one per
#: ``Op``, because a metric definition is a closed statistic -- registry
#: consumers must be able to run it without passing extra parameters.
#: The per-size OrderedSums carry stream order internally.
THROUGHPUT_BY_SIZE_READ = Metric(
    "throughput_by_size_read", _THROUGHPUT_DOC, partial(ThroughputBySizeState, Op.READ)
)
THROUGHPUT_BY_SIZE_WRITE = Metric(
    "throughput_by_size_write", _THROUGHPUT_DOC, partial(ThroughputBySizeState, Op.WRITE)
)
