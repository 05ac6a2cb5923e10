"""Engine parity across every workload: every engine == the scalar oracle.

``test_registry_properties`` quantifies over arbitrary chunkings of one
trace; this suite quantifies over the *workloads*: every registered
metric, on all 25 paper traces, folded at the adversarial chunk sizes
(1 row, a small prime, one-short-of-everything, everything, and one
chunk larger than the stream) must finalize to the exact bits of its
request-loop oracle (``tests/analysis/oracles.py``), as must
``metric.batch``.  Replayed traces additionally exercise the
completed-timestamp fields (service/response sums, the no-wait ratio).
"""

import pytest

from repro.metrics import all_metrics, chunked, fold_chunks, metric_names
from repro.trace import Trace
from repro.workloads import ALL_TRACES, generate_trace
from repro.workloads.collection import collect

from tests.analysis.oracles import ORACLES, oracle_values

#: Per-trace request budget: large enough that every bucket and both ops
#: appear, small enough that 25 traces x 5 chunkings stay fast.
_NUM_REQUESTS = 400

#: Replayed (closed-loop collected) apps: the completed-field coverage.
_REPLAYED = ("Email", "AngryBrid", "CameraVideo")


def _chunk_sizes(n):
    return sorted({1, 7, max(1, n - 1), n, 10 * n})


def _assert_engine_parity(trace):
    columns = trace.columns()
    metrics = all_metrics()
    oracle = oracle_values(trace, [metric.name for metric in metrics])
    for metric in metrics:
        assert metric.batch(columns, trace.name) == oracle[metric.name], metric.name
    for chunk_rows in _chunk_sizes(len(columns)):
        folded = fold_chunks(
            metrics, chunked(columns, chunk_rows), trace.name, collapse=True
        )
        for metric in metrics:
            assert folded[metric.name] == oracle[metric.name], (
                f"{metric.name} diverges at chunk_rows={chunk_rows}"
            )


@pytest.mark.parametrize("app", ALL_TRACES)
def test_all_metrics_all_traces(app):
    """Every registered metric, every paper workload, adversarial chunks."""
    _assert_engine_parity(generate_trace(app, seed=7, num_requests=_NUM_REQUESTS))


@pytest.mark.parametrize("app", _REPLAYED)
def test_all_metrics_replayed_traces(app):
    """Same contract with completed timestamps (service/response/no-wait)."""
    _assert_engine_parity(collect(app, seed=11, num_requests=200).trace)


def test_empty_and_single_row_streams():
    """Degenerate streams: no chunks at all, and exactly one row."""
    trace = generate_trace("Email", seed=3, num_requests=1)
    _assert_engine_parity(trace)
    metrics = all_metrics()
    empty = trace.columns().select(slice(0, 0))
    oracle = oracle_values(Trace("empty", []), [metric.name for metric in metrics])
    folded = fold_chunks(metrics, [], "empty", collapse=True)
    for metric in metrics:
        assert metric.batch(empty, "empty") == oracle[metric.name], metric.name
        assert folded[metric.name] == oracle[metric.name], metric.name


def test_every_registered_metric_has_an_oracle():
    """The oracle map covers the registry exactly, so no metric goes unchecked."""
    assert set(ORACLES) == set(metric_names())
