"""Summary-metric-set vs scalar-oracle bit-identity across workloads and chunkings.

Every assertion in this module uses ``==`` on floats (never
``pytest.approx``): the contract of
``MetricSetState(summary_metrics())`` -- the one-pass Tables III/IV and
Figs. 4-6 bundle -- is that the chunked, mergeable pass produces *the
same bits* as the request-loop oracles in ``tests/analysis/oracles.py``,
for any chunk size and any contiguous shard split of the stream.
"""

import numpy as np
import pytest

from repro.metrics import (
    SUMMARY_METRIC_NAMES,
    LocalitiesState,
    MetricSetState,
    ThroughputBySizeState,
    chunked,
    fold_chunks,
    summary_metrics,
)
from repro.trace import Op, Trace
from repro.workloads import ALL_TRACES, generate_trace
from repro.workloads.collection import collect

from tests.analysis.oracles import (
    _reference_measure,
    _reference_trace_throughput_by_size,
    oracle_values,
)

#: Apps whose replayed (closed-loop) traces are checked end to end;
#: the rest are checked on their generated form, which exercises the
#: same code paths far faster.
REPLAYED_APPS = ("Email", "AngryBrid", "CameraVideo")


def _oracle_summary(trace):
    return oracle_values(trace, SUMMARY_METRIC_NAMES)


def _assert_matches_oracle(summary, trace):
    oracle = _oracle_summary(trace)
    assert summary["size_stats"] == oracle["size_stats"]
    assert summary["timing_stats"] == oracle["timing_stats"]
    assert summary["size_distribution"] == oracle["size_distribution"]
    assert summary["response_distribution"] == oracle["response_distribution"]
    assert summary["interarrival_distribution"] == oracle["interarrival_distribution"]


def _summary_state(collapse=False):
    return MetricSetState(summary_metrics(), collapse=collapse)


def _fold(trace, chunk_rows, collapse):
    streaming = _summary_state(collapse=collapse)
    for chunk in chunked(trace.columns(), chunk_rows):
        streaming.update(chunk)
    return streaming.finalize(trace.name)


class TestAllTraces:
    """Every one of the paper's 25 workloads, generated form."""

    @pytest.mark.parametrize("name", ALL_TRACES)
    def test_generated_trace_bits_match(self, name):
        trace = generate_trace(name, seed=7, num_requests=700)
        _assert_matches_oracle(_fold(trace, 137, collapse=True), trace)

    @pytest.mark.parametrize("name", REPLAYED_APPS)
    def test_replayed_trace_bits_match(self, name):
        trace = collect(name, seed=5, num_requests=200).trace
        _assert_matches_oracle(_fold(trace, 41, collapse=True), trace)
        _assert_matches_oracle(_fold(trace, 41, collapse=False), trace)


class TestChunkingInvariance:
    """The chunk size must never change a single output bit."""

    @pytest.mark.parametrize("name", ["Email", "Twitter"])
    @pytest.mark.parametrize("collapse", [False, True])
    def test_extreme_chunkings(self, name, collapse):
        trace = collect(name, seed=9, num_requests=150).trace
        n = len(trace)
        oracle = _oracle_summary(trace)
        for rows in (1, 7, n - 1, n, 10 * n):
            summary = _fold(trace, rows, collapse)
            assert summary["size_stats"] == oracle["size_stats"]
            assert summary["timing_stats"] == oracle["timing_stats"]
            assert summary["size_distribution"] == oracle["size_distribution"]
            assert summary["response_distribution"] == oracle["response_distribution"]
            assert (
                summary["interarrival_distribution"]
                == oracle["interarrival_distribution"]
            )

    def test_fold_chunks_helper(self):
        trace = collect("Email", seed=9, num_requests=150).trace
        summary = fold_chunks(
            summary_metrics(), chunked(trace.columns(), 13), trace.name
        )
        _assert_matches_oracle(summary, trace)


class TestShardMerge:
    """Random contiguous shard splits merge to the exact oracle bits."""

    @pytest.mark.parametrize("name", ["Email", "YouTube", "Installing"])
    def test_random_splits(self, name):
        trace = collect(name, seed=11, num_requests=180).trace
        columns = trace.columns()
        n = len(columns)
        oracle = _oracle_summary(trace)
        rng = np.random.default_rng(hash(name) % (2**32))
        for trial in range(5):
            cuts = np.sort(rng.choice(np.arange(1, n), 3, replace=False))
            bounds = [0, *cuts.tolist(), n]
            shards = []
            for a, b in zip(bounds, bounds[1:]):
                shard = _summary_state()
                for chunk in chunked(columns.select(slice(a, b)), 29):
                    shard.update(chunk)
                shards.append(shard)
            # Left fold of the merge tree.
            left = shards[0]
            for shard in shards[1:]:
                left.merge(shard)
            summary = left.finalize(trace.name)
            assert summary["size_stats"] == oracle["size_stats"]
            assert summary["timing_stats"] == oracle["timing_stats"]
            assert summary["size_distribution"] == oracle["size_distribution"]
            assert summary["response_distribution"] == oracle["response_distribution"]
            assert (
                summary["interarrival_distribution"]
                == oracle["interarrival_distribution"]
            )

    def test_collapsed_leftmost_shard_absorbs_deferred_rest(self):
        trace = collect("Email", seed=11, num_requests=160).trace
        columns = trace.columns()
        left = _summary_state(collapse=True)
        for chunk in chunked(columns.select(slice(0, 60)), 17):
            left.update(chunk)
        right = _summary_state()
        for chunk in chunked(columns.select(slice(60, len(columns))), 23):
            right.update(chunk)
        left.merge(right)
        _assert_matches_oracle(left.finalize(trace.name), trace)


class TestEmptyTrace:
    def test_empty_stream_equals_batch_on_empty_trace(self):
        trace = Trace("empty", [])
        summary = _summary_state().finalize("empty")
        _assert_matches_oracle(summary, trace)

    def test_empty_chunks_are_no_ops(self):
        trace = collect("Email", seed=3, num_requests=100).trace
        columns = trace.columns()
        streaming = _summary_state()
        streaming.update(columns.select(slice(0, 0)))
        for chunk in chunked(columns, 31):
            streaming.update(chunk)
            streaming.update(columns.select(slice(0, 0)))
        _assert_matches_oracle(streaming.finalize(trace.name), trace)


class TestLocalities:
    @pytest.mark.parametrize("name", ALL_TRACES[::4])
    def test_matches_measure(self, name):
        trace = generate_trace(name, seed=13, num_requests=500)
        streaming = LocalitiesState()
        for chunk in chunked(trace.columns(), 61):
            streaming.update(chunk)
        assert streaming.finalize() == _reference_measure(trace)

    def test_shard_merge_matches_measure(self):
        trace = generate_trace("Email", seed=13, num_requests=400)
        columns = trace.columns()
        shards = []
        for a, b in ((0, 5), (5, 123), (123, 400)):
            shard = LocalitiesState()
            for chunk in chunked(columns.select(slice(a, b)), 19):
                shard.update(chunk)
            shards.append(shard)
        left = shards[0]
        for shard in shards[1:]:
            left.merge(shard)
        assert left.finalize() == _reference_measure(trace)


class TestThroughput:
    @pytest.mark.parametrize("op", [Op.READ, Op.WRITE])
    def test_matches_batch_kernel(self, op):
        traces = [collect(n, seed=17, num_requests=150).trace for n in REPLAYED_APPS]
        expected = _reference_trace_throughput_by_size(traces, op)
        streaming = ThroughputBySizeState(op, collapse=True)
        for trace in traces:
            for chunk in chunked(trace.columns(), 37):
                streaming.update(chunk)
        assert streaming.finalize() == expected

    def test_shard_merge(self):
        traces = [collect(n, seed=17, num_requests=150).trace for n in REPLAYED_APPS]
        expected = _reference_trace_throughput_by_size(traces, Op.READ)
        shards = []
        for trace in traces:
            shard = ThroughputBySizeState(Op.READ)
            for chunk in chunked(trace.columns(), 53):
                shard.update(chunk)
            shards.append(shard)
        left = shards[0]
        for shard in shards[1:]:
            left.merge(shard)
        assert left.finalize() == expected
