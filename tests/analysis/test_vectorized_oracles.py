"""Property-style bit-identity tests: vectorized kernels vs scalar oracles.

Every vectorized analysis kernel keeps its original request-loop
implementation as a ``_reference_*`` oracle in ``tests/analysis/oracles.py``.
These tests feed both sides
randomized traces -- including the edge cases the columnar layer must get
right (empty, single-request, all-reads, all-writes, duplicate-LBA,
unsorted constructor input) -- and require **exact** equality: the
experiment digests are byte-compared in CI, so "close" is not enough.
"""

import numpy as np
import pytest

from repro.analysis.correlation import _rank, size_response_correlation
from repro.analysis.distributions import (
    interarrival_distribution,
    long_gap_share,
    response_distribution,
    size_distribution,
)
from repro.analysis.locality import spatial_locality, temporal_locality
from repro.analysis.percentiles import response_percentiles_ms, service_percentiles_ms
from repro.analysis.size_stats import size_stats
from repro.analysis.throughput import trace_throughput_by_size
from repro.analysis.timing_stats import timing_stats
from repro.trace import Op, Request, SECTOR, Trace
from repro.metrics.buckets import (
    INTERARRIVAL_BUCKETS_MS,
    RESPONSE_BUCKETS_MS,
    SIZE_BUCKETS,
    histogram,
)
from repro.workloads.sizes import calibrate

from .oracles import (
    _reference_histogram,
    _reference_interarrival_distribution,
    _reference_long_gap_share,
    _reference_rank,
    _reference_response_distribution,
    _reference_response_percentiles_ms,
    _reference_service_percentiles_ms,
    _reference_size_distribution,
    _reference_size_response_correlation,
    _reference_size_stats,
    _reference_spatial_locality,
    _reference_temporal_locality,
    _reference_timing_stats,
    _reference_trace_throughput_by_size,
)


def _random_trace(
    seed,
    count,
    completed_frac=0.7,
    all_reads=False,
    all_writes=False,
    duplicate_lba=False,
    unsorted=False,
):
    """One randomized trace exercising a chosen edge case."""
    rng = np.random.default_rng(seed)
    requests = []
    arrival = 0.0
    for _ in range(count):
        arrival += float(rng.exponential(5000.0))
        pages = int(rng.integers(1, 65))
        size = pages * SECTOR
        if duplicate_lba:
            lba = int(rng.integers(0, 4)) * SECTOR
        else:
            lba = int(rng.integers(0, 1 << 20)) * SECTOR
        if all_reads:
            op = Op.READ
        elif all_writes:
            op = Op.WRITE
        else:
            op = Op.WRITE if rng.random() < 0.6 else Op.READ
        if rng.random() < completed_frac:
            wait = float(rng.exponential(150.0))
            service = 1.0 + float(rng.exponential(900.0))
            requests.append(
                Request(
                    arrival_us=arrival,
                    lba=lba,
                    size=size,
                    op=op,
                    service_start_us=arrival + wait,
                    finish_us=arrival + wait + service,
                )
            )
        else:
            requests.append(Request(arrival_us=arrival, lba=lba, size=size, op=op))
    if unsorted:
        order = rng.permutation(len(requests))
        requests = [requests[int(i)] for i in order]
    return Trace(name=f"rand{seed}", requests=requests)


CASES = [
    pytest.param(_random_trace(0, 0), id="empty"),
    pytest.param(_random_trace(1, 1), id="single-completed"),
    pytest.param(_random_trace(2, 1, completed_frac=0.0), id="single-unreplayed"),
    pytest.param(_random_trace(3, 400, all_reads=True), id="all-reads"),
    pytest.param(_random_trace(4, 400, all_writes=True), id="all-writes"),
    pytest.param(_random_trace(5, 400, duplicate_lba=True), id="duplicate-lba"),
    pytest.param(_random_trace(6, 400, unsorted=True), id="unsorted"),
    pytest.param(_random_trace(7, 600), id="mixed"),
    pytest.param(_random_trace(8, 600, completed_frac=0.0), id="never-replayed"),
    pytest.param(_random_trace(9, 600, completed_frac=1.0), id="fully-replayed"),
]


@pytest.mark.parametrize("trace", CASES)
def test_localities_match_oracle(trace):
    assert spatial_locality(trace) == _reference_spatial_locality(trace)
    assert temporal_locality(trace) == _reference_temporal_locality(trace)


@pytest.mark.parametrize("trace", CASES)
def test_size_stats_match_oracle(trace):
    assert size_stats(trace) == _reference_size_stats(trace)


@pytest.mark.parametrize("trace", CASES)
def test_timing_stats_match_oracle(trace):
    assert timing_stats(trace) == _reference_timing_stats(trace)


@pytest.mark.parametrize("trace", CASES)
def test_distributions_match_oracle(trace):
    assert size_distribution(trace) == _reference_size_distribution(trace)
    assert response_distribution(trace) == _reference_response_distribution(trace)
    assert interarrival_distribution(trace) == _reference_interarrival_distribution(
        trace
    )
    for threshold in (1.0, 16.0, 256.0):
        assert long_gap_share(trace, threshold_ms=threshold) == _reference_long_gap_share(
            trace, threshold_ms=threshold
        )


@pytest.mark.parametrize("trace", CASES)
def test_percentiles_match_oracle(trace):
    assert response_percentiles_ms(trace) == _reference_response_percentiles_ms(trace)
    assert service_percentiles_ms(trace) == _reference_service_percentiles_ms(trace)


@pytest.mark.parametrize("trace", CASES)
def test_correlation_matches_oracle(trace):
    for use_service in (False, True):
        assert size_response_correlation(
            trace, use_service=use_service
        ) == _reference_size_response_correlation(trace, use_service=use_service)


def test_throughput_by_size_matches_oracle():
    traces = [
        _random_trace(20, 300),
        _random_trace(21, 300, duplicate_lba=True),
        _random_trace(22, 1, completed_frac=0.0),
        _random_trace(23, 0),
    ]
    for op in (Op.READ, Op.WRITE):
        assert trace_throughput_by_size(traces, op) == _reference_trace_throughput_by_size(
            traces, op
        )


def test_rank_matches_oracle_with_ties():
    rng = np.random.default_rng(11)
    for n in (0, 1, 2, 17, 500):
        # Coarse quantization forces plenty of ties.
        values = np.floor(rng.standard_normal(n) * 3.0)
        np.testing.assert_array_equal(_rank(values), _reference_rank(values))


def test_histogram_matches_oracle():
    rng = np.random.default_rng(13)
    sizes = (rng.integers(1, 400, 2000) * SECTOR).astype(np.float64)
    times_ms = rng.lognormal(1.0, 2.0, 2000)
    for values, buckets in [
        ([], SIZE_BUCKETS),
        ([0.0, -1.0], SIZE_BUCKETS),  # outside every bucket: ignored by both
        (sizes.tolist(), SIZE_BUCKETS),
        (times_ms.tolist(), RESPONSE_BUCKETS_MS),
        (times_ms.tolist(), INTERARRIVAL_BUCKETS_MS),
        ([4096.0, 4096.0 * 2, 4096.0], SIZE_BUCKETS),  # exact edge hits
    ]:
        assert histogram(values, buckets) == _reference_histogram(values, buckets)


def test_size_model_sample_is_stream_identical_to_choice():
    """The cdf-searchsorted fast path must consume the *same* RNG draws.

    Interleaved draws from two identically-seeded generators stay aligned
    for thousands of samples, and a final uncorrelated draw confirms both
    streams are at the same position.
    """
    model = calibrate(frac_4k=0.5, mean_pages=6.0, max_pages=512)
    fast_rng = np.random.default_rng(99)
    ref_rng = np.random.default_rng(99)
    for _ in range(5000):
        assert model.sample(fast_rng) == model._reference_sample(ref_rng)
    assert fast_rng.random() == ref_rng.random()
