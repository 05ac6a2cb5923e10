"""Property-based enforcement of the registry's exactness contract.

For **every** registered metric (the suite quantifies over the registry,
so a newly added metric is covered the moment it registers), hypothesis
draws arbitrary contiguous partitions of one replayed trace's stream and
requires -- with ``==`` on floats, never approx -- agreement with the
metric's scalar request-loop oracle (``tests/analysis/oracles.py``):

* out-of-core: ``finalize(fold(chunks)) == oracle(whole stream)`` for
  any chunking;
* sharded: any contiguous shard split, merged left to right, reproduces
  the oracle bits;
* merge associativity: a pairwise merge tree over the shards equals the
  sequential left fold, bit for bit -- which is what licenses the
  parallel experiment runner's arbitrary merge order.
"""

import copy
import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import MetricSetState, all_metrics, get_metric
from repro.workloads.collection import collect

from tests.analysis.oracles import oracle_values

#: One completed (replayed) trace shared by every example: collection is
#: the expensive part, and the properties quantify over chunkings and
#: splits of the stream, not over workloads (tests/metrics/
#: test_engine_parity.py covers all 25 of those).
_TRACE = collect("Email", seed=5, num_requests=150).trace
_COLUMNS = _TRACE.columns()
_N = len(_COLUMNS)
_METRICS = tuple(all_metrics())
_ORACLE = oracle_values(_TRACE, [metric.name for metric in _METRICS])


#: Interior cut points 0 < c < N, drawn without replacement; with the
#: {0, N} endpoints they define an arbitrary contiguous partition.
cuts_strategy = st.lists(
    st.integers(min_value=1, max_value=_N - 1),
    unique=True,
    min_size=0,
    max_size=12,
).map(sorted)


def _segments(cuts):
    bounds = [0, *cuts, _N]
    return [_COLUMNS.select(slice(a, b)) for a, b in zip(bounds, bounds[1:])]


def _assert_oracle_bits(values) -> None:
    for metric in _METRICS:
        assert values[metric.name] == _ORACLE[metric.name], metric.name


@given(cuts=cuts_strategy)
@settings(max_examples=40, deadline=None)
def test_fold_of_any_chunking_equals_batch(cuts):
    """Out-of-core engine: finalize(fold(chunks)) == oracle(whole trace)."""
    values = {
        metric.name: metric.fold(_segments(cuts), _TRACE.name, collapse=True)
        for metric in _METRICS
    }
    _assert_oracle_bits(values)


@given(cuts=cuts_strategy)
@settings(max_examples=40, deadline=None)
def test_any_shard_split_merges_to_batch_bits(cuts):
    """Sharded engine: independent shard states merge to the oracle bits."""
    shards = []
    for segment in _segments(cuts):
        shard = MetricSetState(_METRICS)
        shard.update(segment)
        shards.append(shard)
    merged = shards[0]
    for shard in shards[1:]:
        merged.merge(shard)
    _assert_oracle_bits(merged.finalize(_TRACE.name))


@given(cuts=cuts_strategy)
@settings(max_examples=25, deadline=None)
def test_merge_tree_order_invariance(cuts):
    """A pairwise merge tree equals the sequential left fold, bit for bit."""
    shards = []
    for segment in _segments(cuts):
        shard = MetricSetState(_METRICS)
        shard.update(segment)
        shards.append(shard)

    sequential = copy.deepcopy(shards[0])
    for shard in shards[1:]:
        sequential.merge(copy.deepcopy(shard))

    level = shards
    while len(level) > 1:
        merged_level = []
        for index in range(0, len(level) - 1, 2):
            level[index].merge(level[index + 1])
            merged_level.append(level[index])
        if len(level) % 2:
            merged_level.append(level[-1])
        level = merged_level
    tree = level[0]

    a = sequential.finalize(_TRACE.name)
    b = tree.finalize(_TRACE.name)
    for metric in _METRICS:
        assert a[metric.name] == b[metric.name], metric.name
    _assert_oracle_bits(b)


@given(
    cuts=cuts_strategy,
    chunk_rows=st.integers(min_value=1, max_value=2 * _N),
)
@settings(max_examples=25, deadline=None)
def test_rechunked_shards_compose(cuts, chunk_rows):
    """Chunking *within* each shard composes with merging across shards."""
    merged = None
    for segment in _segments(cuts):
        shard = MetricSetState(_METRICS)
        position = 0
        while position < len(segment):
            take = min(chunk_rows, len(segment) - position)
            shard.update(segment.select(slice(position, position + take)))
            position += take
        if merged is None:
            merged = shard
        else:
            merged.merge(shard)
    _assert_oracle_bits(merged.finalize(_TRACE.name))


def test_pickled_shard_states_still_merge():
    """Shard states cross process boundaries by pickle; their metrics
    unpickle to the registry singletons, so the states still merge."""
    split = _N // 2
    shards = []
    for segment in (_COLUMNS.select(slice(0, split)), _COLUMNS.select(slice(split, _N))):
        shard = MetricSetState(_METRICS)
        shard.update(segment)
        shards.append(shard)
    unpickled = [pickle.loads(pickle.dumps(shard)) for shard in shards]
    unpickled[0].merge(unpickled[1])
    assert unpickled[0].metrics == _METRICS
    shards[0].merge(shards[1])
    assert unpickled[0].finalize(_TRACE.name) == shards[0].finalize(_TRACE.name)
    _assert_oracle_bits(unpickled[0].finalize(_TRACE.name))


def test_metric_definitions_copy_to_themselves():
    """Deep copies and pickles of a state share the registered definitions."""
    for metric in _METRICS:
        assert copy.deepcopy(metric) is metric
        assert pickle.loads(pickle.dumps(metric)) is metric


def test_registry_lookup_and_order():
    names = [metric.name for metric in _METRICS]
    assert names == sorted(set(names), key=names.index)  # unique, ordered
    assert "size_stats" in names and "timing_stats" in names
    for name in names:
        assert get_metric(name).name == name


def test_unknown_metric_raises_with_listing():
    try:
        get_metric("no_such_metric")
    except KeyError as error:
        assert "size_stats" in str(error)
    else:  # pragma: no cover
        raise AssertionError("expected KeyError")


def test_register_rejects_duplicates_and_unnamed():
    import pytest

    from repro.metrics import SizeStatsState
    from repro.metrics.base import Metric
    from repro.metrics.registry import register

    with pytest.raises(ValueError, match="already registered"):
        register(Metric("size_stats", "collides", SizeStatsState))
    with pytest.raises(ValueError, match="no name"):
        register(Metric("", "unnamed", SizeStatsState))
    # Re-registering the same object is idempotent.
    existing = get_metric("timing_stats")
    assert register(existing) is existing
