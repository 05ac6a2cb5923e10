"""The unified metric layer holds both inherited performance floors.

The metric-kernel refactor rerouted the analysis adapters, the streaming
summaries and the experiment shard workers through one registry of
:class:`~repro.metrics.base.Metric` definitions.  Two earlier PRs
promised floors that must survive the indirection:

* the columnar-kernels PR: the registry battery is >=3x the
  scalar request-loop oracles (now kept in ``tests/analysis/oracles.py``);
* the trace-store PR: persisting + summarizing through the binary store
  and the out-of-core engine is >=3x the CSV round trip + in-memory fold.

Both benchmarks run the registry paths -- ``fold_chunks`` over
``all_metrics()`` on one in-memory chunk and over ``summary_metrics()``
on the store's chunks -- so a slow registry dispatch or a pessimized
state shows up here, and both assert bit-identity before timing is even
considered.
"""

from __future__ import annotations

import time

from repro.metrics import all_metrics, fold_chunks, summary_metrics
from repro.store import open_store, pack
from repro.trace import dumps, loads
from repro.workloads import generate_trace

from conftest import BENCH_SEED, run_once
from test_bench_analysis import _big_replayed_trace
from tests.analysis.oracles import oracle_values

#: The inherited floors; in practice both land far above.
_MIN_SPEEDUP = 3.0

#: Requests in the store-path benchmark trace (matches the store bench).
_STORE_REQUESTS = 150_000


def test_registry_batch_battery_speedup_over_oracles(benchmark):
    trace = _big_replayed_trace()
    metrics = all_metrics()

    def measure():
        # Charge the registry side the full struct-of-arrays build.
        trace.invalidate_columns()
        start = time.perf_counter()
        registry = fold_chunks(metrics, [trace.columns()], trace.name)
        registry_s = time.perf_counter() - start
        start = time.perf_counter()
        oracle = oracle_values(trace, [metric.name for metric in metrics])
        oracle_s = time.perf_counter() - start
        return registry, oracle, registry_s, oracle_s

    registry, oracle, registry_s, oracle_s = run_once(benchmark, measure)
    assert set(registry) == set(oracle)
    for name in oracle:
        assert registry[name] == oracle[name], name  # bit-identical
    speedup = oracle_s / registry_s
    print(
        f"\nregistry {registry_s * 1000:.1f} ms vs oracles {oracle_s * 1000:.1f} ms "
        f"({speedup:.1f}x) on {len(trace)} requests"
    )
    assert speedup >= _MIN_SPEEDUP


def _csv_pipeline(trace, path):
    """Persist to CSV, read it back, fold the registry over it in one chunk."""
    path.write_text(dumps(trace), newline="")
    restored = loads(path.read_text())
    return fold_chunks(summary_metrics(), [restored.columns()], restored.name)


def _store_pipeline(trace, path):
    """Pack to a chunked store, fold the registry's out-of-core engine."""
    pack(trace, path)
    store = open_store(path)
    return fold_chunks(
        summary_metrics(), store.iter_chunks(), store.name, collapse=True
    )


def test_registry_fold_store_speedup_over_csv(benchmark, tmp_path):
    trace = generate_trace("Email", seed=BENCH_SEED, num_requests=_STORE_REQUESTS)
    trace.columns()  # both sides start from a materialized columnar view

    def measure():
        start = time.perf_counter()
        via_csv = _csv_pipeline(trace, tmp_path / "trace.csv")
        csv_s = time.perf_counter() - start
        start = time.perf_counter()
        via_store = _store_pipeline(trace, tmp_path / "trace.store")
        store_s = time.perf_counter() - start
        return via_csv, via_store, csv_s, store_s

    via_csv, via_store, csv_s, store_s = run_once(benchmark, measure)
    assert via_store == via_csv  # bit-identical, not merely close
    speedup = csv_s / store_s
    print(
        f"\nstore+fold {store_s * 1000:.1f} ms vs csv+fold {csv_s * 1000:.1f} ms "
        f"({speedup:.1f}x) on {len(trace)} requests"
    )
    assert speedup >= _MIN_SPEEDUP
