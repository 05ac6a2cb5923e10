"""Table IV: timing-related statistics of the 25 traces.

Traces are replayed on the reference (4PS) simulated eMMC device to obtain
the device-dependent columns (no-wait ratio, mean service/response time);
the trace-intrinsic columns (rates, localities) come from the traces
themselves.

The experiment shards into one unit per trace: each worker runs its
closed-loop collection, resolves the ``timing_stats`` metric from the
registry (:mod:`repro.metrics.registry`) and folds the replayed trace
chunk by chunk through the metric's out-of-core engine (O(1) float
state), shipping the state back instead of the replayed requests.
``merge`` finalizes in paper order; the registry contract guarantees the
fold is bit-identical under any chunking, so sharded output matches the
serial path byte for byte.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis import render_table
from repro.metrics import chunked, get_metric
from repro.metrics.timing import TimingStats, TimingStatsState
from repro.workloads import ALL_TRACES, DEFAULT_SEED, TABLE_IV

from .common import ExperimentResult, cached_collection
from .spec import ExperimentSpec, ShardPlan

#: Rows folded per streaming step inside a shard worker.
SHARD_CHUNK_ROWS = 16384

#: The one metric this experiment reports.
METRIC_NAME = "timing_stats"


def _row(stats: TimingStats) -> list:
    """One rendered Table IV row: measured (paper)."""
    paper = TABLE_IV[stats.name]
    return [
        stats.name,
        f"{stats.duration_s:,.0f} ({paper.duration_s:,})",
        f"{stats.arrival_rate:.2f} ({paper.arrival_rate})",
        f"{stats.access_rate_kib_s:,.1f} ({paper.access_rate_kib_s:,})",
        f"{stats.nowait_pct:.0f} ({paper.nowait_pct})",
        f"{stats.mean_service_ms:.2f} ({paper.mean_service_ms})",
        f"{stats.mean_response_ms:.2f} ({paper.mean_response_ms})",
        f"{stats.spatial_locality_pct:.1f} ({paper.spatial_locality_pct})",
        f"{stats.temporal_locality_pct:.1f} ({paper.temporal_locality_pct})",
    ]


def compute_shard(
    unit: str, seed: int = DEFAULT_SEED, num_requests: Optional[int] = None
) -> TimingStatsState:
    """One trace's closed-loop replay, reduced to its streaming state.

    The collapsed (O(1) float state) form suffices here: a worker folds
    its own trace sequentially, so nothing merges onto its left.
    """
    replay = cached_collection(unit, seed=seed, num_requests=num_requests)
    metric = get_metric(METRIC_NAME)
    state = metric.init(collapse=True)
    for chunk in chunked(replay.trace.columns(), SHARD_CHUNK_ROWS):
        metric.update(state, chunk)
    return state


def merge(
    payloads: Dict[str, object],
    seed: int = DEFAULT_SEED,
    num_requests: Optional[int] = None,
) -> ExperimentResult:
    """Finalize the per-trace summaries into Table IV (paper order)."""
    del seed, num_requests  # assembly is a pure function of the payloads
    metric = get_metric(METRIC_NAME)
    rows = []
    measured = {}
    for name in ALL_TRACES:
        stats = metric.finalize(payloads[name], name)
        measured[name] = stats
        rows.append(_row(stats))
    table = render_table(
        [
            "App",
            "Duration s",
            "Arr req/s",
            "Access KB/s",
            "NoWait %",
            "Serv ms",
            "Resp ms",
            "SpatLoc %",
            "TempLoc %",
        ],
        rows,
    )
    return ExperimentResult(
        experiment_id="table4",
        title="Timing-related statistics, measured (paper)",
        table=table,
        data={"measured": measured},
    )


def run(seed: int = DEFAULT_SEED, num_requests: Optional[int] = None) -> ExperimentResult:
    """Regenerate Table IV; every cell shown as measured (paper)."""
    payloads = {
        name: compute_shard(name, seed=seed, num_requests=num_requests)
        for name in ALL_TRACES
    }
    return merge(payloads, seed=seed, num_requests=num_requests)


SPEC = ExperimentSpec(
    experiment_id="table4",
    title="Table IV timing-related statistics of the 25 traces",
    runner=run,
    cost="heavy",
    shards=ShardPlan(units=tuple(ALL_TRACES), worker=compute_shard, merge=merge),
)


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
