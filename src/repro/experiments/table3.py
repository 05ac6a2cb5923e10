"""Table III: size-related characteristics of the 25 traces.

The experiment shards into one unit per trace.  Each worker resolves the
``size_stats`` metric from the registry (:mod:`repro.metrics.registry`)
and folds its trace's columns chunk by chunk through the metric's
sharded engine, shipping the state (a handful of integers) back instead
of the trace.  ``merge`` finalizes the states in paper order; the
registry contract guarantees the fold is bit-identical under any
chunking, so sharded output matches the serial path byte for byte.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis import render_table
from repro.metrics import chunked, get_metric
from repro.metrics.size import SizeStats, SizeStatsState
from repro.workloads import ALL_TRACES, DEFAULT_SEED, TABLE_III

from .common import ExperimentResult, cached_trace
from .spec import ExperimentSpec, ShardPlan

#: Rows folded per streaming step inside a shard worker.
SHARD_CHUNK_ROWS = 16384

#: The one metric this experiment reports.
METRIC_NAME = "size_stats"


def _row(stats: SizeStats) -> list:
    """One rendered Table III row: measured (paper)."""
    paper = TABLE_III[stats.name]
    return [
        stats.name,
        f"{stats.data_size_kib:,.0f} ({paper.data_size_kib:,})",
        f"{stats.num_requests:,} ({paper.num_requests:,})",
        f"{stats.max_size_kib:,.0f} ({paper.max_size_kib:,})",
        f"{stats.avg_size_kib:.1f} ({paper.avg_size_kib})",
        f"{stats.avg_read_kib:.1f} ({paper.avg_read_kib})",
        f"{stats.avg_write_kib:.1f} ({paper.avg_write_kib})",
        f"{stats.write_req_pct:.1f} ({paper.write_req_pct})",
        f"{stats.write_size_pct:.1f} ({paper.write_size_pct})",
    ]


def compute_shard(
    unit: str, seed: int = DEFAULT_SEED, num_requests: Optional[int] = None
) -> SizeStatsState:
    """One trace's streaming size state (integers only -- tiny payload)."""
    trace = cached_trace(unit, seed=seed, num_requests=num_requests)
    metric = get_metric(METRIC_NAME)
    state = metric.init()
    for chunk in chunked(trace.columns(), SHARD_CHUNK_ROWS):
        metric.update(state, chunk)
    return state


def merge(
    payloads: Dict[str, object],
    seed: int = DEFAULT_SEED,
    num_requests: Optional[int] = None,
) -> ExperimentResult:
    """Finalize the per-trace summaries into Table III (paper order)."""
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
            "Data KB",
            "#Reqs",
            "Max KB",
            "Avg KB",
            "AvgR KB",
            "AvgW KB",
            "W Req %",
            "W Size %",
        ],
        rows,
    )
    return ExperimentResult(
        experiment_id="table3",
        title="Size-related characteristics, measured (paper)",
        table=table,
        data={"measured": measured},
    )


def run(seed: int = DEFAULT_SEED, num_requests: Optional[int] = None) -> ExperimentResult:
    """Regenerate Table III; every cell shown as measured (paper)."""
    payloads = {
        name: compute_shard(name, seed=seed, num_requests=num_requests)
        for name in ALL_TRACES
    }
    return merge(payloads, seed=seed, num_requests=num_requests)


SPEC = ExperimentSpec(
    experiment_id="table3",
    title="Table III size-related characteristics of the 25 traces",
    runner=run,
    cost="medium",
    shards=ShardPlan(units=tuple(ALL_TRACES), worker=compute_shard, merge=merge),
)


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
