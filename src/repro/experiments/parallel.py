"""Parallel, cached execution of the experiment registry.

The engine shards work at two granularities:

* **whole experiments** -- every selected experiment with no
  :class:`~repro.experiments.spec.ShardPlan` is one task;
* **per-trace shards** -- heavy replay studies (fig3/fig8/fig9) split into
  one task per independent unit (device sweep, or one app's replays), so
  a single heavy experiment no longer serializes the tail of the run.

Determinism
-----------
Parallel output is bit-identical to serial because nothing about the
computation depends on scheduling:

* every RNG stream is derived from ``hash(name, seed)`` inside the
  generators, never from global state (the pool still reseeds
  ``random``/``numpy`` per worker as defense in depth);
* shard payloads are merged by the spec's ``merge`` in one deterministic
  order in the parent, so float accumulation order never varies;
* results are emitted in selection (paper) order, not completion order.

Workers receive only ``(experiment_id, unit, seed, num_requests)`` and
re-resolve the spec from :mod:`repro.experiments.registry` after import,
so nothing non-picklable crosses the process boundary.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.pool import WallPoint, process_pool

from . import registry
from .cache import CacheStats, NullCache, ResultCache
from .common import ExperimentResult
from .spec import COST_CLASSES, ExperimentSpec


@dataclass
class ExperimentTelemetry:
    """Wall-time and cache accounting for one experiment."""

    experiment_id: str
    compute_s: float  # summed worker-side compute time (serial-equivalent)
    wall_s: float  # submit-to-merge span as seen by the scheduler
    cache: str  # "hit" | "miss" | "off"
    shards: int  # parallel shard count (0 = ran as one task)
    cost: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "experiment_id": self.experiment_id,
            "compute_s": round(self.compute_s, 6),
            "wall_s": round(self.wall_s, 6),
            "cache": self.cache,
            "shards": self.shards,
            "cost": self.cost,
        }


@dataclass
class RunSummary:
    """Everything one engine invocation produced."""

    results: List[ExperimentResult]
    telemetry: List[ExperimentTelemetry]
    wall_s: float
    jobs: int
    cache_stats: CacheStats = field(default_factory=CacheStats)

    @property
    def compute_s(self) -> float:
        """Serial-equivalent compute seconds actually spent this run."""
        return sum(item.compute_s for item in self.telemetry)

    @property
    def speedup(self) -> float:
        """Serial-equivalent seconds per wall second (1.0 = no benefit)."""
        return self.compute_s / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "jobs": self.jobs,
            "wall_s": round(self.wall_s, 6),
            "compute_s": round(self.compute_s, 6),
            "speedup": round(self.speedup, 3),
            "experiments": [item.as_dict() for item in self.telemetry],
            "cache": self.cache_stats.as_dict(),
        }


def _run_whole(
    experiment_id: str, seed: int, num_requests: Optional[int]
) -> Tuple[ExperimentResult, float, WallPoint]:
    spec = registry.get_spec(experiment_id)
    started = time.perf_counter()
    result = spec.call(seed, num_requests)
    ended = time.perf_counter()
    return result, ended - started, ("run", started, ended, os.getpid())


def _run_shard(
    experiment_id: str, unit: str, seed: int, num_requests: Optional[int]
) -> Tuple[str, object, float, WallPoint]:
    spec = registry.get_spec(experiment_id)
    assert spec.shards is not None
    started = time.perf_counter()
    payload = spec.shards.worker(unit, seed, num_requests)
    ended = time.perf_counter()
    return unit, payload, ended - started, (unit, started, ended, os.getpid())


def _cost_rank(spec: ExperimentSpec) -> int:
    return COST_CLASSES.index(spec.cost)


#: A computed entry: (result, serial-equivalent seconds, shard count, wall points).
_Computed = Tuple[ExperimentResult, float, int, List[WallPoint]]


def _execute_serial(
    specs: Sequence[ExperimentSpec],
    seed: int,
    num_requests: Optional[int],
) -> Dict[str, _Computed]:
    computed: Dict[str, _Computed] = {}
    for spec in specs:
        result, duration, wall = _run_whole(spec.experiment_id, seed, num_requests)
        computed[spec.experiment_id] = (result, duration, 0, [wall])
    return computed


def _execute_parallel(
    pool: ProcessPoolExecutor,
    specs: Sequence[ExperimentSpec],
    seed: int,
    num_requests: Optional[int],
) -> Dict[str, _Computed]:
    whole_futures = {}
    shard_futures = {}
    shard_counts: Dict[str, int] = {}
    for spec in specs:
        if spec.shards is not None and len(spec.shards.units) > 1:
            shard_counts[spec.experiment_id] = len(spec.shards.units)
            for unit in spec.shards.units:
                future = pool.submit(
                    _run_shard, spec.experiment_id, unit, seed, num_requests
                )
                shard_futures[future] = spec.experiment_id
        else:
            whole_futures[pool.submit(
                _run_whole, spec.experiment_id, seed, num_requests
            )] = spec.experiment_id

    payloads: Dict[str, Dict[str, object]] = {
        experiment_id: {} for experiment_id in shard_counts
    }
    compute: Dict[str, float] = {spec.experiment_id: 0.0 for spec in specs}
    walls: Dict[str, List[WallPoint]] = {spec.experiment_id: [] for spec in specs}
    computed: Dict[str, _Computed] = {}
    pending = set(whole_futures) | set(shard_futures)
    while pending:
        finished, pending = wait(pending, return_when=FIRST_COMPLETED)
        for future in finished:
            if future in whole_futures:
                experiment_id = whole_futures[future]
                result, duration, wall = future.result()
                walls[experiment_id].append(wall)
                computed[experiment_id] = (result, duration, 0, walls[experiment_id])
            else:
                experiment_id = shard_futures[future]
                unit, payload, duration, wall = future.result()
                payloads[experiment_id][unit] = payload
                compute[experiment_id] += duration
                walls[experiment_id].append(wall)
                if len(payloads[experiment_id]) == shard_counts[experiment_id]:
                    # All shards in: merge deterministically in the parent.
                    spec = registry.get_spec(experiment_id)
                    merge_started = time.perf_counter()
                    result = spec.shards.merge(
                        payloads[experiment_id], seed, num_requests
                    )
                    merge_ended = time.perf_counter()
                    walls[experiment_id].append(
                        ("merge", merge_started, merge_ended, os.getpid())
                    )
                    computed[experiment_id] = (
                        result,
                        compute[experiment_id] + (merge_ended - merge_started),
                        shard_counts[experiment_id],
                        walls[experiment_id],
                    )
    return computed


def _emit_wall_spans(
    sink,
    spec: ExperimentSpec,
    walls: Sequence[WallPoint],
    shards: int,
    origin_s: float,
) -> None:
    """Record one experiment's wall-clock spans on the runner's sink.

    The experiment gets a parent span on the ``experiments`` track
    covering first-start to last-end; each task (shard, whole run,
    merge) becomes a child span on a per-worker ``worker-PID`` track.
    Wall spans are real time -- deliberately outside the byte-identity
    contract sim-time spans live under.
    """
    if not walls:
        return
    ordered = sorted(walls, key=lambda wall: wall[1])
    parent = sink.add_wall_span(
        spec.experiment_id,
        ordered[0][1],
        max(wall[2] for wall in ordered),
        cat="experiment",
        track="experiments",
        origin_s=origin_s,
    )
    if shards == 0 and len(ordered) == 1:
        label, started, ended, pid = ordered[0]
        sink.add_wall_span(
            f"{spec.experiment_id}:{label}", started, ended,
            cat="task", track=f"worker-{pid}", parent=parent, origin_s=origin_s,
        )
        return
    for label, started, ended, pid in ordered:
        sink.add_wall_span(
            f"{spec.experiment_id}:{label}", started, ended,
            cat="merge" if label == "merge" else "shard",
            track=f"worker-{pid}", parent=parent, origin_s=origin_s,
        )


def execute(
    ids: Optional[Sequence[str]] = None,
    seed: int = 0,
    num_requests: Optional[int] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    wall_sink=None,
) -> RunSummary:
    """Run ``ids`` (default: everything) and return results + telemetry.

    ``jobs=1`` runs in-process with no pool; ``jobs>1`` shards across a
    ``ProcessPoolExecutor``.  Either way the results are bit-identical and
    ordered by selection (paper) order.  ``cache=None`` disables caching.

    ``wall_sink`` is an optional :class:`repro.telemetry.Telemetry`
    recording the run's wall-clock shape: one span per experiment, one
    child span per task on a per-worker track, and a ``cache-hit`` /
    ``cache-miss`` instant per cache probe.  Timestamps are microseconds
    since this call started.  Recording never affects results.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    specs = registry.select(ids or ())
    cache = cache if cache is not None else NullCache()
    run_started = time.perf_counter()

    telemetry_by_id: Dict[str, ExperimentTelemetry] = {}
    results_by_id: Dict[str, ExperimentResult] = {}

    # Cache probe (parent process, cheap).
    to_compute: List[ExperimentSpec] = []
    for spec in specs:
        cached = cache.load(spec, seed, num_requests)
        if wall_sink is not None:
            wall_sink.add_event(
                spec.experiment_id,
                (time.perf_counter() - run_started) * 1e6,
                cat="cache-hit" if cached is not None else "cache-miss",
                track="cache",
            )
        if cached is not None:
            results_by_id[spec.experiment_id] = cached
            telemetry_by_id[spec.experiment_id] = ExperimentTelemetry(
                experiment_id=spec.experiment_id,
                compute_s=0.0,
                wall_s=0.0,
                cache="hit",
                shards=0,
                cost=spec.cost,
            )
        else:
            to_compute.append(spec)

    if to_compute:
        # Heavy experiments first so the pool drains evenly.
        to_compute.sort(key=_cost_rank)
        pool: Optional[ProcessPoolExecutor] = None
        try:
            if jobs > 1:
                pool = process_pool(jobs, seed)
            compute_started = time.perf_counter()
            if pool is None:
                computed = _execute_serial(to_compute, seed, num_requests)
            else:
                computed = _execute_parallel(pool, to_compute, seed, num_requests)
            compute_wall = time.perf_counter() - compute_started
            for spec in to_compute:
                result, compute_s, shards, walls = computed[spec.experiment_id]
                if wall_sink is not None:
                    _emit_wall_spans(wall_sink, spec, walls, shards, run_started)
                results_by_id[spec.experiment_id] = result
                telemetry_by_id[spec.experiment_id] = ExperimentTelemetry(
                    experiment_id=spec.experiment_id,
                    compute_s=compute_s,
                    wall_s=compute_s if pool is None else compute_wall,
                    cache="miss" if cache.enabled else "off",
                    shards=shards,
                    cost=spec.cost,
                )
                cache.store(spec, seed, num_requests, result)
        finally:
            if pool is not None:
                pool.shutdown(wait=True)

    ordered_ids = [spec.experiment_id for spec in specs]
    return RunSummary(
        results=[results_by_id[eid] for eid in ordered_ids],
        telemetry=[telemetry_by_id[eid] for eid in ordered_ids],
        wall_s=time.perf_counter() - run_started,
        jobs=jobs,
        cache_stats=cache.stats,
    )
