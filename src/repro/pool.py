"""The process-pool policy shared by the experiment runner and the fleet.

Both :func:`repro.experiments.parallel.execute` and
:func:`repro.fleet.executor.run_fleet` fan work over a pool built here:
``fork`` where the platform has it (fast, and the caches are fork-safe),
else the platform's default start method, with every worker's global
RNGs seeded from the run seed.
"""

from __future__ import annotations

import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor
from typing import Tuple

import numpy as np

#: One wall measurement from a task: (label, started_s, ended_s, pid).
#: Endpoints are ``time.perf_counter()`` seconds -- CLOCK_MONOTONIC on
#: Linux, system-wide, so worker-process endpoints are directly
#: comparable with the parent's run origin.
WallPoint = Tuple[str, float, float, int]


def _seed_worker(seed: int) -> None:
    """Deterministically seed the global RNGs in a fresh worker.

    Callers derive their randomness from explicit per-name streams, so
    this is defense in depth: any stray use of the global generators
    behaves identically no matter which worker runs which task.
    """
    random.seed(seed)
    np.random.seed(seed % 2**32)


def process_pool(jobs: int, seed: int) -> ProcessPoolExecutor:
    """A ``jobs``-worker pool whose workers are seeded from ``seed``."""
    methods = multiprocessing.get_all_start_methods()
    return ProcessPoolExecutor(
        max_workers=jobs,
        mp_context=multiprocessing.get_context("fork" if "fork" in methods else None),
        initializer=_seed_worker,
        initargs=(seed,),
    )
