"""The benchmark's two workloads: inputs from a seed, one timed pass,
and the per-unit digests that the correctness gate compares.

Each workload is a class with three steps:

* ``setup(seed, scratch)`` builds every input from the seed and returns
  the state the pass needs (untimed, but counted in ``setup_s``);
* ``run(state)`` makes the user-facing calls and returns the host
  seconds they took (the timed region);
* ``outputs(state)`` reduces the pass to ``{unit: digest}`` plus the
  number of trace requests delivered and any extra figures.

A unit is one trace shard (``table4-collect``) or one device
(``fleet-wear``).  Digests are truncated to 16 hex digits (64 bits):
enough to catch any change, and it keeps the stored references small.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import time
from pathlib import Path
from typing import Dict, List, Tuple

#: Digest length kept in the references (hex digits).
DIGEST_HEX = 16

#: Closed-loop Table IV collection size per trace.  The sync-fraction
#: pilots (2500 requests per trace) run on top of it whatever this is.
TABLE4_REQUESTS = 600

#: The ``examples/fleet_simulation.py`` scenario at a fixed size.
FLEET_DEVICES = 120
FLEET_REQUESTS = 800


def _short(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_HEX]


class Workload:
    """Common to the workloads: the seed their inputs come from."""

    name = ""
    default_seed = 0
    #: False: the inputs always come from ``default_seed`` (see the class).
    seeded = True

    def input_seed(self, seed: int) -> int:
        """The seed the inputs are generated from, for ``--seed seed``."""
        return seed if self.seeded else self.default_seed


class Table4Collect(Workload):
    """Table IV: closed-loop collection of all 25 traces on the kernel."""

    name = "table4-collect"
    default_seed = 20150614

    def setup(self, seed: int, scratch: Path) -> dict:
        from repro.experiments import parallel
        from repro.experiments.cache import NullCache

        return {"seed": seed, "execute": parallel, "cache": NullCache()}

    def run(self, state: dict) -> float:
        started = time.perf_counter()
        summary = state["execute"].execute(
            ids=["table4"],
            seed=state["seed"],
            num_requests=TABLE4_REQUESTS,
            jobs=1,
            cache=state["cache"],
        )
        elapsed = time.perf_counter() - started
        state["result"] = summary.results[0]
        return elapsed

    def outputs(self, state: dict) -> Tuple[Dict[str, str], int, dict]:
        from repro.experiments.runner import _jsonable

        data = state["result"].data
        measured = data["measured"]
        # The whole-payload digest is the one tools/experiment_digests.py
        # prints; the per-trace digests say which shard moved.
        units = {"data": _short(json.dumps(_jsonable(data), sort_keys=True))}
        for name, stats in measured.items():
            units[name] = _short(json.dumps(_jsonable(stats), sort_keys=True))
        delivered = TABLE4_REQUESTS * len(measured)
        return units, delivered, {"paper_err_pct": paper_error_pct(measured)}


#: Table IV cells compared with the paper.  Duration is left out: it
#: scales with the shortened trace length, not with the model.
PAPER_CELLS = (
    "arrival_rate",
    "access_rate_kib_s",
    "nowait_pct",
    "mean_service_ms",
    "mean_response_ms",
    "spatial_locality_pct",
    "temporal_locality_pct",
)


def paper_error_pct(measured: dict) -> float:
    """Mean absolute relative error (%) of measured Table IV cells."""
    from repro.workloads.paper_data import table_iv

    errors: List[float] = []
    for name, stats in measured.items():
        paper = table_iv(name)
        for cell in PAPER_CELLS:
            reference = float(getattr(paper, cell))
            if reference != 0.0:
                value = float(getattr(stats, cell))
                errors.append(abs(value - reference) / abs(reference))
    return 100.0 * sum(errors) / len(errors)


class FleetWear(Workload):
    """The fleet example's mixed population on the small (GC-heavy) configs.

    The population is the example's (scenario seed 7), whatever
    ``--seed`` says.  Host time is set by the few devices whose writes
    cross the small configs' GC threshold, and which devices those are
    depends on the scenario seed: over seeds 1-5 the pass time varied
    2.2x and the peak RSS 1.7x.
    """

    name = "fleet-wear"
    default_seed = 7
    seeded = False

    def setup(self, seed: int, scratch: Path) -> dict:
        from repro.fleet import FleetScenario, executor

        scenario = FleetScenario(
            devices=FLEET_DEVICES,
            name="mixed-population",
            seed=seed,
            requests_per_device=FLEET_REQUESTS,
            apps={"Idle": 3.0, "Twitter": 2.0, "Messaging": 1.5, "Music": 1.0},
            configs={"small-4PS": 1.0, "small-HPS": 1.0},
            rate_factor_range=(0.5, 2.0),
        )
        return {"scenario": scenario, "executor": executor, "out": scratch / "fleet"}

    def run(self, state: dict) -> float:
        started = time.perf_counter()
        state["executor"].run_fleet(state["scenario"], state["out"], jobs=1, overwrite=True)
        return time.perf_counter() - started

    def outputs(self, state: dict) -> Tuple[Dict[str, str], int, dict]:
        from repro.fleet import FleetStoreError, open_fleet_store
        from repro.fleet.store import FLEET_MANIFEST_NAME

        out: Path = state["out"]
        store = open_fleet_store(out)
        manifest = (out / FLEET_MANIFEST_NAME).read_bytes()
        try:
            store.verify()
            manifest_digest = hashlib.sha256(manifest).hexdigest()[:DIGEST_HEX]
        except FleetStoreError as error:
            manifest_digest = f"verify failed: {error}"
        units = {"fleet.json": manifest_digest}
        indices = store.column("device_index")
        digests = store.column("stats_digest64")
        for index, digest in zip(indices.tolist(), digests.tolist()):
            units[f"device-{index}"] = f"{digest:016x}"
        delivered = int(store.column("requests").sum())
        store_bytes = sum(path.stat().st_size for path in out.iterdir())
        shutil.rmtree(out)
        return units, delivered, {"store_bytes": store_bytes}


WORKLOADS = {cls.name: cls for cls in (Table4Collect, FleetWear)}
