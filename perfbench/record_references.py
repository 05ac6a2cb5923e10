"""Record the reference digests the benchmark checks every pass against.

Usage (from the repository root)::

    python3 perfbench/record_references.py

Replays are recorded on the event kernel (``REPRO_REPLAY_FASTPATH=off``)
so the references do not depend on the engine a pass uses; the Table IV
collection runs on the kernel anyway.  Every workload is recorded for
its default seed, the held-out seed and seeds 0-19 (a workload that
ignores ``--seed`` has one input seed for all of them), and
``perfbench/references.json`` is written whole.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
OUT_DIR = HERE.parent / ".bench_out"

#: A seed never used while tuning the benchmark.
HELD_OUT_SEED = 1015
SEED_RANGE = range(0, 20)


def main() -> int:
    os.environ["REPRO_REPLAY_FASTPATH"] = "off"
    sys.path.insert(0, str(HERE.parent / "src"))
    from suite import WORKLOADS

    OUT_DIR.mkdir(exist_ok=True)
    references = {}
    for name in sorted(WORKLOADS):
        workload = WORKLOADS[name]()
        seeds = sorted({
            workload.input_seed(seed)
            for seed in (workload.default_seed, HELD_OUT_SEED, *SEED_RANGE)
        })
        recorded = references[name] = {}
        for seed in seeds:
            with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
                state = workload.setup(seed, Path(scratch))
                workload.run(state)
                units, _, _ = workload.outputs(state)
            recorded[str(seed)] = units
            print(f"{name} seed {seed}: {len(units)} units", file=sys.stderr)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
