"""One benchmark pass in a fresh interpreter (started by ``run.py``).

A fresh process per pass means the module caches (the sync-fraction and
temporal-calibration memos, the experiments' collection LRU) start cold,
as they do for a user's new process; nothing private is ever cleared.

Prints one JSON object on its last stdout line.  ``--mode setup`` stops
after set-up (a set-up time sample); ``untraced`` and ``traced`` run the
timed pass, the latter with the layer wrappers of ``layers.py``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent just before the spawn")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from suite import WORKLOADS

    workload = WORKLOADS[args.workload]()
    report = {"mode": args.mode}
    tracer = None
    if args.mode == "traced":
        from layers import PASS_SPAN, SETUP_SPAN, LayerTracer

        tracer = LayerTracer()
        tracer.install()
    origin = time.perf_counter()
    with tempfile.TemporaryDirectory(dir=args.out_dir) as scratch:
        try:
            if tracer is None:
                state = workload.setup(args.seed, Path(scratch))
            else:
                state = tracer.span(SETUP_SPAN, workload.setup, args.seed, Path(scratch))
            report["setup_s"] = time.monotonic() - args.spawned_at
            if args.mode != "setup":
                if tracer is None:
                    timed_s = workload.run(state)
                else:
                    timed_s = tracer.span(PASS_SPAN, workload.run, state)
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                units, delivered, extra = workload.outputs(state)
                # Only a pass whose outputs were read is complete.
                report.update(timed_s=timed_s, rss_mb=rss_mb, units=units,
                              delivered=delivered, extra=extra)
        except Exception:  # the pass boundary: report, never hang the runner
            report["error"] = traceback.format_exc()
    if tracer is not None and "error" not in report:
        report["layers"] = tracer.layer_metrics(
            report["delivered"], report["extra"].get("store_bytes", 0)
        )
        chrome = args.out_dir / f"trace-{args.workload}.json.gz"
        report["flame"] = tracer.export(chrome, origin)
        report["chrome_trace"] = str(chrome.relative_to(ROOT))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
