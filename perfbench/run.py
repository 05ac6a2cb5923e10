"""The repository benchmark: host time of the simulator's user-facing calls.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet-wear --seed 1 --seconds 55 --trace 0

Workloads (see ``suite.py`` and ``README.md``): ``table4-collect`` and
``fleet-wear``.  Every pass runs in a fresh interpreter (``worker.py``),
so the program's module caches start cold.  A few set-up-only passes
warm the host up first; then timed passes repeat until ``--seconds`` is
used up (at least two).  Each pass's outputs are checked against the
reference digests in ``references.json``; for a seed without stored
references, every pass must agree with the first.

``--trace 0`` reports the end-to-end metrics: ``req_per_s`` (trace
requests delivered per host second of the timed calls), ``setup_s``
(interpreter start to the first timed call; the median of many samples,
taken between the timed passes) and ``peak_rss_mb``.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
of ``layers.py`` plus ``trace_overhead_pct``.  Metric names, their order
and units come from ``BENCHMARK.json``.  The last stdout line is one
JSON object.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from layers import BENCHMARK, OVERHEAD_METRIC
from suite import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
UNITS = {metric["name"]: metric["unit"]
         for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}

#: An untraced run makes at least this many timed passes; a traced run
#: at least one untraced and one traced pass.
MIN_PASSES = 2
#: After each timed pass, set-up-only passes run for at least this share
#: of its wall time, so that the set-up samples are spread over the run.
SETUP_SHARE = 0.25
#: ``setup_s`` is the median of at least this many set-ups.
MIN_SETUP_SAMPLES = 15
#: Set-up-only passes before the first timed pass: they load the
#: interpreter and the program's files into the host's caches.
WARMUP_SETUPS = 3
#: A run never starts a pass it expects to end after this many seconds.
HARD_LIMIT_S = 150.0


def run_pass(workload: str, seed: int, mode: str, timeout_s: float) -> dict:
    """One worker process; its JSON report, or ``{"error": ...}``."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--out-dir", str(OUT_DIR),
    ]
    spawned_at = time.monotonic()
    command += ["--spawned-at", repr(spawned_at)]
    try:
        finished = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"pass timed out after {timeout_s:.0f} s"}
    report: dict = {"mode": mode}
    lines = finished.stdout.strip().splitlines()
    if finished.returncode == 0 and lines:
        try:
            report = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if finished.returncode != 0 or "setup_s" not in report and "error" not in report:
        report["error"] = f"worker exit {finished.returncode}: {finished.stderr[-2000:]}"
    report["wall_s"] = time.monotonic() - spawned_at
    return report


def schedule(workload: str, seed: int, seconds: float, trace: bool) -> List[dict]:
    """Timed passes, with set-up samples between them, until ``seconds``
    is used up."""
    cycle = ("untraced", "traced") if trace else ("untraced",)
    started = time.monotonic()
    passes: List[dict] = []
    cycle_s: List[float] = []
    min_cycles = 1 if trace else MIN_PASSES

    def sample_setups(budget_s: float, samples: int = 0) -> None:
        spent = 0.0
        while (spent < budget_s or samples > 0) and not any("error" in r for r in passes):
            passes.append(run_pass(workload, seed, "setup", 60.0))
            spent += passes[-1]["wall_s"]
            samples -= 1

    if not trace:
        sample_setups(0.0, WARMUP_SETUPS)
    while True:
        cycle_started = time.monotonic()
        for mode in cycle:
            remaining = HARD_LIMIT_S + 20.0 - (time.monotonic() - started)
            passes.append(run_pass(workload, seed, mode, max(remaining, 1.0)))
        if not trace:
            sample_setups(SETUP_SHARE * passes[-1]["wall_s"])
        now = time.monotonic()
        cycle_s.append(now - cycle_started)
        if any("error" in report for report in passes):
            break
        # Stop at the pass boundary nearest to ``seconds``.
        elapsed = now - started
        if len(cycle_s) >= min_cycles and (
            elapsed + max(cycle_s) / 2 > seconds or elapsed + max(cycle_s) > HARD_LIMIT_S
        ):
            break
    if not trace:
        sample_setups(0.0, MIN_SETUP_SAMPLES - sum("setup_s" in r for r in passes))
    return passes


def score(passes: List[dict], reference: Optional[Dict[str, str]]):
    """(attempted, failed, reference source) over every timed pass.

    A unit fails when its pass raised or its digest differs from the
    reference.  Without a stored reference the first complete pass is
    the reference, so the check is that every pass agrees with it.
    """
    timed = [report for report in passes if report.get("mode") != "setup"]
    source = "stored"
    if reference is None:
        source = "first pass"
        reference = next((r["units"] for r in timed if "units" in r), {"pass": ""})
    attempted = failed = 0
    for report in timed:
        units = report.get("units")
        keys = set(reference) | set(units or ())
        attempted += len(keys)
        if units is None:
            failed += len(keys)
        else:
            failed += sum(1 for key in keys if units.get(key) != reference.get(key))
    return attempted, failed, source


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def complete(passes: List[dict], mode: str) -> List[dict]:
    """The passes of ``mode`` whose outputs were read (``worker.py``)."""
    return [r for r in passes if r.get("mode") == mode and "delivered" in r]


def end_to_end(passes: List[dict]) -> Dict[str, float]:
    timed = complete(passes, "untraced")
    measured = {
        "req_per_s": median([r["delivered"] / r["timed_s"] for r in timed]),
        "setup_s": median([r["setup_s"] for r in passes
                           if r.get("mode") in ("untraced", "setup") and "setup_s" in r]),
        "peak_rss_mb": median([r["rss_mb"] for r in timed]),
    }
    return {metric["name"]: measured[metric["name"]] for metric in BENCHMARK["end_to_end"]}


def per_layer(passes: List[dict]) -> Dict[str, float]:
    traced = [r for r in complete(passes, "traced") if "layers" in r]
    untraced = [r["timed_s"] for r in complete(passes, "untraced")]
    # Times vary between passes and are medians; counts and ratios repeat
    # exactly, so the last pass's are the run's.
    metrics = {
        name: median([r["layers"][name] for r in traced]) if name.endswith("_s")
        else traced[-1]["layers"][name]
        for name in traced[0]["layers"]
    }
    traced_s = median([r["timed_s"] for r in traced])
    metrics[OVERHEAD_METRIC] = 100.0 * (traced_s / median(untraced) - 1.0)
    return {metric["name"]: metrics[metric["name"]] for metric in BENCHMARK["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"perfbench: no program source at {source}", file=sys.stderr)
        return 2
    # The "build": byte-compile once so no pass pays the compilation.
    if not compileall.compile_dir(str(source), quiet=1):
        print("perfbench: the program source does not compile", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    seed = WORKLOADS[args.workload]().input_seed(args.seed)
    references = json.loads((HERE / "references.json").read_text())
    reference = references.get(args.workload, {}).get(str(seed))

    passes = schedule(args.workload, seed, args.seconds, bool(args.trace))
    for report in passes:
        if "error" in report:
            print(f"perfbench: {report['mode']} pass failed:\n{report['error']}",
                  file=sys.stderr)
    untraced = complete(passes, "untraced")
    if not untraced or (args.trace and not any("layers" in r for r in passes)):
        print("perfbench: no complete pass, no result", file=sys.stderr)
        return 1
    attempted, failed, ref_source = score(passes, reference)

    timed = [r for r in passes if r.get("mode") != "setup"]
    print(f"perfbench {args.workload} seed={args.seed} (inputs from seed {seed}) trace={args.trace} "
          f"passes={len(timed)} reference={ref_source}")
    print("  per pass: " + " ".join(
        f"{r['mode']}:{r['delivered'] / r['timed_s']:.1f}req/s" for r in timed if "delivered" in r))
    samples = sum(1 for r in passes if r.get("mode") in ("untraced", "setup") and "setup_s" in r)
    if args.trace:
        metrics = per_layer(passes)
        last = next(r for r in reversed(passes) if "flame" in r)
        print(last["flame"])
        print(f"chrome trace: {last['chrome_trace']}")
    else:
        metrics = end_to_end(passes)
        print(f"  setup_s is the median of {samples} set-ups")
    rows = [(name, value, UNITS[name]) for name, value in metrics.items()]
    rows.append(("failed_frac", failed / attempted, f"fraction ({failed} of {attempted} units)"))
    extra = untraced[0]["extra"]
    if "paper_err_pct" in extra:
        rows.append(("paper_err_pct", extra["paper_err_pct"], "% (Table IV cells)"))
    for name, value, unit in rows:
        print(f"  {name:<42} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
