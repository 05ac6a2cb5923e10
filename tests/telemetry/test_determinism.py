"""Telemetry's two determinism contracts.

1. **Observation only**: telemetry enabled vs disabled changes no
   simulation result -- every experiment's structured data digest is
   bit-identical either way, in-process and across ``PYTHONHASHSEED``
   values (the env hook in ``repro.experiments.common.replay_on`` flips
   a sink onto every experiment device).
2. **Reproducible output**: the span stream itself is byte-identical
   across runs, processes and hash seeds -- Chrome-trace JSON and packed
   span-store chunks hash the same everywhere.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Experiments for the subprocess hash-seed sweep: the sharded heavy
#: replays (fig3 device sweep, fig8/fig9 per-app) plus a whole-task one.
SWEEP_IDS = ["fig3", "fig4", "fig8"]
SWEEP_REQUESTS = 80


def battery_digest(ids=None, num_requests=120) -> str:
    """One digest over the structured data of the selected experiments."""
    from repro.experiments import parallel, runner
    from repro.experiments.cache import NullCache
    from repro.workloads import DEFAULT_SEED

    results = parallel.execute(
        ids=ids, seed=DEFAULT_SEED, num_requests=num_requests, cache=NullCache()
    ).results
    blob = json.dumps(
        [(r.experiment_id, runner._jsonable(r.data)) for r in results],
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def span_output_digest() -> str:
    """Hash of a replay's Chrome-trace JSON + span-store chunk bytes."""
    import tempfile

    from repro.emmc import EmmcDevice, four_ps
    from repro.sim import Host
    from repro.telemetry import chrome_trace_json, pack_spans, Telemetry
    from repro.workloads import generate_trace

    sink = Telemetry()
    trace = generate_trace(
        "Twitter", seed=20150614, num_requests=250
    ).without_timing()
    Host(EmmcDevice(four_ps(), telemetry=sink)).replay(trace)
    digest = hashlib.sha256(chrome_trace_json(sink).encode())
    with tempfile.TemporaryDirectory() as tmp:
        manifest = pack_spans(sink, os.path.join(tmp, "spans"))
        digest.update(
            json.dumps(manifest, sort_keys=True).encode()
        )
        for info in manifest["chunks"]:
            chunk = Path(tmp, "spans", info["file"]).read_bytes()
            digest.update(chunk)
    return digest.hexdigest()


def _on_off_digests(ids, num_requests):
    """(telemetry-off digest, telemetry-on digest) in this process."""
    saved = os.environ.pop("REPRO_TELEMETRY", None)
    try:
        off = battery_digest(ids, num_requests)
        os.environ["REPRO_TELEMETRY"] = "1"
        on = battery_digest(ids, num_requests)
    finally:
        os.environ.pop("REPRO_TELEMETRY", None)
        if saved is not None:
            os.environ["REPRO_TELEMETRY"] = saved
    return off, on


def _subprocess_line(script: str, hash_seed: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": "src", "PYTHONHASHSEED": hash_seed},
        cwd=str(REPO_ROOT),
    )
    return proc.stdout.strip()


class TestEnabledVsDisabled:
    def test_full_battery_bit_identical(self):
        # Every registered experiment, telemetry off then on, same
        # process: one digest over all structured data each way.
        off, on = _on_off_digests(None, 120)
        assert off == on

    def test_sweep_across_hash_seeds(self):
        script = (
            "from tests.telemetry.test_determinism import ("
            "_on_off_digests, SWEEP_IDS, SWEEP_REQUESTS);"
            "off, on = _on_off_digests(SWEEP_IDS, SWEEP_REQUESTS);"
            "print(off); print(on)"
        )
        outputs = set()
        for hash_seed in ("0", "1", "2", "3"):
            line = _subprocess_line(script, hash_seed)
            off, on = line.splitlines()
            assert off == on, f"PYTHONHASHSEED={hash_seed}: on != off"
            outputs.add(line)
        assert len(outputs) == 1, "digests drift across hash seeds"


class TestSpanOutputBytes:
    def test_byte_identical_within_a_process(self):
        assert span_output_digest() == span_output_digest()

    def test_byte_identical_across_hash_seeds(self):
        script = (
            "from tests.telemetry.test_determinism import "
            "span_output_digest; print(span_output_digest())"
        )
        outputs = {
            _subprocess_line(script, hash_seed)
            for hash_seed in ("0", "1", "2", "3")
        }
        assert len(outputs) == 1, "span bytes drift across hash seeds"
        assert outputs == {span_output_digest()}
