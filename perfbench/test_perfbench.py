"""The benchmark's own tests: the correctness gate, the bypass counts and
the contract with ``BENCHMARK.json``.

Run from the repository root (they spawn real passes, about a minute)::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from layers import LayerTracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def stored_reference(workload: str, seed: int) -> dict:
    return json.loads((HERE / "references.json").read_text())[workload][str(seed)]


@pytest.fixture(scope="module")
def traced_passes():
    run.OUT_DIR.mkdir(exist_ok=True)
    return {
        name: run.run_pass(name, seed, "traced", 170.0)
        for name, seed in (("fleet-wear", 7), ("table4-collect", 1015))
    }


def test_every_metric_in_benchmark_json_is_measured():
    end_to_end = run.end_to_end([{"mode": "untraced", "delivered": 1, "timed_s": 1.0,
                                  "setup_s": 1.0, "rss_mb": 1.0}])
    assert list(end_to_end) == [m["name"] for m in BENCHMARK["end_to_end"]]
    # Raises on a name that no span or derived figure gives.
    layers = LayerTracer().layer_metrics(delivered=1, store_bytes=0)
    assert list(layers) + ["trace_overhead_pct"] == [m["name"] for m in BENCHMARK["per_layer"]]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_a_pass_whose_outputs_failed_counts_as_failed_not_complete():
    # Timed, but ``outputs()`` raised.
    broken = {"mode": "untraced", "setup_s": 0.3, "timed_s": 2.0, "rss_mb": 80.0,
              "error": "outputs() raised"}
    good = {"mode": "untraced", "setup_s": 0.3, "timed_s": 2.0, "rss_mb": 80.0,
            "delivered": 10, "units": {"a": "1", "b": "2"}, "extra": {}}
    assert run.complete([broken, good], "untraced") == [good]
    assert run.score([good, broken], None) == (4, 2, "first pass")
    assert run.end_to_end([broken, good])["req_per_s"] == 5.0


def test_stored_references_pass_and_a_perturbed_one_fails(traced_passes):
    report = traced_passes["fleet-wear"]
    reference = stored_reference("fleet-wear", 7)
    # 120 devices plus the store.
    assert run.score([report], reference) == (121, 0, "stored")
    perturbed = dict(reference, **{"device-42": "0" * 16})
    attempted, failed, _ = run.score([report], perturbed)
    assert (attempted, failed) == (121, 1)
    # A pass that raised fails every unit.
    assert run.score([report, {"mode": "untraced", "error": "boom"}], reference) == (242, 121, "stored")


def test_traced_table4_matches_its_held_out_reference(traced_passes):
    assert run.score([traced_passes["table4-collect"]], stored_reference("table4-collect", 1015))[1] == 0


def test_each_layer_is_bypassed_where_it_should_be(traced_passes):
    fleet = traced_passes["fleet-wear"]["layers"]
    table4 = traced_passes["table4-collect"]["layers"]
    assert table4["replay.plan_trace.calls"] == 0
    assert table4["emmc.ftl.gc.collect_block.calls"] == 0
    assert fleet["emmc.submit.calls"] == 0 and fleet["sim.events"] == 0
    assert fleet["replay.fastpath_ratio"] == 1.0
    assert fleet["emmc.ftl.gc.collect_block.calls"] > 0
    assert 0.0 < table4["workloads.useful_ratio"] < 1.0


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    finished = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-wear",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert finished.returncode != 0
    assert '"correct"' not in finished.stdout
