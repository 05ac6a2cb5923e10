"""Public API sanity: every exported name exists and is importable."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.trace",
    "repro.sim",
    "repro.workloads",
    "repro.android",
    "repro.emmc",
    "repro.emmc.ftl",
    "repro.analysis",
    "repro.store",
    "repro.metrics",
    "repro.replay",
    "repro.fleet",
    "repro.telemetry",
    "repro.faults",
    "repro.experiments",
]


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_exports_resolve(package_name):
    package = importlib.import_module(package_name)
    exported = getattr(package, "__all__", [])
    for name in exported:
        assert hasattr(package, name), f"{package_name}.{name} missing"


def test_no_duplicate_exports():
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        exported = getattr(package, "__all__", [])
        assert len(exported) == len(set(exported)), package_name


def test_version():
    import repro

    assert repro.__version__


def test_console_entry_points_importable():
    from repro.cli import main as trace_main
    from repro.experiments.runner import main as experiments_main

    assert callable(trace_main)
    assert callable(experiments_main)


def test_fleet_does_not_load_the_experiment_registry():
    """``repro.fleet`` shares the process pool, not the experiment harness."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys; import repro.fleet; "
        "print(sorted(m for m in sys.modules if m.startswith('repro.experiments')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.strip() == "[]"
