"""Behaviour of the on-disk result cache (cold/warm/invalidation/corruption)."""

from __future__ import annotations

import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.experiments import parallel, runner
from repro.experiments.cache import (
    CACHE_DIR_ENV,
    NullCache,
    ResultCache,
    cache_key,
    code_fingerprint,
    default_cache_dir,
)
from repro.experiments.registry import REGISTRY

IDS = ["fig4", "fig6", "table3"]
SEED = 99
N = 80


@pytest.fixture
def cache(tmp_path):
    return ResultCache(cache_dir=tmp_path / "cache")


@pytest.fixture
def compute_spy(monkeypatch):
    """Count real experiment computations inside the engine."""
    calls = []
    original = parallel._run_whole

    def spy(experiment_id, seed, num_requests):
        calls.append(experiment_id)
        return original(experiment_id, seed, num_requests)

    monkeypatch.setattr(parallel, "_run_whole", spy)
    return calls


class TestColdWarm:
    def test_cold_run_misses_and_stores(self, cache, compute_spy):
        summary = parallel.execute(ids=IDS, seed=SEED, num_requests=N, cache=cache)
        assert sorted(compute_spy) == sorted(IDS)
        assert cache.stats.misses == len(IDS)
        assert cache.stats.stores == len(IDS)
        assert cache.stats.hits == 0
        assert all(t.cache == "miss" for t in summary.telemetry)

    def test_warm_run_hits_without_recompute(self, cache, compute_spy):
        cold = parallel.execute(ids=IDS, seed=SEED, num_requests=N, cache=cache)
        compute_spy.clear()
        warm_cache = ResultCache(cache_dir=cache.cache_dir)
        warm = parallel.execute(
            ids=IDS, seed=SEED, num_requests=N, cache=warm_cache
        )
        assert compute_spy == []  # nothing recomputed
        assert warm_cache.stats.hits == len(IDS)
        assert warm_cache.stats.misses == 0
        assert warm_cache.stats.hit_ids == IDS
        assert all(t.cache == "hit" for t in warm.telemetry)
        # Cached results replay byte-identically.
        assert [r.render() for r in warm.results] == [
            r.render() for r in cold.results
        ]
        assert [runner._jsonable(r.data) for r in warm.results] == [
            runner._jsonable(r.data) for r in cold.results
        ]

    def test_null_cache_never_reads_or_writes(self, tmp_path, compute_spy):
        null = NullCache()
        parallel.execute(ids=["fig4"], seed=SEED, num_requests=N, cache=null)
        parallel.execute(ids=["fig4"], seed=SEED, num_requests=N, cache=null)
        assert compute_spy == ["fig4", "fig4"]  # recomputed both times
        assert null.stats.stores == 0 and null.stats.hits == 0


class TestInvalidation:
    def test_changed_seed_misses(self, cache, compute_spy):
        parallel.execute(ids=["fig4"], seed=SEED, num_requests=N, cache=cache)
        compute_spy.clear()
        parallel.execute(ids=["fig4"], seed=SEED + 1, num_requests=N, cache=cache)
        assert compute_spy == ["fig4"]

    def test_changed_num_requests_misses(self, cache, compute_spy):
        parallel.execute(ids=["fig4"], seed=SEED, num_requests=N, cache=cache)
        compute_spy.clear()
        parallel.execute(ids=["fig4"], seed=SEED, num_requests=N + 1, cache=cache)
        assert compute_spy == ["fig4"]

    def test_key_depends_on_code_fingerprint(self, monkeypatch):
        spec = REGISTRY["fig4"]
        before = cache_key(spec, SEED, N)
        monkeypatch.setattr(
            "repro.experiments.cache.code_fingerprint", lambda _spec: "different"
        )
        assert cache_key(spec, SEED, N) != before

    def test_key_depends_on_package_version(self, monkeypatch):
        spec = REGISTRY["fig4"]
        before = cache_key(spec, SEED, N)
        monkeypatch.setattr("repro.experiments.cache.__version__", "0.0.0-test")
        assert cache_key(spec, SEED, N) != before

    def test_seed_independent_experiment_shares_entries(self):
        spec = REGISTRY["overhead"]  # declared uses_seed=False
        assert cache_key(spec, 1, N) == cache_key(spec, 2, N)
        assert cache_key(spec, 1, N) != cache_key(spec, 1, None)

    def test_fingerprint_covers_common_helpers(self):
        spec = REGISTRY["fig4"]
        fingerprint = code_fingerprint(spec)
        assert fingerprint == code_fingerprint(spec)  # stable
        assert len(fingerprint) == 64


class TestSourceFingerprint:
    """The key must change when any module the results depend on does."""

    _PROBE = (
        "import repro\n"
        "from repro.experiments.cache import cache_key\n"
        "from repro.experiments.registry import REGISTRY\n"
        "print(repro.__file__)\n"
        "print(cache_key(REGISTRY['fig8'], 1, 100))\n"
    )

    def _key(self, src: Path) -> str:
        proc = subprocess.run(
            [sys.executable, "-B", "-c", self._PROBE],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        )
        module_file, key = proc.stdout.split()
        assert Path(module_file).is_relative_to(src)  # the copy, not the repo
        return key

    def test_deep_module_edit_changes_key(self, tmp_path):
        package = tmp_path / "src" / "repro"
        shutil.copytree(
            Path(repro.__file__).parent,
            package,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        before = self._key(tmp_path / "src")
        gc_module = package / "emmc" / "ftl" / "gc.py"
        gc_module.write_text(gc_module.read_text() + "\n# edited\n")
        assert self._key(tmp_path / "src") != before


class TestCorruption:
    def _entry_paths(self, cache):
        return sorted(cache.results_dir.glob("*.pkl"))

    def test_corrupt_entry_recomputes_gracefully(self, cache, compute_spy):
        parallel.execute(ids=["fig4"], seed=SEED, num_requests=N, cache=cache)
        (path,) = self._entry_paths(cache)
        path.write_bytes(b"not a pickle at all")
        compute_spy.clear()
        fresh = ResultCache(cache_dir=cache.cache_dir)
        summary = parallel.execute(
            ids=["fig4"], seed=SEED, num_requests=N, cache=fresh
        )
        assert compute_spy == ["fig4"]  # degraded to recompute
        assert fresh.stats.invalidated == 1
        assert fresh.stats.hits == 0
        assert summary.results[0].experiment_id == "fig4"
        # The corrupt entry was replaced by a fresh store...
        again = ResultCache(cache_dir=cache.cache_dir)
        assert again.load(REGISTRY["fig4"], SEED, N) is not None

    def test_wrong_payload_type_treated_as_corrupt(self, cache):
        spec = REGISTRY["fig4"]
        parallel.execute(ids=["fig4"], seed=SEED, num_requests=N, cache=cache)
        (path,) = self._entry_paths(cache)
        key = path.stem
        path.write_bytes(
            pickle.dumps({"key": key, "format": 1, "result": "not-a-result"})
        )
        fresh = ResultCache(cache_dir=cache.cache_dir)
        assert fresh.load(spec, SEED, N) is None
        assert fresh.stats.invalidated == 1
        assert not path.exists()  # corrupt entry removed

    def test_unwritable_cache_degrades_to_compute(self, tmp_path, compute_spy):
        blocked = tmp_path / "blocked"
        blocked.write_text("a file where the cache dir should be")
        cache = ResultCache(cache_dir=blocked)  # mkdir will fail
        summary = parallel.execute(
            ids=["fig4"], seed=SEED, num_requests=N, cache=cache
        )
        assert compute_spy == ["fig4"]
        assert summary.results[0].experiment_id == "fig4"
        assert cache.stats.errors >= 1  # store failed, run succeeded


class TestLocationResolution:
    def test_env_var_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "via-env"))
        assert default_cache_dir() == tmp_path / "via-env"

    def test_xdg_fallback(self, monkeypatch, tmp_path):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == tmp_path / "xdg" / "repro"


class TestRunnerCacheFlags:
    def test_warm_cli_rerun_reports_hits(self, capsys, tmp_path):
        argv = ["fig4", "--quick", "--seed", "5", "--cache-dir", str(tmp_path)]
        assert runner.main(argv) == 0
        first = capsys.readouterr().out
        assert "cache: 0/1 hits" in first
        assert runner.main(argv) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second
        assert "cache: 1/1 hits" in second

    def test_no_cache_flag_recomputes(self, capsys, tmp_path, compute_spy):
        argv = [
            "fig4", "--quick", "--seed", "5", "--cache-dir", str(tmp_path),
            "--no-cache",
        ]
        assert runner.main(argv) == 0
        assert runner.main(argv) == 0
        assert compute_spy == ["fig4", "fig4"]
        assert list(tmp_path.glob("**/*.pkl")) == []
