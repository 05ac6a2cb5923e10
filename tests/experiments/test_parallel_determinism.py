"""Serial vs parallel determinism of the experiment engine.

The parallel engine's contract is that ``--jobs N`` output is
bit-identical to serial output for every experiment.  These tests pin the
contract at shortened trace lengths (the code path is identical at every
length; the full ``--quick`` sweep runs in CI and the ``slow`` marker).
"""

from __future__ import annotations

import pytest

from repro.experiments import parallel, runner
from repro.experiments.registry import REGISTRY

#: Short traces keep the 19x3 experiment runs affordable in tier-1.
N = 150
SEED = 1234

ALL_IDS = list(REGISTRY)


def _deep_data(results):
    """Fully JSON-able deep copy of every result's structured data."""
    return [runner._jsonable(result.data) for result in results]


@pytest.fixture(scope="module")
def serial_summary():
    return parallel.execute(ids=ALL_IDS, seed=SEED, num_requests=N, jobs=1)


@pytest.fixture(scope="module")
def parallel_summary():
    return parallel.execute(ids=ALL_IDS, seed=SEED, num_requests=N, jobs=4)


class TestSerialVsParallel:
    def test_every_experiment_ran_once(self, serial_summary, parallel_summary):
        assert [r.experiment_id for r in serial_summary.results] == ALL_IDS
        assert [r.experiment_id for r in parallel_summary.results] == ALL_IDS

    def test_data_identical(self, serial_summary, parallel_summary):
        serial = _deep_data(serial_summary.results)
        par = _deep_data(parallel_summary.results)
        for eid, a, b in zip(ALL_IDS, serial, par):
            assert a == b, f"{eid}: parallel data diverged from serial"

    def test_rendered_reports_identical(self, serial_summary, parallel_summary):
        for a, b in zip(serial_summary.results, parallel_summary.results):
            assert a.render() == b.render()

    def test_heavy_experiments_actually_sharded(self, parallel_summary):
        shards = {t.experiment_id: t.shards for t in parallel_summary.telemetry}
        assert shards["fig8"] == 18
        assert shards["fig9"] == 18
        assert shards["fig3"] == 19  # device sweep + 18 apps

    def test_telemetry_covers_run(self, parallel_summary):
        assert parallel_summary.jobs == 4
        assert parallel_summary.wall_s > 0
        assert parallel_summary.compute_s > 0
        assert all(t.cache == "off" for t in parallel_summary.telemetry)


class TestParallelVsParallel:
    def test_two_parallel_runs_identical(self, parallel_summary):
        again = parallel.execute(
            ids=["fig3", "fig8", "table4", "overhead"],
            seed=SEED,
            num_requests=N,
            jobs=2,
        )
        by_id = {r.experiment_id: r for r in parallel_summary.results}
        for result in again.results:
            reference = by_id[result.experiment_id]
            assert result.render() == reference.render()
            assert runner._jsonable(result.data) == runner._jsonable(reference.data)


class TestSeedSensitivity:
    def test_different_seed_changes_seeded_experiments(self, serial_summary):
        other = parallel.execute(ids=["table3"], seed=SEED + 1, num_requests=N, jobs=1)
        reference = next(
            r for r in serial_summary.results if r.experiment_id == "table3"
        )
        assert runner._jsonable(other.results[0].data) != runner._jsonable(
            reference.data
        )


class TestEngineEdges:
    def test_rejects_zero_jobs(self):
        with pytest.raises(ValueError):
            parallel.execute(ids=["fig4"], seed=1, num_requests=50, jobs=0)

    def test_unknown_id_raises_keyerror(self):
        with pytest.raises(KeyError):
            parallel.execute(ids=["nope"], seed=1, num_requests=50)

    def test_selection_order_preserved(self):
        summary = parallel.execute(
            ids=["fig6", "fig4", "fig5"], seed=3, num_requests=60, jobs=2
        )
        assert [r.experiment_id for r in summary.results] == ["fig6", "fig4", "fig5"]


@pytest.mark.slow
class TestQuickModeDeterminism:
    """The full ``--quick`` contract (1500 requests), as CI runs it."""

    def test_quick_serial_vs_parallel(self):
        serial = parallel.execute(ids=ALL_IDS, seed=SEED, num_requests=1500, jobs=1)
        par = parallel.execute(ids=ALL_IDS, seed=SEED, num_requests=1500, jobs=2)
        assert _deep_data(serial.results) == _deep_data(par.results)
        assert [r.render() for r in serial.results] == [
            r.render() for r in par.results
        ]
