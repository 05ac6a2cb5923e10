"""Quick-mode tests for the experiment harness (shortened traces)."""

import pytest

from repro.workloads import COMBO_APPS, INDIVIDUAL_APPS
from repro.experiments import parallel, registry
from repro.experiments import fig3, fig4, fig6, fig7, fig8, fig9, table3, table4

QUICK = 400  # requests per trace in quick mode
SEED = 77


class TestTable3:
    def test_covers_all_25_traces(self):
        result = table3.run(seed=SEED, num_requests=QUICK)
        assert len(result.data["measured"]) == 25
        assert "Twitter" in result.table

    def test_write_pcts_in_band(self):
        result = table3.run(seed=SEED, num_requests=QUICK)
        for name, stats in result.data["measured"].items():
            assert 0 <= stats.write_req_pct <= 100


class TestTable4:
    def test_device_columns_present(self):
        result = table4.run(seed=SEED, num_requests=QUICK)
        for stats in result.data["measured"].values():
            assert stats.mean_response_ms > 0
            assert stats.mean_response_ms >= stats.mean_service_ms * 0.99
            assert 0 < stats.nowait_pct <= 100


class TestFig4:
    def test_histograms_sum_to_one(self):
        result = fig4.run(seed=SEED, num_requests=QUICK)
        assert len(result.data["histograms"]) == 18
        for histogram in result.data["histograms"].values():
            assert sum(histogram.values()) == pytest.approx(1.0)

    def test_movie_concentrates_mid_sizes(self):
        histogram = fig4.run(seed=SEED, num_requests=QUICK).data["histograms"]["Movie"]
        assert histogram["(16K,64K]"] > 0.5


class TestFig6:
    def test_covers_individual_apps(self):
        result = fig6.run(seed=SEED, num_requests=QUICK)
        assert set(result.data["histograms"]) == set(INDIVIDUAL_APPS)


class TestFig7:
    def test_three_panels_for_combos(self):
        result = fig7.run(seed=SEED, num_requests=QUICK)
        assert set(result.data["sizes"]) == set(COMBO_APPS)
        assert "(d) arrival-rate inflation" in result.table


class TestFig8:
    def test_subset_run_has_all_schemes(self):
        result = fig8.run(seed=SEED, num_requests=QUICK, apps=["Twitter", "Booting"])
        mrt = result.data["mrt"]
        assert set(mrt) == {"Twitter", "Booting"}
        for per_scheme in mrt.values():
            assert set(per_scheme) == {"4PS", "8PS", "HPS"}
            assert all(value > 0 for value in per_scheme.values())

    def test_hps_beats_4ps_on_heavy_trace(self):
        result = fig8.run(seed=SEED, num_requests=1500, apps=["Booting"])
        assert result.data["improvements"]["Booting"] > 0.2


class TestFig9:
    def test_hps_matches_4ps_and_beats_8ps(self):
        result = fig9.run(seed=SEED, num_requests=QUICK, apps=["Twitter", "Messaging"])
        for per_scheme in result.data["utilization"].values():
            assert per_scheme["HPS"] == pytest.approx(per_scheme["4PS"])
            assert per_scheme["HPS"] > per_scheme["8PS"]


class TestRunner:
    def test_registry_covers_paper(self):
        expected = {"fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
                    "table3", "table4", "characteristics", "implications",
                    "overhead", "slc_study", "lifetime", "sensitivity", "power_study", "sdcard_study",
                    "calibration", "ftl_study"}
        assert set(registry.REGISTRY) == expected

    def test_unknown_id_raises(self):
        with pytest.raises(KeyError):
            parallel.execute(["nope"])

    def test_run_selected(self):
        results = parallel.execute(["fig4"], seed=SEED, num_requests=QUICK).results
        assert results[0].experiment_id == "fig4"
        assert results[0].render().startswith("== fig4")
