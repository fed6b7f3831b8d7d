"""Tests for the experiment harness: every experiment runs and its headline
figures land in the paper's neighbourhood (shape reproduction)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import small_system, tiny_system
from repro.experiments import (
    ALL_EXPERIMENTS,
    e01_requirements,
    e02_traversal,
    e03_piecewise,
    e04_tablefree_accuracy,
    e05_tablesteer_accuracy,
    e06_fixedpoint,
    e07_storage,
    e08_table2,
    e09_throughput,
    e10_imaging,
    e11_runtime_throughput,
)


class TestRegistry:
    def test_all_experiments_registered(self):
        assert len(ALL_EXPERIMENTS) == 11
        assert set(ALL_EXPERIMENTS) == {f"E{i}" for i in range(1, 12)}

    def test_every_experiment_has_run_and_main(self):
        for module in ALL_EXPERIMENTS.values():
            assert callable(module.run)
            assert callable(module.main)


class TestE1Requirements:
    def test_headline_numbers(self):
        result = e01_requirements.run()
        req = result["requirements"]
        assert req["naive_coefficients"] == pytest.approx(1.64e11, rel=0.01)
        assert req["required_delay_rate_per_second"] == pytest.approx(2.46e12,
                                                                      rel=0.01)
        assert req["symmetric_table_entries"] == pytest.approx(2.5e6)
        assert req["correction_values"] == pytest.approx(832e3)

    def test_paper_reference_attached(self):
        assert "paper_reference" in e01_requirements.run()


class TestE2Traversal:
    def test_equivalence_and_reuse(self):
        result = e02_traversal.run(tiny_system())
        assert result["orders_visit_same_points"]
        assert result["nappe"]["slice_reuse_factor"] > \
            result["scanline"]["slice_reuse_factor"]


class TestE3Piecewise:
    def test_segment_count_near_70_for_paper_range(self):
        result = e03_piecewise.run()
        assert 55 <= result["segment_count"] <= 85
        assert result["max_abs_error_samples"] <= 0.2501

    def test_delta_sweep_monotone(self):
        result = e03_piecewise.run()
        sweep = result["segments_vs_delta"]
        assert sweep[0.125] > sweep[0.25] > sweep[0.5]

    def test_segment_tracking_cheap(self):
        result = e03_piecewise.run()
        assert result["segment_tracking"]["mean_steps"] < 1.0


class TestE4TableFree:
    @pytest.fixture(scope="class")
    def result(self):
        return e04_tablefree_accuracy.run(small_system(), max_points=200)

    def test_fixed_point_error_shape(self, result):
        stats = result["fixed_point"]["all_points"]
        assert stats["mean_abs"] < 0.45          # paper: ~0.25
        assert stats["max_abs"] <= 2.0           # paper: 2

    def test_float_error_bounded_by_two_delta(self, result):
        stats = result["float"]["all_points"]
        assert stats["max_abs"] <= 1.0

    def test_delta_sweep_improves_accuracy(self, result):
        sweep = result["delta_sweep"]
        assert sweep[0.125]["mean_abs"] < sweep[0.5]["mean_abs"]


class TestE5TableSteer:
    @pytest.fixture(scope="class")
    def result(self):
        return e05_tablesteer_accuracy.run(small_system(), max_points=200)

    def test_bound_exceeds_observations(self, result):
        bounds = result["bounds"]
        assert bounds["lagrange_bound_samples"] >= \
            bounds["observed_max_samples_all"] * 0.9

    def test_directivity_filtering_reduces_worst_case(self, result):
        bounds = result["bounds"]
        assert bounds["observed_max_samples_within_directivity"] <= \
            bounds["observed_max_samples_all"]

    def test_mean_error_of_order_a_sample(self, result):
        assert result["float"]["all_points"]["mean_abs"] < 5.0

    def test_fixed_point_variants_present(self, result):
        for key in ("fixed_13b", "fixed_14b", "fixed_18b"):
            assert key in result


class TestE6FixedPoint:
    def test_paper_fractions(self):
        result = e06_fixedpoint.run(n_samples=200_000)
        assert result["bits_13"]["affected_fraction"] == pytest.approx(0.33,
                                                                       abs=0.04)
        assert result["bits_18"]["affected_fraction"] < 0.03
        assert result["bits_13"]["max_index_error"] <= 1
        assert result["bits_18"]["max_index_error"] <= 1


class TestE7Storage:
    @pytest.fixture(scope="class")
    def result(self):
        return e07_storage.run()

    def test_reference_table_figures(self, result):
        assert result["analytical"]["reference_entries"] == pytest.approx(2.5e6)
        assert result["per_width"][18]["reference_megabits"] == pytest.approx(45.0)
        assert result["per_width"][18]["dram_bandwidth_gb_per_s"] == \
            pytest.approx(5.4, abs=0.2)
        assert result["per_width"][14]["dram_bandwidth_gb_per_s"] == \
            pytest.approx(4.2, abs=0.2)

    def test_streaming_buffer_never_stalls(self, result):
        assert result["circular_buffer"]["stall_cycles"] == 0

    def test_no_bank_conflicts(self, result):
        assert result["bank_conflicts_window_128"] == 0

    def test_built_tables_for_small_system(self):
        result = e07_storage.run(small_system(), build_tables=True)
        built = result["built"]
        assert built["symmetry_savings"] == pytest.approx(0.75, abs=0.05)
        assert built["reference_entries"] == result["analytical"]["reference_entries"]


class TestE8Table2:
    @pytest.fixture(scope="class")
    def result(self):
        return e08_table2.run()

    def test_three_rows(self, result):
        assert [row["architecture"] for row in result["rows"]] == \
            ["TABLEFREE", "TABLESTEER-14b", "TABLESTEER-18b"]

    def test_who_wins(self, result):
        rows = {row["architecture"]: row for row in result["rows"]}
        assert rows["TABLESTEER-18b"]["channels"] == "100x100"
        assert rows["TABLEFREE"]["channels"] == "42x42"
        assert rows["TABLESTEER-18b"]["frame_rate_fps"] > 15
        assert rows["TABLEFREE"]["frame_rate_fps"] < 15
        assert rows["TABLEFREE"]["dram_gb_per_s"] == 0.0

    def test_rows_against_paper_reference(self, result):
        reference = result["paper_reference"]
        for row in result["rows"]:
            expected = reference[row["architecture"]]
            assert row["luts_pct"] == pytest.approx(expected["luts_pct"], abs=5)
            assert row["bram_pct"] == pytest.approx(expected["bram_pct"], abs=5)
            assert row["frame_rate_fps"] == pytest.approx(
                expected["frame_rate_fps"], abs=1.0)

    def test_accuracy_attachment(self):
        result = e08_table2.run(include_accuracy=True,
                                accuracy_system=tiny_system())
        for row in result["rows"]:
            assert row["mean_abs_error_samples"] is not None


class TestE9Throughput:
    def test_plan_storage_mirrors_paper_table_wall(self):
        result = e09_throughput.run()
        storage = result["plan_storage"]
        # ~164 billion entries: the software plan is terabytes at paper
        # scale, reproducing the paper's "tables do not fit" premise.
        assert storage["entries"] == pytest.approx(1.64e11, rel=0.01)
        assert storage["float64_bytes"] > storage["float32_bytes"]
        assert storage["float64_bytes"] > 1e12

    def test_block_structure_and_rates(self):
        result = e09_throughput.run()
        assert result["block"]["adders"] == 136
        assert result["block"]["delays_per_cycle"] == 128
        assert result["block"]["dataflow_matches_direct_sum"]
        assert result["array"]["peak_rate_at_200mhz"] == pytest.approx(3.28e12,
                                                                       rel=0.01)
        assert result["tablesteer_throughput"]["meets_target"]
        assert not result["tablefree_throughput"]["meets_target"]

    def test_real_table_dataflow(self):
        result = e09_throughput.run_with_real_tables(tiny_system())
        assert result["matches_direct"]


class TestE10Imaging:
    @pytest.fixture(scope="class")
    def result(self):
        return e10_imaging.run(tiny_system())

    def test_peak_positions_agree(self, result):
        for comparison in result["comparisons"].values():
            assert comparison["peak_shift_depth"] <= 1
            assert comparison["peak_shift_theta"] <= 1

    def test_images_close_to_exact(self, result):
        for comparison in result["comparisons"].values():
            assert comparison["nrms_vs_exact"] < 0.5

    def test_off_axis_target_still_detected(self):
        result = e10_imaging.run(tiny_system(), target_theta_fraction=0.7)
        exact = result["metrics"]["exact"]
        assert exact["peak_value"] > 0
        for comparison in result["comparisons"].values():
            assert comparison["peak_shift_theta"] <= 2


class TestE11RuntimeThroughput:
    @pytest.fixture(scope="class")
    def result(self):
        return e11_runtime_throughput.run(tiny_system(), n_frames=4, batch=2)

    def test_all_variants_measured(self, result):
        assert set(result["backends"]) \
            == set(e11_runtime_throughput.default_backends())
        for rows in result["backends"].values():
            assert set(rows) == {"float64", "float32"}
            for row in rows.values():
                assert row["frames"] == 4
                assert row["frames_per_second"] > 0
                assert row["voxels_per_second"] > 0
                assert row["batched_frames_per_second"] > 0

    def test_cached_frames_skip_regeneration(self, result):
        # vectorized caches one plan, compiled once, hit by later frames.
        for row in result["backends"]["vectorized"].values():
            assert row["cache_misses"] == 1
            assert row["cache_hits"] == 3

    def test_speedup_reported_relative_to_reference(self, result):
        assert result["backends"]["reference"]["float64"][
            "speedup_vs_reference"] == pytest.approx(1.0)

    def test_default_backends_tracks_numba_availability(self):
        from repro.kernels import numba_available
        backends = e11_runtime_throughput.default_backends()
        assert backends[:2] == ("reference", "vectorized")
        assert ("compiled" in backends) == numba_available()
