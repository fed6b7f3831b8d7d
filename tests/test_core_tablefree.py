"""Tests for repro.core.tablefree: the on-the-fly delay generator."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.accuracy import sample_volume_points
from repro.config import paper_system, small_system, tiny_system
from repro.core.piecewise import PiecewiseSqrt
from repro.core.tablefree import TableFreeConfig, TableFreeDelayGenerator
from repro.fixedpoint.format import unsigned
from repro.fixedpoint.quantize import quantize


class TestConstruction:
    def test_segment_count_reasonable(self, small_tablefree):
        assert 10 <= small_tablefree.segment_count <= 200

    def test_pwl_domain_covers_grid(self, small_tablefree):
        # The PWL must cover the squared receive distance of the farthest
        # grid point from the farthest element.
        generator = small_tablefree
        points = generator.grid.scanline_points(
            len(generator.grid.thetas) - 1, len(generator.grid.phis) - 1)
        _tx, rx_sq = generator._squared_args_samples(points)
        assert rx_sq.max() <= generator.pwl.x_max * (1 + 1e-9)

    def test_custom_delta(self, tiny):
        loose = TableFreeDelayGenerator.from_config(
            tiny, TableFreeConfig(delta=0.5))
        tight = TableFreeDelayGenerator.from_config(
            tiny, TableFreeConfig(delta=0.1))
        assert tight.segment_count > loose.segment_count


class TestDelayAccuracy:
    def test_selection_error_bounded(self, small, small_tablefree, small_exact):
        """Fixed-point TABLEFREE selection error stays within a couple samples
        (the paper reports max 2)."""
        points = sample_volume_points(small, max_points=300, seed=1)
        error = (small_tablefree.delay_indices(points)
                 - small_exact.delay_indices(points))
        assert np.max(np.abs(error)) <= 2

    def test_mean_error_sub_sample(self, small, small_tablefree, small_exact):
        """Mean absolute selection error is a fraction of a sample (~0.25)."""
        points = sample_volume_points(small, max_points=300, seed=2)
        error = (small_tablefree.delay_indices(points)
                 - small_exact.delay_indices(points))
        assert np.mean(np.abs(error)) < 0.45

    def test_continuous_error_bounded_by_two_delta(self, small, small_exact):
        """Without fixed point the delay error is bounded by 2 * delta
        (two square-root approximations are summed, Section VI-A)."""
        generator = TableFreeDelayGenerator.from_config(
            small, TableFreeConfig(delta=0.25, quantize_coefficients=False,
                                   delay_fraction_bits=-1))
        points = sample_volume_points(small, max_points=200, seed=3)
        error = (generator.delays_samples(points)
                 - small_exact.delays_samples(points))
        assert np.max(np.abs(error)) <= 0.5 + 1e-6

    def test_exact_transmit_mode_halves_error_bound(self, small, small_exact):
        generator = TableFreeDelayGenerator.from_config(
            small, TableFreeConfig(delta=0.25, approximate_transmit=False,
                                   quantize_coefficients=False,
                                   delay_fraction_bits=-1))
        points = sample_volume_points(small, max_points=200, seed=4)
        error = (generator.delays_samples(points)
                 - small_exact.delays_samples(points))
        assert np.max(np.abs(error)) <= 0.25 + 1e-6

    def test_smaller_delta_improves_accuracy(self, tiny, tiny_exact):
        points = sample_volume_points(tiny, max_points=150, seed=5)
        errors = {}
        for delta in (0.5, 0.125):
            generator = TableFreeDelayGenerator.from_config(
                tiny, TableFreeConfig(delta=delta, quantize_coefficients=False,
                                      delay_fraction_bits=-1))
            diff = (generator.delays_samples(points)
                    - tiny_exact.delays_samples(points))
            errors[delta] = np.mean(np.abs(diff))
        assert errors[0.125] < errors[0.5]


class TestInterfaces:
    def test_delays_samples_shape(self, tiny_tablefree, tiny):
        points = np.array([[0.0, 0.0, 0.01], [0.001, 0.0, 0.012]])
        delays = tiny_tablefree.delays_samples(points)
        assert delays.shape == (2, tiny.transducer.element_count)

    def test_delay_indices_integer(self, tiny_tablefree):
        points = np.array([[0.0, 0.0, 0.01]])
        indices = tiny_tablefree.delay_indices(points)
        assert indices.dtype == np.int64
        assert np.all(indices >= 0)

    def test_scanline_delays_shape(self, tiny_tablefree, tiny):
        delays = tiny_tablefree.scanline_delays_samples(1, 2)
        assert delays.shape == (tiny.volume.n_depth, tiny.transducer.element_count)

    def test_nappe_delays_shape(self, tiny_tablefree, tiny):
        delays = tiny_tablefree.nappe_delays_samples(4)
        assert delays.shape == (tiny.volume.n_theta, tiny.volume.n_phi,
                                tiny.transducer.element_count)

    def test_nappe_and_scanline_consistent(self, tiny_tablefree):
        nappe = tiny_tablefree.nappe_delays_samples(6)
        scanline = tiny_tablefree.scanline_delays_samples(3, 5)
        np.testing.assert_allclose(nappe[3, 5], scanline[6])

    def test_grid_point_delays_match_point_api(self, tiny_tablefree):
        point = tiny_tablefree.grid.point(2, 2, 7).reshape(1, 3)
        from_points = tiny_tablefree.delays_samples(point)[0]
        from_scanline = tiny_tablefree.scanline_delays_samples(2, 2)[7]
        np.testing.assert_allclose(from_points, from_scanline)


class TestSegmentTracking:
    def test_scanline_sweep_needs_few_segment_steps(self, small_tablefree):
        stats = small_tablefree.segment_step_statistics(i_theta=0, i_phi=0,
                                                        element_index=0)
        assert stats["evaluations"] == len(small_tablefree.grid.depths)
        assert stats["mean_steps"] < 2.0

    def test_incremental_evaluator_agrees_with_pwl(self, small_tablefree, rng):
        evaluator = small_tablefree.incremental_evaluator()
        xs = np.sort(rng.uniform(0, small_tablefree.pwl.x_max, 200))
        np.testing.assert_allclose(evaluator.evaluate_sequence(xs),
                                   small_tablefree.pwl.evaluate(xs))


def _searchsorted_pwl(pwl, x):
    """PWL evaluation with the binary-search segment index."""
    idx = np.clip(np.searchsorted(pwl.breakpoints, x, side="right") - 1,
                  0, pwl.segment_count - 1)
    return pwl.slopes[idx] * x + pwl.intercepts[idx]


def _reference_delays(generator, points):
    """The datapath as separate passes: PWL terms, add, then the generic
    round-half-away quantiser of the accumulated delay."""
    tx_sq, rx_sq = generator._squared_args_samples(points)
    rx = _searchsorted_pwl(generator.pwl, rx_sq)
    if generator.design.approximate_transmit:
        tx = _searchsorted_pwl(generator.pwl, tx_sq)
    else:
        tx = np.sqrt(tx_sq)
    total = tx[:, None] + rx
    fraction = generator.design.delay_fraction_bits
    if fraction is not None and fraction >= 0:
        total = quantize(total, unsigned(generator.system.delay_index_bits,
                                         fraction))
    return total


class TestFusedDatapath:
    @pytest.mark.parametrize("preset", ["tiny", "small", "paper"])
    def test_table_index_equals_searchsorted_on_preset_grid(self, preset):
        system = {"tiny": tiny_system, "small": small_system,
                  "paper": paper_system}[preset]()
        generator = TableFreeDelayGenerator.from_config(system)
        if preset == "paper":  # 16M points x 10k elements: sample it
            points = sample_volume_points(system, max_points=40)
        else:
            points = generator.grid.range_points(0, generator.grid.point_count)
        tx_sq, rx_sq = generator._squared_args_samples(points)
        pwl = generator.pwl
        assert pwl._table is not None
        for args in (rx_sq, tx_sq):
            expected = np.clip(
                np.searchsorted(pwl.breakpoints, args, side="right") - 1,
                0, pwl.segment_count - 1)
            np.testing.assert_array_equal(pwl.segment_index(args), expected)

    @pytest.mark.parametrize("design", [
        TableFreeConfig(),
        TableFreeConfig(approximate_transmit=False),
        TableFreeConfig(quantize_coefficients=False),
        TableFreeConfig(delay_fraction_bits=None),
        TableFreeConfig(delay_fraction_bits=0),
        TableFreeConfig(delta=0.1, delay_fraction_bits=3),
    ], ids=["default", "exact_transmit", "float_coefficients",
            "no_rounding", "integer_rounding", "fine"])
    @pytest.mark.parametrize("preset", ["tiny", "small"])
    def test_tile_rows_bit_identical_to_separate_passes(self, preset,
                                                        design):
        system = tiny_system() if preset == "tiny" else small_system()
        generator = TableFreeDelayGenerator.from_config(system, design)
        stop = min(generator.grid.point_count, 2048)
        delays = generator.tile_delays_samples(0, stop)
        expected = _reference_delays(generator,
                                     generator.grid.range_points(0, stop))
        np.testing.assert_array_equal(delays, expected)
        assert not np.signbit(delays).any()

    @pytest.mark.parametrize("lsb_halves", [1, 3, 5, 8191])
    def test_rounding_ties_go_away_from_zero(self, tiny_tablefree,
                                             lsb_halves):
        """Each PWL term is an odd number of quarter LSBs, so every
        accumulated delay is an exact tie, which the quantiser rounds away
        from zero (not to even)."""
        fraction = tiny_tablefree.design.delay_fraction_bits
        c0 = lsb_halves * 2.0 ** -(fraction + 2)
        flat = PiecewiseSqrt(breakpoints=np.array([0.0, 1e12]),
                             slopes=np.zeros(1), intercepts=np.array([c0]),
                             delta=1.0)
        generator = dataclasses.replace(tiny_tablefree, pwl=flat)
        delays = generator.tile_delays_samples(0, 64)
        expected = _reference_delays(generator,
                                     generator.grid.range_points(0, 64))
        np.testing.assert_array_equal(delays, expected)
        assert np.all(delays == (lsb_halves + 1) // 2 * 2.0 ** -fraction)
