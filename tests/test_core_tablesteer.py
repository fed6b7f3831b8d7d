"""Tests for repro.core.tablesteer: table-plus-steering delay generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.accuracy import sample_volume_points
from repro.core.tablesteer import (
    TableSteerConfig,
    TableSteerDelayGenerator,
    farfield_error_seconds,
    lagrange_error_bound_seconds,
)
from repro.config import VolumeConfig
from repro.fixedpoint.quantize import quantize
from repro.geometry.coordinates import spherical_to_cartesian
from repro.geometry.volume import FocalGrid

#: Three nodes per axis: thetas, phis [rad] and depths [m].
_THETAS, _PHIS, _DEPTHS = ([-0.2, 0.0, 0.2], [-0.1, 0.0, 0.1],
                           [1.0, 2.0, 3.0])
_SMALL_GRID = FocalGrid(
    config=VolumeConfig(n_theta=3, n_phi=3, n_depth=3, theta_max=0.2,
                        phi_max=0.1, depth_min=1.0, depth_max=3.0),
    thetas=np.array(_THETAS), phis=np.array(_PHIS), depths=np.array(_DEPTHS))


class TestNearestIndex:
    """The grid lookup both gridded generators (TABLESTEER, recursive)
    map a point through: ``FocalGrid.nearest_indices``."""

    def test_exact_grid_values(self):
        nodes = [(0, 0, 0), (2, 1, 2), (1, 2, 1)]
        points = np.stack([spherical_to_cartesian(
            _THETAS[a], _PHIS[b], _DEPTHS[c]) for a, b, c in nodes])
        np.testing.assert_array_equal(
            np.stack(_SMALL_GRID.nearest_indices(points), axis=1), nodes)

    def test_between_values_rounds_to_nearest(self):
        # On the axis (theta = phi = 0) a point's radius is its depth,
        # exactly; 1.5 is the tie between the first two depths.
        depths = np.array([1.4, 1.6, 2.49, 2.51, 1.5, 2.5])
        on_axis = np.stack([np.zeros(6), np.zeros(6), depths], axis=1)
        i_theta, i_phi, i_depth = _SMALL_GRID.nearest_indices(on_axis)
        np.testing.assert_array_equal(i_depth, [0, 1, 1, 2, 0, 1])
        np.testing.assert_array_equal(i_theta, np.ones(6))
        np.testing.assert_array_equal(i_phi, np.ones(6))

    def test_out_of_range_clamped(self):
        points = np.stack([spherical_to_cartesian(-1.0, 0.9, 0.2),
                           spherical_to_cartesian(1.0, -0.9, 7.0)])
        np.testing.assert_array_equal(
            np.stack(_SMALL_GRID.nearest_indices(points), axis=1),
            [(0, 2, 0), (2, 0, 2)])


class TestConfig:
    def test_float_mode_flag(self):
        assert not TableSteerConfig(total_bits=None).is_fixed_point
        assert TableSteerConfig(total_bits=18).is_fixed_point

    def test_float_mode_has_no_formats(self):
        with pytest.raises(ValueError):
            TableSteerConfig(total_bits=None).formats()

    def test_formats_passthrough(self):
        ref, corr = TableSteerConfig(total_bits=18).formats()
        assert ref.total_bits == 18
        assert corr.signed


class TestBroadsideConsistency:
    def test_unsteered_scanline_matches_reference_table(self, tiny):
        """For theta = phi = 0 the steering plane is zero, so the generator
        must return exactly the reference-table values."""
        system = tiny.with_volume(n_theta=5, n_phi=5)
        generator = TableSteerDelayGenerator.from_config(
            system, TableSteerConfig(total_bits=None))
        scanline = generator.scanline_delays_samples(2, 2)
        ex, ey = generator.transducer.shape
        for i_depth in (0, len(generator.grid.depths) - 1):
            expected = generator.reference.lookup(i_depth).ravel()
            np.testing.assert_allclose(scanline[i_depth], expected)

    def test_broadside_matches_exact_engine(self, tiny, tiny_exact):
        """On the unsteered line of sight the TABLESTEER float delays are the
        exact delays (no approximation at all is involved there)."""
        system = tiny.with_volume(n_theta=5, n_phi=5)
        generator = TableSteerDelayGenerator.from_config(
            system, TableSteerConfig(total_bits=None))
        depths = generator.grid.depths
        points = np.stack([np.zeros_like(depths), np.zeros_like(depths), depths],
                          axis=-1)
        from repro.core.exact import ExactDelayEngine
        exact = ExactDelayEngine.from_config(system)
        np.testing.assert_allclose(generator.scanline_delays_samples(2, 2),
                                   exact.delays_samples(points), rtol=1e-12)


class TestSteeredAccuracy:
    def test_selection_error_small_within_directivity(self, small, small_exact,
                                                      small_tablesteer_float):
        from repro.analysis.accuracy import directivity_mask
        points = sample_volume_points(small, max_points=200, seed=8)
        error = (small_tablesteer_float.delay_indices(points)
                 - small_exact.delay_indices(points))
        mask = directivity_mask(small_exact, points)
        assert np.mean(np.abs(error[mask])) < 2.0

    def test_error_grows_with_steering_angle(self, small, small_exact,
                                             small_tablesteer_float):
        """The far-field approximation error increases off axis."""
        depths = small_exact.grid.depths[::8]
        centre_idx = len(small_exact.grid.thetas) // 2
        edge_idx = len(small_exact.grid.thetas) - 1
        def mean_error(i_theta):
            points = spherical_to_cartesian(
                np.full(len(depths), small_exact.grid.thetas[i_theta]),
                np.zeros(len(depths)), depths)
            return np.mean(np.abs(
                small_tablesteer_float.delays_samples(points)
                - small_exact.delays_samples(points)))
        assert mean_error(edge_idx) > mean_error(centre_idx)

    def test_error_decreases_with_depth(self, small, small_exact,
                                        small_tablesteer_float):
        """The far-field approximation improves as r grows."""
        i_theta = len(small_exact.grid.thetas) - 1
        i_phi = len(small_exact.grid.phis) - 1
        scanline_points = small_exact.grid.scanline_points(i_theta, i_phi)
        errors = np.abs(
            small_tablesteer_float.delays_samples(scanline_points)
            - small_exact.delays_samples(scanline_points)).mean(axis=1)
        shallow = errors[: len(errors) // 4].mean()
        deep = errors[-len(errors) // 4:].mean()
        assert deep < shallow

    def test_fixed_point_max_one_extra_sample(self, small):
        """Fixed point adds at most about one sample on top of the float mode
        (Section VI-A: the fixed-point index differs by at most +/-1)."""
        float_gen = TableSteerDelayGenerator.from_config(
            small, TableSteerConfig(total_bits=None))
        fixed_gen = TableSteerDelayGenerator.from_config(
            small, TableSteerConfig(total_bits=18))
        points = sample_volume_points(small, max_points=150, seed=9)
        float_idx = float_gen.delay_indices(points)
        fixed_idx = fixed_gen.delay_indices(points)
        assert np.max(np.abs(fixed_idx - float_idx)) <= 1


class TestInterfaces:
    def test_scanline_shape(self, tiny_tablesteer, tiny):
        delays = tiny_tablesteer.scanline_delays_samples(0, 0)
        assert delays.shape == (tiny.volume.n_depth,
                                tiny.transducer.element_count)

    def test_nappe_shape(self, tiny_tablesteer, tiny):
        delays = tiny_tablesteer.nappe_delays_samples(2)
        assert delays.shape == (tiny.volume.n_theta, tiny.volume.n_phi,
                                tiny.transducer.element_count)

    def test_nappe_scanline_consistency(self, tiny_tablesteer):
        nappe = tiny_tablesteer.nappe_delays_samples(5)
        scanline = tiny_tablesteer.scanline_delays_samples(4, 1)
        np.testing.assert_allclose(nappe[4, 1], scanline[5])

    def test_grid_delay_samples_single_point(self, tiny_tablesteer, tiny):
        delays = tiny_tablesteer.grid_delay_samples(1, 2, 3)
        assert delays.shape == (tiny.transducer.element_count,)
        scanline = tiny_tablesteer.scanline_delays_samples(1, 2)
        np.testing.assert_allclose(delays, scanline[3])

    def test_point_api_maps_to_nearest_grid_node(self, tiny_tablesteer):
        grid = tiny_tablesteer.grid
        point = grid.point(3, 4, 7).reshape(1, 3)
        from_points = tiny_tablesteer.delays_samples(point)[0]
        from_grid = tiny_tablesteer.grid_delay_samples(3, 4, 7)
        np.testing.assert_allclose(from_points, from_grid)

    def test_delay_indices_integer_nonnegative(self, tiny_tablesteer):
        points = tiny_tablesteer.grid.scanline_points(0, 0)[:4]
        indices = tiny_tablesteer.delay_indices(points)
        assert indices.dtype == np.int64
        assert np.all(indices >= 0)

    def test_storage_summary_keys(self, tiny_tablesteer):
        summary = tiny_tablesteer.storage_summary()
        assert set(summary) == {"reference_entries", "reference_megabits",
                                "correction_entries", "correction_megabits",
                                "total_megabits"}
        assert summary["total_megabits"] == pytest.approx(
            summary["reference_megabits"] + summary["correction_megabits"])

    def test_fixed_point_datapath_matches_delays(self, tiny_tablesteer):
        """The explicit FixedPointArray datapath rounds to the same indices
        as the quantised-float path used by delays_samples."""
        i_theta, i_phi, i_depth = 1, 3, 4
        datapath = tiny_tablesteer.fixed_point_datapath(i_theta, i_phi, i_depth)
        hw_indices = datapath.round_to_integer()
        float_path = tiny_tablesteer.grid_delay_samples(i_theta, i_phi, i_depth)
        expected = np.floor(float_path + 0.5).astype(np.int64)
        np.testing.assert_array_equal(hw_indices, expected)

    def test_float_mode_rejects_datapath_model(self, small_tablesteer_float):
        with pytest.raises(ValueError):
            small_tablesteer_float.fixed_point_datapath(0, 0, 0)


class TestErrorBounds:
    def test_farfield_error_zero_on_axis(self, tiny):
        error = farfield_error_seconds(
            0.0, 0.0, 0.02,
            np.linspace(-0.005, 0.005, 8), np.linspace(-0.005, 0.005, 8),
            tiny.acoustic.speed_of_sound)
        np.testing.assert_allclose(error, 0.0, atol=1e-15)

    def test_farfield_error_matches_generator_difference(self, small, small_exact,
                                                         small_tablesteer_float):
        """The closed-form error expression equals generator minus exact."""
        grid = small_exact.grid
        i_theta, i_phi, i_depth = len(grid.thetas) - 1, 0, len(grid.depths) // 2
        theta, phi, r = grid.thetas[i_theta], grid.phis[i_phi], grid.depths[i_depth]
        closed_form = farfield_error_seconds(
            theta, phi, r, small_exact.transducer.x, small_exact.transducer.y,
            small.acoustic.speed_of_sound)
        point = spherical_to_cartesian(theta, phi, r).reshape(1, 3)
        generator_diff = (
            small_tablesteer_float.delays_samples(point)
            - small_exact.delays_samples(point))[0] \
            / small.acoustic.sampling_frequency
        np.testing.assert_allclose(closed_form.ravel(), generator_diff,
                                   atol=1e-12)

    def test_lagrange_bound_exceeds_observed_errors(self, small, small_exact,
                                                    small_tablesteer_float):
        bound = lagrange_error_bound_seconds(small)
        points = sample_volume_points(small, max_points=200, seed=10)
        observed = np.max(np.abs(
            small_tablesteer_float.delays_samples(points)
            - small_exact.delays_samples(points))) \
            / small.acoustic.sampling_frequency
        assert bound >= observed * 0.9   # the bound is loose but not violated

    def test_lagrange_bound_positive(self, paper):
        assert lagrange_error_bound_seconds(paper) > 0


# ------------------------------------------------ vectorised grid methods
def _loop_plane(generator, i_theta, i_phi):
    """One correction plane, as the per-scanline datapath forms it."""
    x_term = generator.corrections.x_terms[:, i_theta, i_phi]
    y_term = generator.corrections.y_terms[:, i_phi]
    if generator.design.is_fixed_point:
        _ref_fmt, corr_fmt = generator.design.formats()
        x_term, y_term = quantize(x_term, corr_fmt), quantize(y_term, corr_fmt)
    return x_term[:, None] + y_term[None, :]


def _loop_reference(generator, i_depth):
    """One reference slice, read from the stored quadrant by symmetry."""
    quadrant = generator._reference_fixed if generator.design.is_fixed_point \
        else generator.reference.quadrant
    sliced = quadrant[:, :, int(i_depth)]
    return sliced[generator.reference.quadrant_x_index][
        :, generator.reference.quadrant_y_index]


def _loop_point(generator, i_theta, i_phi, i_depth):
    return (_loop_reference(generator, i_depth)
            + _loop_plane(generator, i_theta, i_phi)).ravel()


@pytest.mark.parametrize("total_bits", [13, 14, 18, None])
class TestVectorisedGridMethods:
    """``delays_samples`` (one indexed gather) and ``nappe_delays_samples``
    (one broadcast add) reproduce the per-point / per-scanline loops they
    replaced, bit for bit, for every paper width and the float design."""

    def test_delays_samples_match_point_loop(self, tiny, total_bits):
        generator = TableSteerDelayGenerator.from_config(
            tiny, TableSteerConfig(total_bits=total_bits))
        grid = generator.grid
        rng = np.random.default_rng(total_bits or 0)
        on_grid = grid.all_points().reshape(-1, 3)[
            rng.integers(0, grid.point_count, 120)]
        points = np.concatenate(
            [on_grid, on_grid + rng.normal(scale=1e-3, size=on_grid.shape)])
        expected = np.stack([
            _loop_point(generator, a, b, c)
            for a, b, c in zip(*grid.nearest_indices(points))])
        np.testing.assert_array_equal(generator.delays_samples(points),
                                      expected)
        assert generator.delays_samples(np.empty((0, 3))).shape == \
            (0, tiny.transducer.element_count)

    def test_nappe_matches_scanline_loop(self, tiny, total_bits):
        generator = TableSteerDelayGenerator.from_config(
            tiny, TableSteerConfig(total_bits=total_bits))
        n_theta, n_phi, n_depth = generator.grid.shape
        for i_depth in (0, n_depth // 2, n_depth - 1):
            expected = np.stack([
                np.stack([_loop_point(generator, a, b, i_depth)
                          for b in range(n_phi)]) for a in range(n_theta)])
            np.testing.assert_array_equal(
                generator.nappe_delays_samples(i_depth), expected)

    def test_scanline_and_point_match_loop(self, tiny, total_bits):
        generator = TableSteerDelayGenerator.from_config(
            tiny, TableSteerConfig(total_bits=total_bits))
        n_depth = len(generator.grid.depths)
        np.testing.assert_array_equal(
            generator.scanline_delays_samples(5, 2),
            np.stack([_loop_point(generator, 5, 2, d)
                      for d in range(n_depth)]))
        np.testing.assert_array_equal(generator.grid_delay_samples(1, 6, 3),
                                      _loop_point(generator, 1, 6, 3))
