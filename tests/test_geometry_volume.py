"""Tests for repro.geometry.volume: the focal-point grid."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import paper_system
from repro.geometry.volume import FocalGrid


class TestGridConstruction:
    def test_shape_matches_config(self, tiny_grid, tiny):
        assert tiny_grid.shape == (tiny.volume.n_theta, tiny.volume.n_phi,
                                   tiny.volume.n_depth)

    def test_point_count(self, tiny_grid):
        n_theta, n_phi, n_depth = tiny_grid.shape
        assert tiny_grid.point_count == n_theta * n_phi * n_depth

    def test_paper_grid_dimensions(self):
        grid = FocalGrid.from_config(paper_system())
        assert grid.shape == (128, 128, 1000)

    def test_angles_symmetric_about_zero(self, small_grid):
        np.testing.assert_allclose(small_grid.thetas, -small_grid.thetas[::-1])
        np.testing.assert_allclose(small_grid.phis, -small_grid.phis[::-1])

    def test_angle_extremes_match_config(self, small_grid, small):
        assert small_grid.thetas[0] == pytest.approx(-small.volume.theta_max)
        assert small_grid.thetas[-1] == pytest.approx(small.volume.theta_max)
        assert small_grid.phis[-1] == pytest.approx(small.volume.phi_max)

    def test_depths_span_config_range(self, small_grid, small):
        assert small_grid.depths[0] == pytest.approx(small.volume.depth_min)
        assert small_grid.depths[-1] == pytest.approx(small.volume.depth_max)
        assert np.all(np.diff(small_grid.depths) > 0)


class TestPointAccessors:
    def test_single_point_matches_scanline(self, tiny_grid):
        point = tiny_grid.point(2, 3, 5)
        scanline = tiny_grid.scanline_points(2, 3)
        np.testing.assert_allclose(point, scanline[5])

    def test_scanline_points_shape(self, tiny_grid):
        scanline = tiny_grid.scanline_points(0, 0)
        assert scanline.shape == (tiny_grid.shape[2], 3)

    def test_scanline_radii_equal_depths(self, tiny_grid):
        scanline = tiny_grid.scanline_points(1, 6)
        np.testing.assert_allclose(np.linalg.norm(scanline, axis=1),
                                   tiny_grid.depths)

    def test_nappe_points_shape(self, tiny_grid):
        nappe = tiny_grid.nappe_points(3)
        n_theta, n_phi, _ = tiny_grid.shape
        assert nappe.shape == (n_theta, n_phi, 3)

    def test_nappe_points_constant_radius(self, tiny_grid):
        nappe = tiny_grid.nappe_points(7)
        radii = np.linalg.norm(nappe.reshape(-1, 3), axis=1)
        np.testing.assert_allclose(radii, tiny_grid.depths[7])

    def test_all_points_consistent_with_accessors(self, tiny_grid):
        all_points = tiny_grid.all_points()
        np.testing.assert_allclose(all_points[2, 3, 5], tiny_grid.point(2, 3, 5))
        np.testing.assert_allclose(all_points[:, :, 4], tiny_grid.nappe_points(4))
        np.testing.assert_allclose(all_points[1, 2, :],
                                   tiny_grid.scanline_points(1, 2))

    @pytest.mark.parametrize("grid_name", ["tiny_grid", "small_grid"])
    def test_range_points_are_scanline_rows_bitwise(self, grid_name, request):
        grid = request.getfixturevalue(grid_name)
        n_theta, n_phi, _ = grid.shape
        rows = np.concatenate([grid.scanline_points(a, b)
                               for a in range(n_theta) for b in range(n_phi)])
        np.testing.assert_array_equal(grid.range_points(0, grid.point_count),
                                      rows)
        # Ranges cutting scanlines, single points and empty ranges.
        for start, stop in ((5, 37), (17, 18), (grid.point_count - 3,
                                                grid.point_count), (9, 9)):
            np.testing.assert_array_equal(grid.range_points(start, stop),
                                          rows[start:stop])

    def test_broadside_scanline_lies_on_z_axis_for_odd_grid(self, tiny):
        # Build a grid with odd angular counts so theta = phi = 0 exists.
        system = tiny.with_volume(n_theta=5, n_phi=5)
        grid = FocalGrid.from_config(system)
        scanline = grid.scanline_points(2, 2)
        np.testing.assert_allclose(scanline[:, 0], 0.0, atol=1e-12)
        np.testing.assert_allclose(scanline[:, 1], 0.0, atol=1e-12)


class TestSubsample:
    def test_subsample_shape(self, small_grid):
        sub = small_grid.subsample(every_theta=2, every_phi=4, every_depth=8)
        assert sub.shape == (8, 4, 8)

    def test_subsample_preserves_values(self, small_grid):
        sub = small_grid.subsample(every_theta=2)
        np.testing.assert_allclose(sub.thetas, small_grid.thetas[::2])
        np.testing.assert_allclose(sub.depths, small_grid.depths)

    def test_subsample_identity(self, small_grid):
        sub = small_grid.subsample()
        assert sub.shape == small_grid.shape

    def test_subsample_point_count_consistent(self, small_grid):
        sub = small_grid.subsample(every_depth=4)
        assert sub.point_count == sub.shape[0] * sub.shape[1] * sub.shape[2]
