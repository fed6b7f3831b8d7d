"""Tests for repro.geometry.coordinates: spherical/Cartesian conversions."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.geometry.coordinates import (
    cartesian_to_spherical,
    distances,
    off_axis_angle,
    pairwise_distances,
    spherical_to_cartesian,
    squared_distances,
)


class TestSphericalToCartesian:
    def test_broadside_is_positive_z(self):
        point = spherical_to_cartesian(0.0, 0.0, 3.0)
        np.testing.assert_allclose(point, [0.0, 0.0, 3.0], atol=1e-15)

    def test_theta_steers_in_xz_plane(self):
        point = spherical_to_cartesian(math.pi / 2, 0.0, 2.0)
        np.testing.assert_allclose(point, [2.0, 0.0, 0.0], atol=1e-12)

    def test_phi_steers_towards_y(self):
        point = spherical_to_cartesian(0.0, math.pi / 2, 2.0)
        np.testing.assert_allclose(point, [0.0, 2.0, 0.0], atol=1e-12)

    def test_radius_preserved(self, rng):
        thetas = rng.uniform(-1.0, 1.0, 100)
        phis = rng.uniform(-1.0, 1.0, 100)
        rs = rng.uniform(0.1, 10.0, 100)
        points = spherical_to_cartesian(thetas, phis, rs)
        np.testing.assert_allclose(np.linalg.norm(points, axis=-1), rs)

    def test_matches_paper_equation_5(self, rng):
        theta, phi, r = 0.3, -0.2, 1.7
        point = spherical_to_cartesian(theta, phi, r)
        expected = [r * math.cos(phi) * math.sin(theta),
                    r * math.sin(phi),
                    r * math.cos(phi) * math.cos(theta)]
        np.testing.assert_allclose(point, expected)

    def test_broadcasting_shapes(self):
        thetas = np.zeros((4, 1))
        phis = np.zeros((1, 5))
        points = spherical_to_cartesian(thetas, phis, 1.0)
        assert points.shape == (4, 5, 3)


class TestCartesianToSpherical:
    def test_roundtrip(self, rng):
        thetas = rng.uniform(-1.2, 1.2, 200)
        phis = rng.uniform(-1.2, 1.2, 200)
        rs = rng.uniform(0.01, 5.0, 200)
        points = spherical_to_cartesian(thetas, phis, rs)
        theta_back, phi_back, r_back = cartesian_to_spherical(points)
        np.testing.assert_allclose(theta_back, thetas, atol=1e-10)
        np.testing.assert_allclose(phi_back, phis, atol=1e-10)
        np.testing.assert_allclose(r_back, rs, atol=1e-10)

    def test_origin_has_zero_radius(self):
        _theta, _phi, r = cartesian_to_spherical(np.zeros(3))
        assert r == pytest.approx(0.0)


class TestDistances:
    def test_distance_to_reference(self):
        points = np.array([[0.0, 0.0, 1.0], [3.0, 4.0, 0.0]])
        np.testing.assert_allclose(distances(points, np.zeros(3)), [1.0, 5.0])

    def test_pairwise_shape_and_values(self):
        a = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        b = np.array([[0.0, 0.0, 0.0], [0.0, 3.0, 4.0], [1.0, 0.0, 0.0]])
        matrix = pairwise_distances(a, b)
        assert matrix.shape == (2, 3)
        np.testing.assert_allclose(matrix[0], [0.0, 5.0, 1.0])
        np.testing.assert_allclose(matrix[1], [1.0, np.sqrt(1 + 25), 0.0])

    def test_pairwise_symmetry(self, rng):
        a = rng.normal(size=(5, 3))
        b = rng.normal(size=(7, 3))
        np.testing.assert_allclose(pairwise_distances(a, b),
                                   pairwise_distances(b, a).T)

    @pytest.mark.parametrize("n_a", [1, 7, 300])
    def test_per_coordinate_forms_are_bitwise_numpy_reductions(self, rng,
                                                               n_a):
        """The per-coordinate sums add the squares in the order
        ``np.linalg.norm`` / ``np.sum`` reduce a 3-wide axis."""
        a = rng.normal(size=(n_a, 3)) * 0.03
        b = rng.normal(size=(64, 3)) * 0.01
        delta = a[:, None, :] - b[None, :, :]
        np.testing.assert_array_equal(pairwise_distances(a, b),
                                      np.linalg.norm(delta, axis=-1))
        scaled = delta * 20779.2
        np.testing.assert_array_equal(squared_distances(a, b, 20779.2),
                                      np.sum(scaled * scaled, axis=-1))
        cos_angle = np.clip(delta[..., 2] / np.linalg.norm(delta, axis=-1),
                            -1.0, 1.0)
        np.testing.assert_array_equal(off_axis_angle(a, b),
                                      np.arccos(cos_angle))


class TestOffAxisAngle:
    def test_point_straight_ahead_is_zero(self):
        points = np.array([[0.0, 0.0, 5.0]])
        origins = np.array([[0.0, 0.0, 0.0]])
        assert off_axis_angle(points, origins)[0, 0] == pytest.approx(0.0)

    def test_point_in_plane_is_ninety_degrees(self):
        points = np.array([[1.0, 0.0, 0.0]])
        origins = np.array([[0.0, 0.0, 0.0]])
        assert off_axis_angle(points, origins)[0, 0] == pytest.approx(math.pi / 2)

    def test_forty_five_degrees(self):
        points = np.array([[1.0, 0.0, 1.0]])
        origins = np.array([[0.0, 0.0, 0.0]])
        assert off_axis_angle(points, origins)[0, 0] == pytest.approx(math.pi / 4)

    def test_depends_on_origin(self):
        points = np.array([[1.0, 0.0, 1.0]])
        origins = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        angles = off_axis_angle(points, origins)
        assert angles[0, 0] == pytest.approx(math.pi / 4)
        assert angles[0, 1] == pytest.approx(0.0)

    def test_shape(self, rng):
        points = rng.normal(size=(6, 3))
        origins = rng.normal(size=(4, 3))
        assert off_axis_angle(points, origins).shape == (6, 4)

    def test_coincident_point_returns_zero_angle(self):
        points = np.array([[0.0, 0.0, 0.0]])
        origins = np.array([[0.0, 0.0, 0.0]])
        assert np.isfinite(off_axis_angle(points, origins)[0, 0])
