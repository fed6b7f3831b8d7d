"""Property-based tests (hypothesis) for the PWL square root and geometry."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.piecewise import IncrementalSqrtEvaluator, PiecewiseSqrt, minimax_linear_sqrt
from repro.fixedpoint.format import signed, unsigned
from repro.geometry.coordinates import cartesian_to_spherical, spherical_to_cartesian


class TestMinimaxProperties:
    @given(a=st.floats(min_value=0, max_value=1e6, allow_nan=False),
           width=st.floats(min_value=1e-3, max_value=1e6, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_error_bound_holds_for_random_intervals(self, a, width):
        b = a + width
        c1, c0, max_error = minimax_linear_sqrt(a, b)
        xs = np.linspace(a, b, 257)
        errors = c1 * xs + c0 - np.sqrt(xs)
        assert np.max(np.abs(errors)) <= max_error * (1 + 1e-6) + 1e-12

    @given(a=st.floats(min_value=0, max_value=1e5, allow_nan=False),
           width=st.floats(min_value=1e-3, max_value=1e5, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_error_shrinks_when_interval_shrinks(self, a, width):
        b = a + width
        mid = a + width / 2
        _c1, _c0, full_error = minimax_linear_sqrt(a, b)
        _c1, _c0, half_error = minimax_linear_sqrt(a, mid)
        assert half_error <= full_error + 1e-12


class TestPiecewiseProperties:
    @given(x_max=st.floats(min_value=100.0, max_value=1e7, allow_nan=False),
           delta=st.floats(min_value=0.05, max_value=1.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_built_segmentation_respects_delta_everywhere(self, x_max, delta):
        pwl = PiecewiseSqrt.build(0.0, x_max, delta)
        rng = np.random.default_rng(0)
        xs = rng.uniform(0.0, x_max, 2000)
        assert np.max(np.abs(pwl.evaluate(xs) - np.sqrt(xs))) <= delta * (1 + 1e-6)

    @given(x_max=st.floats(min_value=100.0, max_value=1e6, allow_nan=False),
           delta=st.floats(min_value=0.05, max_value=1.0, allow_nan=False),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_incremental_evaluator_always_matches_direct(self, x_max, delta, seed):
        """Regardless of the visiting order, the incremental tracker lands on
        the same segment (and hence value) as the binary-search evaluation."""
        pwl = PiecewiseSqrt.build(0.0, x_max, delta)
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0.0, x_max, 200)
        evaluator = IncrementalSqrtEvaluator(pwl=pwl)
        np.testing.assert_allclose(evaluator.evaluate_sequence(xs),
                                   pwl.evaluate(xs))

    @given(x_max=st.floats(min_value=1000.0, max_value=1e6, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_breakpoints_strictly_increasing(self, x_max):
        pwl = PiecewiseSqrt.build(0.0, x_max, 0.25)
        assert np.all(np.diff(pwl.breakpoints) > 0)

    @given(x_max=st.floats(min_value=1000.0, max_value=1e6, allow_nan=False),
           delta_small=st.floats(min_value=0.05, max_value=0.2, allow_nan=False),
           delta_large=st.floats(min_value=0.3, max_value=1.0, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_tighter_delta_never_needs_fewer_segments(self, x_max, delta_small,
                                                      delta_large):
        fine = PiecewiseSqrt.build(0.0, x_max, delta_small)
        coarse = PiecewiseSqrt.build(0.0, x_max, delta_large)
        assert fine.segment_count >= coarse.segment_count


def searchsorted_segment(pwl: PiecewiseSqrt, x: np.ndarray) -> np.ndarray:
    """The binary-search segment index the lookup table replaces."""
    idx = np.searchsorted(pwl.breakpoints, x, side="right") - 1
    return np.clip(idx, 0, pwl.segment_count - 1)


class TestSegmentTable:
    @given(x_max=st.floats(min_value=1.0, max_value=2e7, allow_nan=False),
           delta=st.floats(min_value=0.1, max_value=2.0, allow_nan=False),
           start=st.sampled_from([0.0, 0.01, 0.5]),
           quantized=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_table_index_equals_searchsorted_at_every_breakpoint(
            self, x_max, delta, start, quantized):
        """At, and one ulp either side of, every breakpoint, plus zero,
        values below the domain and values past ``x_max``."""
        pwl = PiecewiseSqrt.build(start * x_max, x_max, delta)
        if quantized:
            pwl = pwl.quantized(signed(3, 26), unsigned(13, 8))
        assert pwl._table is not None  # the table, not the fallback
        bp = pwl.breakpoints
        xs = np.concatenate([
            bp, np.nextafter(bp, -np.inf), np.nextafter(bp, np.inf),
            [0.0, -0.0, 5e-324, -1.0, x_max * 1.5, x_max * 1e6, np.inf,
             -np.inf]])
        np.testing.assert_array_equal(pwl.segment_index(xs),
                                      searchsorted_segment(pwl, xs))
        for x in xs[:4]:  # scalars take the same path
            assert pwl.segment_index(float(x)) == \
                searchsorted_segment(pwl, x)

    def test_unseparable_breakpoints_fall_back_to_binary_search(self):
        bp = np.array([0.0, 1.0, np.nextafter(1.0, 2.0), 4.0])
        pwl = PiecewiseSqrt(breakpoints=bp, slopes=np.ones(3),
                            intercepts=np.zeros(3), delta=1.0)
        assert pwl._table is None
        xs = np.array([-1.0, 0.5, 1.0, bp[2], 3.0, 9.0])
        np.testing.assert_array_equal(pwl.segment_index(xs),
                                      searchsorted_segment(pwl, xs))


class TestCoordinateProperties:
    @given(theta=st.floats(min_value=-1.4, max_value=1.4, allow_nan=False),
           phi=st.floats(min_value=-1.4, max_value=1.4, allow_nan=False),
           r=st.floats(min_value=1e-4, max_value=10.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_spherical_roundtrip(self, theta, phi, r):
        point = spherical_to_cartesian(theta, phi, r)
        theta_back, phi_back, r_back = cartesian_to_spherical(point)
        assert abs(float(r_back) - r) <= 1e-9 * max(1.0, r)
        assert abs(float(theta_back) - theta) <= 1e-7
        assert abs(float(phi_back) - phi) <= 1e-7

    @given(theta=st.floats(min_value=-1.4, max_value=1.4, allow_nan=False),
           phi=st.floats(min_value=-1.4, max_value=1.4, allow_nan=False),
           r=st.floats(min_value=1e-4, max_value=10.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_radius_preserved(self, theta, phi, r):
        point = spherical_to_cartesian(theta, phi, r)
        assert abs(float(np.linalg.norm(point)) - r) <= 1e-9 * max(1.0, r)

    @given(theta=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
           r=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_zero_phi_keeps_y_zero(self, theta, r):
        point = spherical_to_cartesian(theta, 0.0, r)
        assert abs(float(point[..., 1])) <= 1e-12
