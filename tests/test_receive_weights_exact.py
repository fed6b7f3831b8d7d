"""Bit-for-bit pins of the receive-weight build against the reference formula.

The beamformer classes each (point, element) pair by two per-point bounds
on its squared in-plane distance and runs the exact angle arithmetic only
on the pairs the bounds leave open
(:meth:`~repro.beamformer.das.DelayAndSumBeamformer.split_weights`).  Every
weight it hands out — natural rows, the leaf rows of a CSR plan, cast or
quantised tensors — must equal the reference
``directivity_weights(off_axis_angle(points, positions), max, rolloff) *
aperture`` bit for bit, signed zeros included.  The cases below cover grid
ranges cut anywhere, interior scanlines of the paper's probe, points built
to sit within a few ulps of the knee and of the maximum angle, and points
the bounds must leave to the exact path (below or on the probe, NaN).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.architectures import ARCHITECTURES
from repro.beamformer.das import ApodizationSettings, DelayAndSumBeamformer
from repro.geometry.apodization import (
    WindowType,
    aperture_apodization,
    directivity_weights,
)
from repro.geometry.coordinates import off_axis_angle
from repro.kernels import QuantizationSpec, leaf_rows, receive_weights
from repro.kernels import plan as plan_module
from repro.kernels.ops import LeafLayout

APODIZATIONS = (
    [ApodizationSettings(window=window) for window in WindowType]
    + [ApodizationSettings(directivity_rolloff=rolloff)
       for rolloff in (0.0, 1.0)]
    + [ApodizationSettings(use_directivity=False)])
"""Every window at the default rolloff (0.1), rolloff 0 and 1, and no
directivity."""


def _reference(beamformer: DelayAndSumBeamformer,
               points: np.ndarray) -> np.ndarray:
    """The reference weights, from the geometry module's own formula."""
    transducer = beamformer.transducer
    aperture = aperture_apodization(
        transducer, beamformer.apodization.window).ravel()
    points = np.atleast_2d(points)
    if not beamformer.apodization.use_directivity:
        return np.broadcast_to(
            aperture, (points.shape[0], transducer.element_count)).copy()
    with np.errstate(all="ignore"):
        angles = off_axis_angle(points, transducer.positions)
    return directivity_weights(
        angles, transducer.config.directivity_max_angle,
        beamformer.apodization.directivity_rolloff) * aperture


def _assert_bits_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    unsigned = np.dtype(f"u{want.dtype.itemsize}")
    np.testing.assert_array_equal(got.view(unsigned), want.view(unsigned))


def _assert_leaf_rows_equal(beamformer, start: int, stop: int,
                            dtype) -> None:
    """``leaf_rows`` of ``[start, stop)`` against the reference weights cast
    to ``dtype`` and put in leaf order independently of the build."""
    plan_module._WEIGHTS.clear()
    beamformer._plan_weights.clear()
    rows = leaf_rows(beamformer, start, stop, dtype)
    natural = _reference(beamformer,
                         beamformer.grid.range_points(start, stop)
                         ).astype(dtype)
    layout = LeafLayout.of(beamformer.transducer.element_count)
    stored = np.concatenate([natural[:, leaf].ravel()
                             for leaf in layout.stored_leaves])
    kept = stored != 0
    counts = np.concatenate([(natural[:, leaf] != 0).sum(axis=1)
                             for leaf in layout.stored_leaves])
    np.testing.assert_array_equal(rows.kept, kept)
    np.testing.assert_array_equal(rows.indptr,
                                  np.concatenate([[0], np.cumsum(counts)]))
    _assert_bits_equal(rows.weights, stored[kept])


def _beamformer(system, apodization=None) -> DelayAndSumBeamformer:
    return DelayAndSumBeamformer(system, ARCHITECTURES.create("exact",
                                                              system),
                                 apodization=apodization)


def _ranges(system) -> list[tuple[int, int]]:
    """The whole grid and ranges cut mid-scanline."""
    n = system.volume.focal_point_count
    depth = system.volume.n_depth
    return [(0, n), (depth // 3, n // 2 + depth // 2 + 1),
            (n - 2 * depth - 5, n - 3)]


@pytest.mark.parametrize("apodization", APODIZATIONS, ids=repr)
def test_tiny_grid_ranges_match_the_reference(tiny, apodization):
    beamformer = _beamformer(tiny, apodization)
    for start, stop in _ranges(tiny):
        points = beamformer.grid.range_points(start, stop)
        _assert_bits_equal(beamformer.weights_for_points(points),
                           _reference(beamformer, points))
        for dtype in (np.float64, np.float32):
            _assert_leaf_rows_equal(beamformer, start, stop, dtype)


@pytest.mark.parametrize("rolloff", [0.0, 0.1, 1.0])
def test_small_grid_ranges_match_the_reference(small, rolloff):
    beamformer = _beamformer(small, ApodizationSettings(
        directivity_rolloff=rolloff))
    for start, stop in _ranges(small):
        points = beamformer.grid.range_points(start, stop)
        _assert_bits_equal(beamformer.weights_for_points(points),
                           _reference(beamformer, points))
    n = small.volume.focal_point_count
    for start, stop in ((0, n), (n // 3 + 7, 2 * n // 3)):
        _assert_leaf_rows_equal(beamformer, start, stop, np.float64)
    _assert_leaf_rows_equal(beamformer, 1000, 3000, np.float32)


def test_natural_tensors_cast_and_quantized_match_the_reference(small):
    beamformer = _beamformer(small, ApodizationSettings(
        window=WindowType.TUKEY, directivity_rolloff=0.3))
    start, stop = 700, 5000
    reference = _reference(beamformer,
                           beamformer.grid.range_points(start, stop))
    quantization = QuantizationSpec.from_total_bits(18)
    cases = [(np.float64, None, reference),
             (np.float32, None, reference.astype(np.float32)),
             (np.float64, quantization,
              quantization.quantize_weights(reference))]
    for dtype, spec, want in cases:
        plan_module._WEIGHTS.clear()
        beamformer._plan_weights.clear()
        _assert_bits_equal(
            receive_weights(beamformer, start, stop, dtype, spec), want)


def test_paper_probe_interior_scanlines_match_the_reference(paper):
    """A few interior scanlines of the 100 x 100 probe: the directivity
    keeps most pairs there, unlike the +/-theta_max corner lines."""
    beamformer = _beamformer(paper)
    volume = paper.volume
    for i_theta, i_phi in ((64, 64), (40, 90), (100, 20)):
        line = i_theta * volume.n_phi + i_phi
        start = line * volume.n_depth + 150
        stop = start + 120
        points = beamformer.grid.range_points(start, stop)
        _assert_bits_equal(beamformer.weights_for_points(points),
                           _reference(beamformer, points))
        _assert_leaf_rows_equal(beamformer, start, stop, np.float64)


def _points_at_angle(transducer, element: int, angle: float,
                     ulps: int = 3) -> np.ndarray:
    """Points whose off-axis angle to ``element`` is ``angle`` up to
    rounding, each z then moved by up to ``ulps`` ulps either way."""
    base = transducer.positions[element]
    points = []
    for azimuth in np.linspace(0.0, 2 * math.pi, 7, endpoint=False):
        for distance in (0.004, 0.013, 0.05):
            point = base + distance * np.array([
                math.sin(angle) * math.cos(azimuth),
                math.sin(angle) * math.sin(azimuth), math.cos(angle)])
            for step in range(-ulps, ulps + 1):
                moved = point.copy()
                direction = np.inf if step > 0 else -np.inf
                for _ in range(abs(step)):
                    moved[2] = np.nextafter(moved[2], direction)
                points.append(moved)
    return np.array(points)


@pytest.mark.parametrize("rolloff", [0.0, 0.1, 1.0])
def test_points_within_ulps_of_the_knee_and_the_maximum(small, rolloff):
    beamformer = _beamformer(small, ApodizationSettings(
        directivity_rolloff=rolloff))
    transducer = beamformer.transducer
    max_angle = transducer.config.directivity_max_angle
    knee = max_angle * (1.0 - rolloff)
    for element in (0, 37, transducer.element_count - 1):
        for angle in (knee, max_angle):
            points = _points_at_angle(transducer, element, angle)
            angles = off_axis_angle(points, transducer.positions)[:, element]
            # The construction lands on the boundary, to rounding.
            assert np.max(np.abs(angles - angle)) < 1e-13
            _assert_bits_equal(beamformer.weights_for_points(points),
                               _reference(beamformer, points))


@pytest.mark.parametrize("degrees", [20.0, 89.99, 90.0, 120.0])
@pytest.mark.parametrize("rolloff", [0.1, 1.0])
def test_maximum_angles_up_to_and_past_ninety_degrees(tiny, degrees,
                                                      rolloff):
    """A bound is dropped where its cosine is too small to carry the
    margin; those entries then run the exact arithmetic.  Points close to
    the probe plane reach angles up to 90 degrees."""
    system = tiny.with_transducer(directivity_max_angle=math.radians(
        degrees))
    beamformer = _beamformer(system, ApodizationSettings(
        directivity_rolloff=rolloff))
    n = system.volume.focal_point_count
    shallow = np.random.default_rng(3).uniform(
        [-0.02, -0.02, 0.0], [0.02, 0.02, 0.004], (400, 3))
    points = np.concatenate([beamformer.grid.range_points(0, n), shallow])
    _assert_bits_equal(beamformer.weights_for_points(points),
                       _reference(beamformer, points))
    _assert_leaf_rows_equal(beamformer, 0, n, np.float64)


def test_points_the_bounds_leave_to_the_exact_path(small):
    """Random points around the probe, with rows below and on the probe
    plane, on an element, and with tiny, huge and non-finite coordinates
    mixed in.  The special rows run the exact arithmetic (an infinite x is
    classed past the maximum); every row matches the reference."""
    beamformer = _beamformer(small)
    positions = beamformer.transducer.positions
    rng = np.random.default_rng(11)
    points = rng.normal(0.0, 0.01, (60, 3))
    points[:10, 2] = 0.0
    points[10:20, 2] *= -1
    points[20] = positions[5]
    points[21] = positions[200]
    points[22] = [np.nan, 0.0, 0.01]
    points[23] = [0.0, 0.0, np.nan]
    points[24] = np.nan
    points[25] = [np.inf, 0.0, 0.01]
    points[26] = [0.0, 0.0, np.inf]
    points[27] = [0.001, 0.0, 1e-160]
    points[28] = [1e-170, 1e-170, 1e-160]
    points[29] = [1e200, 0.0, 1e200]
    points[30] = [0.0, 0.0, -0.0]
    points[31] = positions[17] + [0.0, 0.0, 5e-324]
    with np.errstate(all="ignore"):
        got = beamformer.weights_for_points(points)
    _assert_bits_equal(got, _reference(beamformer, points))
