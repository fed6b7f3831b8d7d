"""Delay accuracy analysis (Section VI-A of the paper).

The figure of merit is the *selection error*: the difference, in sample
units, between the echo-buffer index an approximate delay generator selects
and the index an exact double-precision computation selects.  This module
computes selection-error statistics for any delay provider against the exact
engine, over deterministic sweeps of the imaging volume, optionally masking
out points/elements that apodization and directivity would suppress anyway
(which is how the paper argues the worst TABLESTEER errors are harmless).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from ..core.exact import ExactDelayEngine
from ..geometry.apodization import directivity_weights
from ..geometry.coordinates import off_axis_angle
from ..geometry.volume import FocalGrid


@dataclass(frozen=True)
class ErrorStats:
    """Summary statistics of a (selection or delay) error population."""

    count: int
    mean_abs: float
    max_abs: float
    rms: float
    p95_abs: float
    p99_abs: float
    fraction_nonzero: float
    fraction_above_one: float

    @classmethod
    def from_errors(cls, errors: np.ndarray) -> "ErrorStats":
        """Compute statistics from an array of signed errors."""
        errors = np.asarray(errors, dtype=np.float64).ravel()
        if errors.size == 0:
            raise ValueError("error population is empty")
        abs_errors = np.abs(errors)
        return cls(
            count=int(errors.size),
            mean_abs=float(np.mean(abs_errors)),
            max_abs=float(np.max(abs_errors)),
            rms=float(np.sqrt(np.mean(errors ** 2))),
            p95_abs=float(np.percentile(abs_errors, 95)),
            p99_abs=float(np.percentile(abs_errors, 99)),
            fraction_nonzero=float(np.mean(abs_errors > 0)),
            fraction_above_one=float(np.mean(abs_errors > 1.0)),
        )

    def as_dict(self) -> dict[str, float]:
        """Statistics as a plain dictionary."""
        return {
            "count": float(self.count),
            "mean_abs": self.mean_abs,
            "max_abs": self.max_abs,
            "rms": self.rms,
            "p95_abs": self.p95_abs,
            "p99_abs": self.p99_abs,
            "fraction_nonzero": self.fraction_nonzero,
            "fraction_above_one": self.fraction_above_one,
        }


def sample_volume_points(system: SystemConfig,
                         max_points: int = 4000,
                         seed: int = 7,
                         include_extremes: bool = True) -> np.ndarray:
    """A deterministic sample of focal points spanning the imaging volume.

    The sample always includes the grid corners and edge mid-points when
    ``include_extremes`` is set (the regions where the TABLESTEER error
    peaks), plus a seeded random selection of interior grid points.
    Returns Cartesian points of shape ``(n, 3)``.
    """
    grid = FocalGrid.from_config(system)
    n_theta, n_phi, n_depth = grid.shape
    rng = np.random.default_rng(seed)
    n_random = max(0, max_points)
    i_theta = rng.integers(0, n_theta, n_random)
    i_phi = rng.integers(0, n_phi, n_random)
    i_depth = rng.integers(0, n_depth, n_random)
    if include_extremes:
        extreme_theta = np.array([0, n_theta // 2, n_theta - 1])
        extreme_phi = np.array([0, n_phi // 2, n_phi - 1])
        extreme_depth = np.array([0, n_depth // 2, n_depth - 1])
        tt, pp, dd = np.meshgrid(extreme_theta, extreme_phi, extreme_depth,
                                 indexing="ij")
        i_theta = np.concatenate([i_theta, tt.ravel()])
        i_phi = np.concatenate([i_phi, pp.ravel()])
        i_depth = np.concatenate([i_depth, dd.ravel()])
    points = np.stack([
        grid.thetas[i_theta],
        grid.phis[i_phi],
        grid.depths[i_depth],
    ], axis=-1)
    from ..geometry.coordinates import spherical_to_cartesian
    return spherical_to_cartesian(points[:, 0], points[:, 1], points[:, 2])


def selection_errors(provider, exact: ExactDelayEngine,
                     points: np.ndarray) -> np.ndarray:
    """Integer selection-error matrix ``provider_index - exact_index``.

    Shape ``(n_points, n_elements)``.
    """
    approx = provider.delay_indices(points)
    truth = exact.delay_indices(points)
    return (approx - truth).astype(np.float64)


def delay_errors_samples(provider, exact: ExactDelayEngine,
                         points: np.ndarray) -> np.ndarray:
    """Continuous delay error (before index rounding), in sample units."""
    return provider.delays_samples(points) - exact.delays_samples(points)


def directivity_mask(exact: ExactDelayEngine, points: np.ndarray,
                     rolloff: float = 0.0) -> np.ndarray:
    """Mask of (point, element) pairs inside the elements' directivity cone.

    Entries outside the cone receive (near-)zero apodization weight in the
    beamformer; excluding them mirrors the paper's argument that the largest
    TABLESTEER errors "are in practice filtered away by apodization".
    """
    angles = off_axis_angle(np.atleast_2d(points), exact.transducer.positions)
    weights = directivity_weights(
        angles, exact.transducer.config.directivity_max_angle, rolloff)
    return weights > 0


@dataclass(frozen=True)
class AccuracyReport:
    """Selection-error statistics for one delay generator."""

    architecture: str
    all_points: ErrorStats
    within_directivity: ErrorStats
    delay_error_seconds_max: float
    delay_error_seconds_mean: float

    def as_dict(self) -> dict[str, object]:
        """Report as nested dictionaries."""
        return {
            "architecture": self.architecture,
            "all_points": self.all_points.as_dict(),
            "within_directivity": self.within_directivity.as_dict(),
            "delay_error_seconds_max": self.delay_error_seconds_max,
            "delay_error_seconds_mean": self.delay_error_seconds_mean,
        }


def evaluate_provider(provider, system: SystemConfig, architecture: str,
                      points: np.ndarray | None = None,
                      max_points: int = 2000,
                      seed: int = 7) -> AccuracyReport:
    """Full accuracy evaluation of a delay provider against the exact engine."""
    exact = ExactDelayEngine.from_config(system)
    if points is None:
        points = sample_volume_points(system, max_points=max_points, seed=seed)
    sel = selection_errors(provider, exact, points)
    continuous = delay_errors_samples(provider, exact, points)
    seconds = continuous / system.acoustic.sampling_frequency
    mask = directivity_mask(exact, points)
    masked = sel[mask] if np.any(mask) else sel
    return AccuracyReport(
        architecture=architecture,
        all_points=ErrorStats.from_errors(sel),
        within_directivity=ErrorStats.from_errors(masked),
        delay_error_seconds_max=float(np.max(np.abs(seconds))),
        delay_error_seconds_mean=float(np.mean(np.abs(seconds))),
    )


def error_map_by_region(provider, system: SystemConfig,
                        n_theta_bins: int = 8, n_depth_bins: int = 8,
                        elements_stride: int = 7,
                        seed: int = 11) -> dict[str, np.ndarray]:
    """Mean absolute selection error binned by steering angle and depth.

    Reproduces the qualitative claim of Section VI-A that the TABLESTEER
    error concentrates at extreme angles and short distances: returns bin
    centres plus a ``(n_theta_bins, n_depth_bins)`` matrix of mean absolute
    errors (sample units) evaluated on a decimated element set.
    """
    grid = FocalGrid.from_config(system)
    exact = ExactDelayEngine.from_config(system)
    theta_bins = np.linspace(-system.volume.theta_max, system.volume.theta_max,
                             n_theta_bins)
    depth_bins = np.linspace(system.volume.depth_min, system.volume.depth_max,
                             n_depth_bins)
    element_subset = np.arange(0, exact.transducer.element_count, elements_stride)
    error_matrix = np.zeros((n_theta_bins, n_depth_bins))
    from ..geometry.coordinates import spherical_to_cartesian
    for i, theta in enumerate(theta_bins):
        for j, depth in enumerate(depth_bins):
            point = spherical_to_cartesian(theta, 0.0, depth).reshape(1, 3)
            approx = provider.delay_indices(point)[:, element_subset]
            truth = exact.delay_indices(point)[:, element_subset]
            error_matrix[i, j] = float(np.mean(np.abs(approx - truth)))
    return {
        "theta_bins": theta_bins,
        "depth_bins": depth_bins,
        "mean_abs_error": error_matrix,
    }
