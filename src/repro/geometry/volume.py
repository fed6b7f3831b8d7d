"""Imaging volume: the focal-point grid the beamformer reconstructs.

The volume is a regular grid in steered-spherical coordinates: ``n_theta``
azimuth angles x ``n_phi`` elevation angles x ``n_depth`` radial distances,
matching the 128 x 128 x 1000 grid of the paper system.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig, VolumeConfig
from .coordinates import cartesian_to_spherical, spherical_to_cartesian


@dataclass(frozen=True)
class FocalGrid:
    """The grid of focal points of the imaging volume.

    Attributes
    ----------
    thetas:
        Azimuth steering angles [rad], shape ``(n_theta,)``.
    phis:
        Elevation steering angles [rad], shape ``(n_phi,)``.
    depths:
        Radial distances from the sound origin [m], shape ``(n_depth,)``.
    """

    config: VolumeConfig
    thetas: np.ndarray
    phis: np.ndarray
    depths: np.ndarray

    @classmethod
    def from_config(cls, config: VolumeConfig | SystemConfig) -> "FocalGrid":
        """Build the focal grid described by a volume or system config."""
        if isinstance(config, SystemConfig):
            config = config.volume
        thetas = np.linspace(-config.theta_max, config.theta_max, config.n_theta)
        phis = np.linspace(-config.phi_max, config.phi_max, config.n_phi)
        depths = np.linspace(config.depth_min, config.depth_max, config.n_depth)
        return cls(config=config, thetas=thetas, phis=phis, depths=depths)

    @property
    def shape(self) -> tuple[int, int, int]:
        """Grid shape ``(n_theta, n_phi, n_depth)``."""
        return (len(self.thetas), len(self.phis), len(self.depths))

    @property
    def point_count(self) -> int:
        """Total number of focal points."""
        n_theta, n_phi, n_depth = self.shape
        return n_theta * n_phi * n_depth

    def scanline_directions(self) -> tuple[np.ndarray, np.ndarray]:
        """Meshgrid of all ``(theta, phi)`` scanline angles, shape ``(n_theta, n_phi)``."""
        return np.meshgrid(self.thetas, self.phis, indexing="ij")

    def point(self, i_theta: int, i_phi: int, i_depth: int) -> np.ndarray:
        """Cartesian coordinates of focal point ``(i_theta, i_phi, i_depth)`` [m]."""
        return spherical_to_cartesian(self.thetas[i_theta],
                                      self.phis[i_phi],
                                      self.depths[i_depth])

    def scanline_points(self, i_theta: int, i_phi: int) -> np.ndarray:
        """All focal points of one scanline, shape ``(n_depth, 3)`` [m]."""
        return spherical_to_cartesian(self.thetas[i_theta],
                                      self.phis[i_phi],
                                      self.depths)

    def range_points(self, start: int, stop: int) -> np.ndarray:
        """Focal points ``[start, stop)`` of the scanline-major flat point
        axis (``(i_theta, i_phi, i_depth)`` order), shape ``(stop - start, 3)``.

        The conversion is elementwise, so each row is bit-identical to the
        matching row of :meth:`scanline_points`; a range may start and end
        anywhere inside a scanline.  It is Eq. 5 as
        :func:`spherical_to_cartesian` evaluates it, ``(r * cos(phi)) *
        sin(theta)`` and so on, but with each sine and cosine taken once
        per grid angle and gathered per point: the same values, without
        five transcendental calls per point.
        """
        _n_theta, n_phi, n_depth = self.shape
        line, i_depth = np.divmod(np.arange(start, stop), n_depth)
        i_theta, i_phi = np.divmod(line, n_phi)
        r = self.depths[i_depth]
        r_cos_phi = r * np.cos(self.phis)[i_phi]
        points = np.empty((stop - start, 3))
        np.multiply(r_cos_phi, np.sin(self.thetas)[i_theta], out=points[:, 0])
        np.multiply(r, np.sin(self.phis)[i_phi], out=points[:, 1])
        np.multiply(r_cos_phi, np.cos(self.thetas)[i_theta], out=points[:, 2])
        return points

    def nappe_points(self, i_depth: int) -> np.ndarray:
        """All focal points of one nappe (constant depth), shape ``(n_theta, n_phi, 3)``.

        A nappe is a surface at constant distance from the origin
        (Section II-A / Fig. 1); the nappe-by-nappe beamformer reconstructs
        one such surface at a time.
        """
        tt, pp = self.scanline_directions()
        return spherical_to_cartesian(tt, pp, self.depths[i_depth])

    def nearest_indices(self, points: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Indices ``(i_theta, i_phi, i_depth)`` of the grid node nearest to
        each Cartesian point of ``points`` (``(n, 3)`` [m]), axis by axis.

        A value halfway between two grid values takes the lower index, and
        a value beyond either end of an axis clips to that end.
        """
        theta, phi, r = cartesian_to_spherical(
            np.atleast_2d(np.asarray(points, dtype=np.float64)))
        return (_nearest_index(self.thetas, theta),
                _nearest_index(self.phis, phi),
                _nearest_index(self.depths, r))

    def all_points(self) -> np.ndarray:
        """All focal points, shape ``(n_theta, n_phi, n_depth, 3)`` [m].

        For the full paper system this is ~16.4 M points (~400 MB as float64);
        use :meth:`nappe_points` / :meth:`scanline_points` for streaming
        access instead when memory matters.
        """
        tt, pp, dd = np.meshgrid(self.thetas, self.phis, self.depths,
                                 indexing="ij")
        return spherical_to_cartesian(tt, pp, dd)

    def subsample(self, every_theta: int = 1, every_phi: int = 1,
                  every_depth: int = 1) -> "FocalGrid":
        """Return a decimated copy of the grid (used by accuracy sweeps).

        The accuracy experiments of Section VI-A explore the volume on a
        coarser grid than the full 16.4 M points; this helper keeps the
        angular and radial extents but skips points.
        """
        thetas = self.thetas[::every_theta]
        phis = self.phis[::every_phi]
        depths = self.depths[::every_depth]
        new_config = VolumeConfig(
            n_theta=len(thetas),
            n_phi=len(phis),
            n_depth=len(depths),
            theta_max=self.config.theta_max,
            phi_max=self.config.phi_max,
            depth_min=float(depths[0]),
            depth_max=float(depths[-1]),
        )
        return FocalGrid(config=new_config, thetas=thetas, phis=phis,
                         depths=depths)


def _nearest_index(grid_values: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Index of the nearest of the sorted ``grid_values`` for each of
    ``values`` (ties to the lower index, clipped to the ends)."""
    idx = np.searchsorted(grid_values, values)
    idx = np.clip(idx, 1, len(grid_values) - 1)
    left = grid_values[idx - 1]
    right = grid_values[idx]
    choose_left = np.abs(values - left) <= np.abs(right - values)
    return np.where(choose_left, idx - 1, idx).astype(np.int64)
