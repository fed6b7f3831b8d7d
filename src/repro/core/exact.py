"""Exact (double-precision) propagation-delay computation.

This is the reference implementation of Eq. (2)/(3) of the paper:

    tp(O, S, D) = (|S - O| + |S - D|) / c

It is the ground truth against which both hardware-friendly delay generators
(TABLEFREE and TABLESTEER) are compared in the accuracy experiments of
Section VI-A.  Delays can be returned in seconds or in units of the echo
sampling period (32 MHz for the paper system), optionally quantised to the
integer sample index used to address the echo buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from ..geometry.coordinates import pairwise_distances, spherical_to_cartesian
from ..geometry.transducer import MatrixTransducer
from ..geometry.volume import FocalGrid
from .provider import DelayProvider


def propagation_delay(origin: np.ndarray,
                      points: np.ndarray,
                      elements: np.ndarray,
                      speed_of_sound: float) -> np.ndarray:
    """Two-way propagation delay from ``origin`` to ``points`` to ``elements``.

    Parameters
    ----------
    origin:
        Sound (transmit) origin, shape ``(3,)`` [m].
    points:
        Focal points, shape ``(n_points, 3)`` [m].
    elements:
        Receive element positions, shape ``(n_elements, 3)`` [m].
    speed_of_sound:
        Speed of sound ``c`` [m/s].

    Returns
    -------
    numpy.ndarray
        Delays in seconds, shape ``(n_points, n_elements)``.
    """
    origin = np.asarray(origin, dtype=np.float64).reshape(3)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    elements = np.atleast_2d(np.asarray(elements, dtype=np.float64))
    if points.shape[-1] != 3 or elements.shape[-1] != 3:
        raise ValueError("points and elements must have a trailing dimension of 3")
    # Element-major with the points innermost (the longer, contiguous
    # loop), returned transposed: ``(e - p)**2`` is ``(p - e)**2`` bit for
    # bit, so only the memory order differs from point-major.
    delays = pairwise_distances(elements, points).T
    delays += pairwise_distances(points, origin[None, :])
    delays /= speed_of_sound
    return delays


def transmit_delay(origin: np.ndarray, points: np.ndarray,
                   speed_of_sound: float) -> np.ndarray:
    """One-way delay from the sound origin to each focal point [s]."""
    origin = np.asarray(origin, dtype=np.float64).reshape(1, 3)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return pairwise_distances(points, origin)[:, 0] / speed_of_sound


def receive_delay(points: np.ndarray, elements: np.ndarray,
                  speed_of_sound: float) -> np.ndarray:
    """One-way delay from each focal point back to each element [s]."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    elements = np.atleast_2d(np.asarray(elements, dtype=np.float64))
    return pairwise_distances(points, elements) / speed_of_sound


@dataclass(frozen=True)
class ExactDelayEngine(DelayProvider):
    """Reference delay generator bound to a system configuration.

    The engine fixes the transducer element positions, the focal grid and the
    sound origin, and exposes the delay computations in the units the rest of
    the library needs (seconds, fractional samples or integer sample
    indices).
    """

    config: SystemConfig
    transducer: MatrixTransducer
    grid: FocalGrid
    origin: np.ndarray

    @classmethod
    def from_config(cls, config: SystemConfig,
                    origin: np.ndarray | None = None) -> "ExactDelayEngine":
        """Build an engine for ``config`` with the origin at the probe centre."""
        transducer = MatrixTransducer.from_config(config)
        grid = FocalGrid.from_config(config)
        if origin is None:
            origin = np.zeros(3)
        return cls(config=config, transducer=transducer, grid=grid,
                   origin=np.asarray(origin, dtype=np.float64))

    def delays_seconds(self, points: np.ndarray,
                       elements: np.ndarray | None = None) -> np.ndarray:
        """Exact delays in seconds for arbitrary focal ``points`` ((n, 3)),
        at every element or at ``elements`` only."""
        positions = self.transducer.positions
        return propagation_delay(
            self.origin, points,
            positions if elements is None else positions[elements],
            self.config.acoustic.speed_of_sound)

    def delays_samples(self, points: np.ndarray,
                       elements: np.ndarray | None = None) -> np.ndarray:
        """Exact delays in fractional sample units (at ``fs``)."""
        return self.delays_seconds(points, elements) \
            * self.config.acoustic.sampling_frequency

    def tile_delays_samples(self, start: int, stop: int,
                            elements: np.ndarray | None = None
                            ) -> np.ndarray:
        """Delays of flat grid points ``[start, stop)``, one batched call
        (at ``elements`` only, when given).

        The distance arithmetic is elementwise, so the rows equal the
        matching :meth:`scanline_delays_samples` rows bit for bit, and the
        columns of ``elements`` the full rows' columns.
        """
        return self.delays_samples(self.grid.range_points(start, stop),
                                   elements)

    def max_delay_samples(self) -> float:
        """Upper bound on any delay in sample units (sizes the echo buffer).

        The farthest focal point sits at maximum depth and maximum steering;
        the receive leg is maximised by the aperture corner on the opposite
        side of the steering direction, so all four corners are checked.
        """
        x_max = float(np.max(np.abs(self.transducer.x))) if len(self.transducer.x) else 0.0
        y_max = float(np.max(np.abs(self.transducer.y))) if len(self.transducer.y) else 0.0
        corners = np.array([[sx * x_max, sy * y_max, 0.0]
                            for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)])
        theta = self.grid.thetas[-1]
        phi = self.grid.phis[-1]
        depth = self.grid.depths[-1]
        point = spherical_to_cartesian(theta, phi, depth).reshape(3)
        tx = np.linalg.norm(point - self.origin)
        rx = float(np.max(np.linalg.norm(corners - point[None, :], axis=1)))
        seconds = (tx + rx) / self.config.acoustic.speed_of_sound
        return float(seconds * self.config.acoustic.sampling_frequency)
