"""Matrix transducer geometry.

The probe is a planar matrix of ``ex x ey`` elements lying in the ``z = 0``
plane with a regular pitch (lambda/2 for the paper system).  Element positions
are used both by the exact delay computation and by the echo synthesiser.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig, TransducerConfig


@dataclass(frozen=True)
class MatrixTransducer:
    """A planar matrix transducer centred on the origin.

    Attributes
    ----------
    x:
        Element x coordinates, shape ``(ex,)`` [m].
    y:
        Element y coordinates, shape ``(ey,)`` [m].
    positions:
        Full element position array, shape ``(ex * ey, 3)`` [m], ordered
        row-major: element ``ix * ey + iy`` is ``(x[ix], y[iy], 0)``.
    """

    config: TransducerConfig
    x: np.ndarray
    y: np.ndarray
    positions: np.ndarray

    @classmethod
    def from_config(cls, config: TransducerConfig | SystemConfig) -> "MatrixTransducer":
        """Build the element grid from a transducer or full system config."""
        if isinstance(config, SystemConfig):
            config = config.transducer
        x = _centered_grid(config.elements_x, config.pitch)
        y = _centered_grid(config.elements_y, config.pitch)
        xx, yy = np.meshgrid(x, y, indexing="ij")
        positions = np.stack(
            [xx.ravel(), yy.ravel(), np.zeros(xx.size)], axis=-1)
        return cls(config=config, x=x, y=y, positions=positions)

    @property
    def element_count(self) -> int:
        """Total number of elements."""
        return self.positions.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        """Grid shape ``(ex, ey)``."""
        return (self.config.elements_x, self.config.elements_y)

    def element_index(self, ix: int, iy: int) -> int:
        """Flat element index for grid coordinates ``(ix, iy)``."""
        if not (0 <= ix < self.config.elements_x):
            raise IndexError(f"ix={ix} out of range")
        if not (0 <= iy < self.config.elements_y):
            raise IndexError(f"iy={iy} out of range")
        return ix * self.config.elements_y + iy

    def element_position(self, ix: int, iy: int) -> np.ndarray:
        """Position of element ``(ix, iy)`` as a length-3 vector [m]."""
        return self.positions[self.element_index(ix, iy)]

    def axis_squared_distances(self, points: np.ndarray
                               ) -> tuple[np.ndarray, np.ndarray]:
        """Squared x and y offsets of ``points`` from the element columns
        and rows, shapes ``(ex, n_points)`` and ``(ey, n_points)``.

        The probe is separable: element ``e = ix * ey + iy`` sits at
        ``(x[ix], y[iy], 0)``, so ``sx[ix] + sy[iy]`` is its squared
        in-plane distance — the same operands added in the same order as
        :func:`~repro.geometry.coordinates.squared_distances` over the
        positions' first two columns, so the same bits, from ``ex + ey``
        differences per point instead of ``2 * ex * ey``.
        """
        p = np.asarray(points, dtype=np.float64)
        sx = p[None, :, 0] - self.x[:, None]
        sy = p[None, :, 1] - self.y[:, None]
        sx *= sx
        sy *= sy
        return sx, sy

    def grid_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """Return meshgrid arrays ``(X, Y)`` of shape ``(ex, ey)`` [m]."""
        return np.meshgrid(self.x, self.y, indexing="ij")

    def center(self) -> np.ndarray:
        """Geometric centre of the aperture (the coordinate origin)."""
        return np.array([np.mean(self.x), np.mean(self.y), 0.0])

    def quadrant_mask(self) -> np.ndarray:
        """Boolean mask of elements in the non-negative (x, y) quadrant.

        TABLESTEER's reference table only needs one quadrant of elements when
        the sound origin is vertically aligned with the transducer centre
        (Section V-A); the other three quadrants follow by symmetry.
        """
        xx, yy = self.grid_positions()
        tol = 1e-12
        return ((xx >= -tol) & (yy >= -tol)).ravel()


def _centered_grid(n: int, pitch: float) -> np.ndarray:
    """Coordinates of ``n`` points with the given pitch, centred on zero."""
    if n < 1:
        raise ValueError("need at least one element")
    return (np.arange(n) - (n - 1) / 2.0) * pitch
