"""The delay-provider contract: a provider is its ``delays_samples``.

The delay-and-sum beamformer (Eq. 1) does not care how its delays are
produced: the architectures differ only in the delay function, and the
scanline and nappe loops of Algorithm 1 read the same delays in two
orders.  A provider therefore supplies a focal ``grid`` and
``delays_samples(points)``, and :class:`DelayProvider` derives every grid
accessor from them.  All accessors address the same scanline-major flat
point order, ``(i_theta, i_phi, i_depth)``.

Plan compilation (:mod:`repro.kernels.plan`) asks a provider for the delays
of a flat range of focal points — a tile, in blocks of a bounded number of
entries — through ``tile_delays_samples(start, stop)``, never for the whole
``(n_points, n_elements)`` tensor at once.  A leaf-ordered (CSR) compile
asks for a few elements at a time — one summation leaf's columns,
``tile_delays_samples(start, stop, elements)`` — and every provider answers
with exactly those columns of the full rows, bit for bit.  The derived
range is cut from the provider's ``scanline_delays_samples`` rows, in the
traversal order the reference beamformer uses, so the bulk rows are
*identical* to what the per-scanline path produces.  The exact, TABLEFREE,
TABLESTEER and transmit-adjusted providers override it with one vectorised
evaluation over the range, with the same bits.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class DelayProvider(ABC):
    """Per-element delays, in fractional samples, for the focal points of
    a grid.

    A subclass exposes a ``grid`` attribute (a
    :class:`repro.geometry.volume.FocalGrid`) and implements
    :meth:`delays_samples`; every other accessor is derived from the two.
    Override one only where it is the generator itself (a recurrence along
    the scanline, say) or where one vectorised call runs faster with the
    same bits.
    """

    @abstractmethod
    def delays_samples(self, points: np.ndarray) -> np.ndarray:
        """Delays of Cartesian ``points`` (``(n_points, 3)`` [m]) in
        fractional sample units, shape ``(n_points, n_elements)``."""

    def delay_indices(self, points: np.ndarray) -> np.ndarray:
        """Delays quantised to integer echo-buffer indices.

        Rounding is ``floor(x + 0.5)``: halves round up, the nearest
        rounding of every plan's gather index.  Delays are non-negative, and
        there it agrees with the half-away-from-zero rounding stage
        modelled by :mod:`repro.fixedpoint`.
        """
        return np.floor(self.delays_samples(points) + 0.5).astype(np.int64)

    def scanline_delays_samples(self, i_theta: int, i_phi: int) -> np.ndarray:
        """Delays for one grid scanline, shape ``(n_depth, n_elements)``."""
        return self.delays_samples(self.grid.scanline_points(i_theta, i_phi))

    def nappe_delays_samples(self, i_depth: int) -> np.ndarray:
        """Delays for one grid nappe, shape ``(n_theta, n_phi, n_elements)``."""
        points = self.grid.nappe_points(i_depth)
        delays = self.delays_samples(points.reshape(-1, 3))
        return delays.reshape(*points.shape[:-1], -1)

    def tile_delays_samples(self, start: int, stop: int,
                            elements: np.ndarray | None = None
                            ) -> np.ndarray:
        """Delays of flat grid points ``[start, stop)`` (``start < stop``)
        in fractional samples, shape ``(stop - start, n_elements)`` — or,
        given ``elements`` (element numbers), only those columns, in that
        order: ``(stop - start, len(elements))``, bit-equal to
        ``tile_delays_samples(start, stop)[:, elements]``.

        The range may start and end anywhere inside a scanline; it is cut
        from the ``scanline_delays_samples`` rows of every scanline it
        touches, so it matches the per-scanline API bit for bit.  The
        columns are sliced from those rows.
        """
        _n_theta, n_phi, n_depth = self.grid.shape
        rows, point = [], start
        while point < stop:
            line, depth = divmod(point, n_depth)
            take = min(n_depth - depth, stop - point)
            scanline = self.scanline_delays_samples(*divmod(line, n_phi))
            rows.append(np.asarray(scanline, dtype=np.float64)
                        [depth:depth + take])
            point += take
        delays = np.concatenate(rows)
        return delays if elements is None else delays[:, elements]

    def volume_delays_samples(self) -> np.ndarray:
        """Delays for every focal point of the grid, in fractional samples.

        Returns an array of shape ``(n_theta, n_phi, n_depth, n_elements)``:
        the whole flat range of :meth:`tile_delays_samples`.
        """
        return self.tile_delays_samples(0, self.grid.point_count) \
            .reshape(*self.grid.shape, -1)
