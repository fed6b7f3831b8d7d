"""Bulk (flat point range) delay generation shared by all delay providers.

Plan compilation (:mod:`repro.kernels.plan`) asks a provider for the delays
of a flat, scanline-major range of focal points — a tile, in blocks of a
bounded number of entries — through ``tile_delays_samples(start, stop)``,
never for the whole ``(n_points, n_elements)`` tensor at once.  The exact,
TABLEFREE, TABLESTEER and transmit-adjusted providers answer with one
vectorised evaluation over the range.  A leaf-ordered (CSR) compile asks
for a few elements at a time — one summation leaf's columns,
``tile_delays_samples(start, stop, elements)`` — and every provider
answers with exactly those columns of the full rows, bit for bit.  This
mixin supplies the default for everything else (the recursive generator,
third-party providers): the range assembled from the provider's own
``scanline_delays_samples`` rows, in the traversal order the reference
beamformer uses — so the bulk rows are numerically *identical* to what the
per-scanline path produces — and the columns sliced from it.  It is the
only scanline loop left on the compile path.  ``volume_delays_samples``
is the whole range folded back into the grid's shape.
"""

from __future__ import annotations

import numpy as np


class BulkDelayProviderMixin:
    """Default flat-range and whole-volume delay generation.

    Requires the host class to expose a ``grid`` attribute (a
    :class:`repro.geometry.volume.FocalGrid`) and the standard
    ``scanline_delays_samples(i_theta, i_phi)`` method.
    """

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
