"""Delay-and-sum receive beamformer core.

Implements Eq. (1) of the paper: for every focal point ``S`` the echo samples
of all elements, fetched at the per-element delay ``tp(O, S, D)``, are
weighted and summed.  The beamformer is agnostic to *how* the delays are
produced — any :class:`repro.core.provider.DelayProvider` works, and a
provider is only its ``grid`` and ``delays_samples``, the base deriving the
scanline, nappe, tile and volume accessors the drivers and plans read —
which is exactly the property the paper relies on when it argues that
image quality depends only on delay accuracy, not on the generation
architecture.  :class:`DelayProvider` is re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..acoustics.echo import ChannelData
from ..config import SystemConfig
from ..core.provider import DelayProvider
from ..geometry.apodization import WindowType, aperture_apodization, directivity_weights
from ..geometry.coordinates import axial_angle
from ..geometry.transducer import MatrixTransducer
from ..geometry.volume import FocalGrid
from ..kernels.ops import WeightSplit, delay_and_sum
from ..kernels.precision import Precision, resolve_precision
from ..kernels.quantized import QuantizationSpec
from .interpolation import InterpolationKind


@dataclass(frozen=True)
class ApodizationSettings:
    """Receive apodization configuration."""

    window: WindowType = WindowType.HANN
    use_directivity: bool = True
    directivity_rolloff: float = 0.1


_BOUND_MARGIN = 1e-9
"""Relative margin of :meth:`DelayAndSumBeamformer._directivity_bounds`."""

_BOUND_MIN_COS = 2.0 ** -10
"""The smallest cosine a directivity bound is taken at."""

_EXACT_CHUNK = 1 << 14
"""Entries per step of the exact arithmetic in
:meth:`DelayAndSumBeamformer.split_weights`."""


class DelayAndSumBeamformer:
    """Weighted delay-and-sum beamformer over a focal grid.

    Parameters
    ----------
    system:
        System configuration (defines the focal grid and sampling rate).
    delays:
        Delay provider used to address the echo buffers.
    apodization:
        Receive apodization settings; directivity weighting suppresses the
        contribution of elements that physically cannot see the focal point,
        which is also what masks the worst TABLESTEER errors in the paper.
    interpolation:
        Echo-sample interpolation strategy.  ``NEAREST`` (default) models the
        integer-index hardware addressing of the paper; ``LINEAR`` performs
        fractional-delay interpolation and is used by the ablation study.
    precision:
        Execution dtype policy of the gather/weight/accumulate arithmetic
        (see :class:`repro.kernels.Precision`).  ``float64`` (default)
        reproduces the historical behaviour exactly; ``float32`` trades a
        documented tolerance for memory bandwidth.  Delay *generation* is
        always ``float64`` either way.
    quantization:
        Optional :class:`repro.kernels.QuantizationSpec` switching the
        beamformer (and every plan compiled from it) to the bit-true
        fixed-point datapath of the paper's hardware: delays, samples,
        weights and the accumulating sum are each quantised to their
        Q-format.  Requires ``float64`` precision (the fixed-point codes
        are carried exactly in doubles) and ``NEAREST`` interpolation (the
        hardware's integer echo addressing).
    """

    def __init__(self, system: SystemConfig, delays: DelayProvider,
                 apodization: ApodizationSettings | None = None,
                 interpolation: InterpolationKind = InterpolationKind.NEAREST,
                 transducer: MatrixTransducer | None = None,
                 grid: FocalGrid | None = None,
                 precision: Precision | str | None = None,
                 quantization: "QuantizationSpec | str | int | None" = None
                 ) -> None:
        self.system = system
        self.delays = delays
        self.apodization = apodization or ApodizationSettings()
        self.interpolation = interpolation
        self.precision = resolve_precision(precision)
        self.quantization = QuantizationSpec.coerce(quantization)
        if self.quantization is not None:
            self.quantization.validate_for(self.precision, interpolation,
                                           system.echo_buffer_samples)
        self.transducer = transducer or MatrixTransducer.from_config(system)
        self.grid = grid or FocalGrid.from_config(system)
        self.aperture_weights = aperture_apodization(
            self.transducer, self.apodization.window).ravel()
        self.aperture_weights.flags.writeable = False
        # The focal grid is static for the lifetime of the beamformer, so the
        # per-scanline receive weights of the classic loop are computed once
        # and reused across every frame (they used to be rebuilt for every
        # scanline of every volume, dominating the reference path's run
        # time).  Compiled plans do not use this memo.
        self._scanline_weights: dict[tuple[int, int], np.ndarray] = {}
        # The shared receive-weight tensors this beamformer's plans were
        # compiled with (repro.kernels.plan.receive_weights, by memo key):
        # holding them keeps that weak memo's entries alive, so an evicted
        # plan segment recompiles without recomputing its weights.
        self._plan_weights: dict[tuple, np.ndarray] = {}

    # ------------------------------------------------------------- weights
    def weights_for_scanline(self, i_theta: int, i_phi: int) -> np.ndarray:
        """Receive weights for one grid scanline, cached per ``(i_theta, i_phi)``."""
        key = (i_theta, i_phi)
        weights = self._scanline_weights.get(key)
        if weights is None:
            weights = self.weights_for_points(
                self.grid.scanline_points(i_theta, i_phi))
            self._scanline_weights[key] = weights
        return weights

    def weights_for_points(self, points: np.ndarray) -> np.ndarray:
        """Receive weights ``w(S)`` for each (point, element) pair."""
        split = self.split_weights(points)
        weights = np.empty(split.inside.shape[::-1])
        np.copyto(weights, self.aperture_weights)
        # Directivity 0 times the aperture, as the reference has it (-0.0
        # under a -0.0 aperture weight).
        np.copyto(weights, 0.0 * self.aperture_weights,
                  where=~split.inside.T)
        weights[split.points, split.elements] = split.weights
        return weights

    def split_weights(self, points: np.ndarray) -> WeightSplit:
        """The receive weights of ``points``, split by how each is known
        (:class:`~repro.kernels.ops.WeightSplit`): the one weights path,
        which :meth:`weights_for_points` and the plans' leaf rows
        (:func:`repro.kernels.plan.leaf_rows`) assemble.

        A weight is the directivity of the pair's off-axis angle times the
        aperture weight ``a``, bit for bit the reference formula of
        :mod:`repro.geometry.coordinates` and
        :func:`~repro.geometry.apodization.directivity_weights` — but
        arccos runs only where it can change a bit.  The directivity is 1
        up to the knee and 0 past the maximum angle, so each entry is first
        classed by two per-point bounds on its squared in-plane distance
        (:meth:`_directivity_bounds`), against the transducer's separable
        per-axis squares ``sx``, ``sy``
        (:meth:`~repro.geometry.transducer.MatrixTransducer.axis_squared_distances`):
        ``sy[iy] < lower - sx[ix]`` is provably inside the knee (weight
        ``1.0 * a``: the ``inside`` mask), ``sy[iy] > upper - sx[ix]``
        provably past the maximum (weight ``0.0 * a``).  Every other entry
        — the taper band, and every entry of a point the bounds do not
        cover — is computed with the reference's own arithmetic on that
        entry alone: ``(sx[ix] + sy[iy]) + dz**2``, the operands and order
        of :func:`~repro.geometry.coordinates.squared_distances`, then
        :func:`~repro.geometry.coordinates.axial_angle`,
        :func:`~repro.geometry.apodization.directivity_weights` and the
        product with ``a``.  Every pass over all pairs is element-major
        along points: two comparisons and a scan for the remainder.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        n_points = points.shape[0]
        n_elements = self.transducer.element_count
        if not self.apodization.use_directivity:
            none = np.empty(0, dtype=np.intp)
            return WeightSplit(np.ones((n_elements, n_points), dtype=bool),
                               none, none, np.empty(0))
        squares_x, squares_y = self.transducer.axis_squared_distances(points)
        # The elements lie in z = 0, so a point's z is its z difference.
        dz = points[:, 2]
        dz2 = np.square(dz)
        lower, upper = self._directivity_bounds(dz, dz2)
        # Element-major (ex, ey, n_points): every pass runs along points.
        inside = squares_y[None] < (lower - squares_x)[:, None]
        # Any directivity times a zero aperture weight is that zero.
        inside |= (self.aperture_weights == 0).reshape(
            self.transducer.shape)[:, :, None]
        rest = squares_y[None] > (upper - squares_x)[:, None]
        # Neither inside nor past the maximum: the exact arithmetic.
        rest |= inside
        elements, point = np.divmod(
            np.flatnonzero(np.logical_not(rest, out=rest)), n_points)
        weights = np.empty(elements.size)
        # In chunks, so a point set the bounds leave open (rolloff 1, say)
        # holds a few arrays per exact entry of one chunk, not of the
        # block; an empty remainder is still one (validating) call.
        for lo in range(0, max(elements.size, 1), _EXACT_CHUNK):
            e, p = elements[lo:lo + _EXACT_CHUNK], point[lo:lo + _EXACT_CHUNK]
            ix, iy = np.divmod(e, self.transducer.config.elements_y)
            angles = axial_angle(dz[p], (squares_x[ix, p] + squares_y[iy, p])
                                 + dz2[p])
            chunk = directivity_weights(
                angles, self.transducer.config.directivity_max_angle,
                self.apodization.directivity_rolloff)
            np.multiply(chunk, self.aperture_weights[e],
                        out=weights[lo:lo + _EXACT_CHUNK])
        return WeightSplit(inside.reshape(n_elements, n_points), elements,
                           point, weights)

    def _directivity_bounds(self, dz: np.ndarray, dz2: np.ndarray
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Per-point bounds ``(lower, upper)`` on the squared in-plane
        distance ``h`` of an element: below ``lower`` it provably lies
        inside the knee, above ``upper`` provably past the maximum angle;
        a NaN bound classes nothing.

        For ``dz > 0`` an angle is below ``t`` iff ``h + dz**2 < dz**2 /
        cos(t)**2``, so the bounds are ``dz**2 * ((1 -/+ 1e-9) / cos(t)**2
        - 1)`` at the knee and at the maximum.  The 1e-9 relative margin
        (:data:`_BOUND_MARGIN`) is ~10^6 times the few ulps by which
        rounding can move the classing test, ``h + dz**2``, the square
        root, the divide, arccos and the bounds themselves — so a classed
        entry's exact directivity is 1 or 0, whatever the rounding.  A
        bound is NaN (its entries all run the exact arithmetic) where that
        argument does not hold: at an angle whose cosine is below
        :data:`_BOUND_MIN_COS` (within ~0.06 degrees of 90, or past it: the
        margin in angle shrinks with the cosine), and for a point whose
        ``dz`` is not in ``(2**-450, 2**450)`` — not above the probe, not
        finite, or with ``dz**2`` outside the normal range.
        """
        max_angle = self.transducer.config.directivity_max_angle
        knee = max_angle * (1.0 - self.apodization.directivity_rolloff)
        scales = [(1.0 + margin) / math.cos(angle) ** 2 - 1.0
                  if math.isfinite(angle)
                  and math.cos(angle) >= _BOUND_MIN_COS else math.nan
                  for angle, margin in ((knee, -_BOUND_MARGIN),
                                        (max_angle, _BOUND_MARGIN))]
        dz2 = np.where((dz > 2.0 ** -450) & (dz < 2.0 ** 450), dz2, np.nan)
        return dz2 * scales[0], dz2 * scales[1]

    # ---------------------------------------------------------------- core
    def beamform_points(self, channel_data: ChannelData,
                        points: np.ndarray) -> np.ndarray:
        """Beamformed (RF) samples for arbitrary focal points, shape ``(n_points,)``."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        delays = self.delays.delays_samples(points)
        return self._sum_with_delays(channel_data, delays,
                                     self.weights_for_points(points))

    def beamform_scanline(self, channel_data: ChannelData,
                          i_theta: int, i_phi: int) -> np.ndarray:
        """Beamformed samples along one grid scanline, shape ``(n_depth,)``."""
        delays = self.delays.scanline_delays_samples(i_theta, i_phi)
        return self._sum_with_delays(channel_data, delays,
                                     self.weights_for_scanline(i_theta, i_phi))

    def beamform_nappe(self, channel_data: ChannelData,
                       i_depth: int) -> np.ndarray:
        """Beamformed samples of one nappe, shape ``(n_theta, n_phi)``."""
        delays = self.delays.nappe_delays_samples(i_depth)
        n_theta, n_phi, n_elements = delays.shape
        points = self.grid.nappe_points(i_depth).reshape(-1, 3)
        flat = self._sum_with_delays(channel_data,
                                     delays.reshape(-1, n_elements),
                                     self.weights_for_points(points))
        return flat.reshape(n_theta, n_phi)

    def _sum_with_delays(self, channel_data: ChannelData,
                         delays_samples: np.ndarray,
                         weights: np.ndarray) -> np.ndarray:
        return delay_and_sum(channel_data.samples, delays_samples, weights,
                             kind=self.interpolation,
                             dtype=self.precision.dtype,
                             quantization=self.quantization)
