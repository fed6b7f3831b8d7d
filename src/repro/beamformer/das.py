"""Delay-and-sum receive beamformer core.

Implements Eq. (1) of the paper: for every focal point ``S`` the echo samples
of all elements, fetched at the per-element delay ``tp(O, S, D)``, are
weighted and summed.  The beamformer is agnostic to *how* the delays are
produced — any object following :class:`DelayProvider` works — which is
exactly the property the paper relies on when it argues that image quality
depends only on delay accuracy, not on the generation architecture.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..acoustics.echo import ChannelData
from ..config import SystemConfig
from ..geometry.apodization import WindowType, aperture_apodization, directivity_weights
from ..geometry.coordinates import off_axis_angle
from ..geometry.transducer import MatrixTransducer
from ..geometry.volume import FocalGrid
from ..kernels.ops import delay_and_sum
from ..kernels.precision import Precision, resolve_precision
from ..kernels.quantized import QuantizationSpec
from .interpolation import InterpolationKind


@runtime_checkable
class DelayProvider(Protocol):
    """Anything that can produce per-element delays for focal points.

    Every delay provider of :mod:`repro.core` (exact, TABLEFREE,
    TABLESTEER, recursive) and the scheme layer's transmit-adjusted
    wrapper satisfy this protocol.  The grid accessors all address the
    same scanline-major flat point order, ``(i_theta, i_phi, i_depth)``:
    the per-scanline and per-nappe methods serve the classic traversal
    loops (and are the oracle the bulk path is tested against), while
    plan compilation asks only for flat ranges through
    :meth:`tile_delays_samples`.  Providers inherit that method and
    :meth:`volume_delays_samples` from
    :class:`repro.core.bulk.BulkDelayProviderMixin` (a scanline loop) or
    override it with one vectorised evaluation; either way its rows equal
    the scanline rows bit for bit.
    """

    def delays_samples(self, points: np.ndarray) -> np.ndarray:
        """Delays in fractional sample units, shape ``(n_points, n_elements)``."""
        ...  # pragma: no cover - protocol definition

    def scanline_delays_samples(self, i_theta: int, i_phi: int) -> np.ndarray:
        """Delays for a grid scanline, shape ``(n_depth, n_elements)``."""
        ...  # pragma: no cover - protocol definition

    def nappe_delays_samples(self, i_depth: int) -> np.ndarray:
        """Delays for a grid nappe, shape ``(n_theta, n_phi, n_elements)``."""
        ...  # pragma: no cover - protocol definition

    def tile_delays_samples(self, start: int, stop: int,
                            elements: np.ndarray | None = None
                            ) -> np.ndarray:
        """Delays of flat grid points ``[start, stop)``, shape
        ``(stop - start, n_elements)``; the range may cut scanlines.  Given
        ``elements``, only those columns, in that order — bit-equal to
        ``tile_delays_samples(start, stop)[:, elements]``."""
        ...  # pragma: no cover - protocol definition

    def volume_delays_samples(self) -> np.ndarray:
        """Delays for the whole grid, shape ``(n_theta, n_phi, n_depth, n_elements)``."""
        ...  # pragma: no cover - protocol definition


@dataclass(frozen=True)
class ApodizationSettings:
    """Receive apodization configuration."""

    window: WindowType = WindowType.HANN
    use_directivity: bool = True
    directivity_rolloff: float = 0.1


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
        self._aperture_weights = aperture_apodization(
            self.transducer, self.apodization.window).ravel()
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
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if not self.apodization.use_directivity:
            return np.broadcast_to(
                self._aperture_weights,
                (points.shape[0], self.transducer.element_count)).copy()
        weights = directivity_weights(
            off_axis_angle(points, self.transducer.positions),
            self.transducer.config.directivity_max_angle,
            self.apodization.directivity_rolloff)
        # Directivity times aperture, in place: IEEE products commute, so
        # this equals the aperture scaled by the directivity bit for bit.
        weights *= self._aperture_weights
        return weights

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
