"""Low-level beamforming kernels: gather, weight, accumulate.

Every consumer of delays in this codebase — the per-scanline classic loop,
the whole-volume vectorized backend, the thread-sharded backend and the
batched multi-frame path — ultimately performs the same three steps:

1. :func:`gather_interp` — fetch one echo sample per (focal point, element)
   from the channel buffers at the delayed index (nearest or linear);
2. :func:`apply_weights` — multiply by the receive apodization weights;
3. :func:`accumulate` — sum across the element axis (Eq. 1 of the paper).

This module is the single implementation of those steps.  The kernels are
shape-polymorphic over a leading batch axis: ``samples`` may be one frame
``(n_elements, n_samples)`` or a stacked cine ``(n_frames, n_elements,
n_samples)`` and every kernel broadcasts accordingly, which is what makes
multi-frame execution one ``np.take`` instead of a Python loop per frame.

Addressing is split from gathering: :func:`build_gather_index` rounds
fractional-sample delays once into an int32 *flat* index into the frame
raveled by :func:`pad_samples`, out-of-buffer fetches pointing at its zero
pad slot, so a gather needs no masks and a compiled
:class:`repro.kernels.plan.BeamformingPlan` pays the float->index conversion
at compile time — the software analogue of the paper's delay table.

Arithmetic runs in the dtype of ``samples`` (see
:class:`repro.kernels.precision.Precision`); delays are always rounded in
``float64``, so echo addressing is precision-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..beamformer.interpolation import InterpolationKind

# InterpolationKind is a str-valued enum; the kernels compare by value so
# this module stays below repro.beamformer in the import graph (das.py
# imports these kernels).
_NEAREST = "nearest"
_LINEAR = "linear"

__all__ = [
    "GatherIndex",
    "accumulate",
    "apply_weights",
    "build_gather_index",
    "delay_and_sum",
    "gather_interp",
    "gather_padded",
    "pad_samples",
]


@dataclass(frozen=True)
class GatherIndex:
    """Precomputed echo-buffer addressing for ``(n_points, n_elements)`` delays.

    ``flat`` (int32) holds ``element * n_samples + sample`` — the nearest
    sample, or the lower neighbour for ``LINEAR`` — into a frame padded by
    :func:`pad_samples`; a fetch outside the echo buffer points at its zero
    pad slot ``n_elements * n_samples`` (a hardware echo buffer addressed
    past its end contributes nothing).  ``LINEAR`` adds the ``upper``
    neighbour and the interpolation ``fraction`` in the execution dtype.
    """

    kind: "InterpolationKind | str"
    n_samples: int
    n_elements: int
    flat: np.ndarray
    upper: np.ndarray | None = None
    fraction: np.ndarray | None = None

    @classmethod
    def empty(cls, kind: "InterpolationKind | str", n_points: int,
              n_elements: int, n_samples: int,
              dtype: np.dtype | type = np.float64) -> "GatherIndex":
        """An unfilled index of ``n_points`` rows; :meth:`write` fills it."""
        if n_elements * n_samples + 1 > np.iinfo(np.int32).max:
            raise ValueError(f"a padded {n_elements} x {n_samples}-sample "
                             "echo buffer exceeds the int32 index range")
        kind_value = getattr(kind, "value", kind)
        if kind_value not in (_NEAREST, _LINEAR):
            raise ValueError(f"unknown interpolation kind: {kind!r}")
        shape = (n_points, n_elements)
        linear = kind_value == _LINEAR
        return cls(kind=kind, n_samples=n_samples, n_elements=n_elements,
                   flat=np.empty(shape, dtype=np.int32),
                   upper=np.empty(shape, dtype=np.int32) if linear else None,
                   fraction=np.empty(shape, dtype=dtype) if linear else None)

    @property
    def n_points(self) -> int:
        """Number of focal points addressed."""
        return self.flat.shape[0]

    @property
    def nbytes(self) -> int:
        """Memory footprint of the index arrays [bytes]."""
        return sum(a.nbytes for a in (self.flat, self.upper, self.fraction)
                   if a is not None)

    def rows(self, rows: slice) -> "GatherIndex":
        """A view of this index restricted to a contiguous point block."""
        def cut(array: np.ndarray | None) -> np.ndarray | None:
            return array[rows] if array is not None else None

        return replace(self, flat=self.flat[rows], upper=cut(self.upper),
                       fraction=cut(self.fraction))

    def write(self, rows: slice, delays: np.ndarray) -> None:
        """Round the ``float64`` fractional-sample ``delays`` of ``rows``
        into place — the only place delays are rounded, so nearest/linear
        addressing is defined here once for every execution path."""
        if self.upper is None:
            self.flat[rows] = self._offsets(np.floor(delays + 0.5))
            return
        lower = np.floor(delays)
        self.flat[rows] = self._offsets(lower)
        self.upper[rows] = self._offsets(lower + 1.0)
        self.fraction[rows] = delays - lower

    def _offsets(self, sample: np.ndarray) -> np.ndarray:
        """Whole-sample positions -> flat offsets (pad slot when outside)."""
        inside = (sample >= 0) & (sample < self.n_samples)
        bases = np.arange(self.n_elements) * self.n_samples
        return np.where(inside, sample + bases,
                        self.n_elements * self.n_samples)


def build_gather_index(delays_samples: np.ndarray, n_samples: int,
                       kind: "InterpolationKind | str" = _NEAREST,
                       dtype: np.dtype | type = np.float64) -> GatherIndex:
    """Round fractional-sample delays into a flat gather index.

    ``delays_samples`` has shape ``(n_points, n_elements)``; ``n_samples``
    is the echo-buffer length the index addresses, and ``dtype`` the
    execution dtype the ``LINEAR`` fraction is stored in.
    """
    delays = np.asarray(delays_samples, dtype=np.float64)
    if delays.ndim != 2:
        raise ValueError("delays must have shape (n_points, n_elements), "
                         f"got {delays.shape}")
    index = GatherIndex.empty(kind, *delays.shape, n_samples, dtype)
    index.write(slice(None), delays)
    return index


def pad_samples(samples: np.ndarray, index: GatherIndex) -> np.ndarray:
    """Ravel each ``(n_elements, n_samples)`` frame and append the zero pad
    slot: ``(E*S + 1,)`` for one frame, ``(E*S + 1, n_frames)`` for a stack
    — frames innermost, so one flat offset fetches every frame's sample
    from one cache line.  One copy per call; every chunk gathers from it.
    """
    samples = np.asarray(samples)
    n = index.n_elements * index.n_samples
    if samples.ndim not in (2, 3) or \
            samples.shape[-2:] != (index.n_elements, index.n_samples):
        raise ValueError(f"samples must be ([n_frames,] {index.n_elements}, "
                         f"{index.n_samples}) for this gather index, got "
                         f"{samples.shape}")
    padded = np.empty((n + 1, *samples.shape[:-2]), dtype=samples.dtype)
    padded[:n] = np.moveaxis(samples.reshape(*samples.shape[:-2], n), -1, 0)
    padded[n] = 0
    return padded


def gather_padded(padded: np.ndarray, index: GatherIndex) -> np.ndarray:
    """Fetch (and, for LINEAR, interpolate) from a :func:`pad_samples`
    buffer: one ``np.take`` per neighbour, no masks.  A stacked buffer gives
    a C-contiguous ``(n_frames, n_points, n_elements)`` result."""
    values = np.take(padded, index.flat, axis=0)
    if index.upper is not None:
        fraction = index.fraction.astype(padded.dtype, copy=False)
        fraction = fraction.reshape(fraction.shape + (1,) * (padded.ndim - 1))
        values = (1.0 - fraction) * values \
            + fraction * np.take(padded, index.upper, axis=0)
    return np.ascontiguousarray(np.moveaxis(values, 2, 0)) \
        if padded.ndim == 2 else values


def gather_interp(samples: np.ndarray, index: GatherIndex) -> np.ndarray:
    """Fetch (and, for LINEAR, interpolate) echo samples via a gather index.

    The result is carried in ``samples.dtype`` — cast the buffer once before
    calling to select the execution precision.
    """
    return gather_padded(pad_samples(samples, index), index)


def apply_weights(samples: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Apodize gathered samples (weights broadcast over any batch axis)."""
    return weights.astype(samples.dtype, copy=False) * samples


def accumulate(weighted: np.ndarray) -> np.ndarray:
    """Sum the weighted samples across the trailing element axis (Eq. 1)."""
    return np.sum(weighted, axis=-1)


def delay_and_sum(samples: np.ndarray, delays_samples: np.ndarray,
                  weights: np.ndarray,
                  kind: "InterpolationKind | str" = _NEAREST,
                  dtype: np.dtype | type = np.float64) -> np.ndarray:
    """One-shot gather/weight/accumulate for freshly generated delays.

    The uncompiled entry point: used where delays are produced per call (the
    per-scanline classic loop, arbitrary-point beamforming) and caching an
    index would buy nothing.  Compiled execution goes through
    :class:`repro.kernels.plan.BeamformingPlan` instead.
    """
    samples = np.asarray(samples, dtype=dtype)
    index = build_gather_index(delays_samples, samples.shape[-1], kind, dtype)
    return accumulate(apply_weights(gather_interp(samples, index), weights))
