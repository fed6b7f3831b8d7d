"""Transmit/receive delay split over any registered delay architecture.

Every delay provider in :mod:`repro.core` produces the *two-way* delay for
its canonical transmit origin: ``t(S, D) = (tx(S) + rx(S, D)) / c`` with
``tx(S) = |S - origin|``.  A different transmit scheme changes only the
transmit leg, so instead of teaching every architecture about plane waves
and per-element firings, :class:`TransmitAdjustedProvider` rewrites the
transmit term on top of the architecture's output::

    delays'(S, D) = delays(S, D) - tx_canonical(S) + tx_event(S)

The correction is exact float64 geometry applied identically to every
architecture and backend, so the paper's accuracy story is untouched: the
architecture still owns the (approximate) two-way generation, the scheme
owns the exact transmit swap.  For the canonical focused event the
correction is *exactly zero* (the two transmit terms are the same
arithmetic), making the wrapped provider bit-identical to its base — the
property the delay-split conformance tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..config import SystemConfig
from ..core.provider import DelayProvider
from ..geometry.volume import FocalGrid
from .transmit import TransmitEvent


@dataclass(frozen=True, eq=False)
class TransmitAdjustedProvider(DelayProvider):
    """A delay provider with its transmit leg swapped for a scheme event.

    A :class:`repro.core.provider.DelayProvider` (the nappe, volume and
    index accessors derived from :meth:`delays_samples` and
    :meth:`tile_delays_samples`), so it drops into the classic
    per-scanline path, plan compilation and every runtime backend
    unchanged.  Identity equality
    (``eq=False``), like the architecture providers it wraps; plan-level
    identity lives in :attr:`design`.
    """

    base: Any
    """The wrapped architecture provider (two-way delays, canonical origin)."""

    event: TransmitEvent
    """The firing whose transmit leg replaces the canonical one."""

    system: SystemConfig
    grid: FocalGrid
    reference: TransmitEvent = field(default=None)  # type: ignore[assignment]
    """Canonical transmit of ``base`` (spherical at its origin); defaults to
    the base provider's ``origin`` attribute (the probe centre when absent)."""

    @classmethod
    def from_provider(cls, base: Any, event: TransmitEvent,
                      system: SystemConfig,
                      grid: FocalGrid | None = None
                      ) -> "TransmitAdjustedProvider":
        """Wrap ``base`` for ``event`` (grid defaults to the system's)."""
        return cls(base=base, event=event, system=system,
                   grid=grid or FocalGrid.from_config(system))

    def __post_init__(self) -> None:
        if self.reference is None:
            origin = getattr(self.base, "origin", None)
            reference = TransmitEvent.focused(
                origin=None if origin is None else origin,
                label="canonical")
            object.__setattr__(self, "reference", reference)

    # ------------------------------------------------------- plan identity
    @property
    def origin(self) -> np.ndarray:
        """The event origin (read by :func:`repro.kernels.plan_key`)."""
        return self.event.origin

    @property
    def design(self) -> tuple:
        """Composite design identity: base architecture design + event.

        Feeds :func:`repro.kernels.plan_key` so plans compiled for two
        different firings (or a firing vs the bare architecture) can never
        be served from the same cache slot.
        """
        return (type(self.base).__name__,
                repr(getattr(self.base, "design", None)),
                self.event.token(), self.reference.token())

    # ----------------------------------------------------------- correction
    def transmit_correction_samples(self, points: np.ndarray) -> np.ndarray:
        """Per-point transmit swap, in fractional samples, shape ``(n,)``.

        Exactly zero when the event equals the canonical transmit: both
        terms are then the same function of the same inputs.
        """
        acoustic = self.system.acoustic
        delta = (self.event.transmit_distances(points)
                 - self.reference.transmit_distances(points))
        return (delta / acoustic.speed_of_sound) * acoustic.sampling_frequency

    # ------------------------------------------------------ DelayProvider
    def delays_samples(self, points: np.ndarray) -> np.ndarray:
        """Delays in fractional samples, shape ``(n_points, n_elements)``."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        base = self.base.delays_samples(points)
        return base + self.transmit_correction_samples(points)[:, None]

    def scanline_delays_samples(self, i_theta: int, i_phi: int) -> np.ndarray:
        """Delays for a grid scanline, shape ``(n_depth, n_elements)``: the
        base's scanline rows (its fastest, which the reference backend runs
        per firing) plus the transmit correction."""
        base = self.base.scanline_delays_samples(i_theta, i_phi)
        points = self.grid.scanline_points(i_theta, i_phi)
        return base + self.transmit_correction_samples(points)[:, None]

    def tile_delays_samples(self, start: int, stop: int,
                            elements: np.ndarray | None = None
                            ) -> np.ndarray:
        """Delays of flat grid points ``[start, stop)`` (at ``elements``
        only, when given): the base's bulk rows plus
        :meth:`range_correction` over the range's points."""
        base = self.base.tile_delays_samples(start, stop, elements)
        return base + self.range_correction(start, stop)[:, None]

    def range_correction(self, start: int, stop: int) -> np.ndarray:
        """The transmit correction of flat points ``[start, stop)``, shape
        ``(stop - start,)``: what :meth:`tile_delays_samples` adds to every
        column of :attr:`base`'s rows.  A firing group's compile
        (:func:`repro.kernels.compile_plans`) asks :attr:`base` for each
        slab once and adds each firing's correction itself, the same
        float add."""
        return self.transmit_correction_samples(
            self.grid.range_points(start, stop))
