"""Synthetic-aperture / multi-origin delay generation support.

Section V of the paper notes that TABLESTEER assumes a *constant* sound
origin across frames; techniques like synthetic aperture imaging, which
reposition the (virtual) source ``O`` at every insonification, "can be
supported by way of multiple precalculated delay tables, at extra hardware
cost", while TABLEFREE handles arbitrary origins natively because the
transmit distance is computed on the fly.  The conclusion lists this
flexibility as one of TABLEFREE's advantages.

This module makes that comparison concrete:

* :class:`OriginSchedule` — a set of transmit origins (one per
  insonification), with factories for the common synthetic-aperture layouts
  (virtual sources behind the probe, translated sub-apertures).
* :func:`synthetic_aperture_cost_comparison` — the TABLESTEER reference
  table storage as the origin count grows (what the paper means by "extra
  hardware cost"), against TABLEFREE's zero table storage.

Imaging with virtual sources runs through the transmit-scheme layer:
:class:`repro.scenarios.TransmitAdjustedProvider` re-targets the transmit
leg of any delay architecture to each firing's origin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig


@dataclass(frozen=True)
class OriginSchedule:
    """Transmit origins used across the insonifications of one volume.

    Attributes
    ----------
    origins:
        Origin positions, shape ``(n_insonifications, 3)`` [m].
    name:
        Human-readable label of the acquisition scheme.
    """

    origins: np.ndarray
    name: str = "custom"

    def __post_init__(self) -> None:
        origins = np.atleast_2d(np.asarray(self.origins, dtype=np.float64))
        if origins.ndim != 2 or origins.shape[1] != 3:
            raise ValueError(
                f"origins must have shape (n, 3), got {origins.shape}")
        if origins.shape[0] == 0:
            raise ValueError("an origin schedule needs at least one origin")
        if not np.all(np.isfinite(origins)):
            raise ValueError("origins must be finite, got a NaN or inf "
                             "coordinate")
        object.__setattr__(self, "origins", origins)

    @property
    def count(self) -> int:
        """Number of distinct transmit origins."""
        return self.origins.shape[0]

    @classmethod
    def single_center(cls) -> "OriginSchedule":
        """The paper's default: one origin at the transducer centre."""
        return cls(origins=np.zeros((1, 3)), name="center")

    @classmethod
    def virtual_sources_behind_probe(cls, system: SystemConfig,
                                     count: int = 8,
                                     standoff_wavelengths: float = 16.0) -> "OriginSchedule":
        """Virtual point sources placed behind the aperture (diverging waves).

        The sources are spread along x at a fixed negative z stand-off, a
        common synthetic-aperture transmit scheme for fast volumetric
        imaging.
        """
        if count < 1:
            raise ValueError("need at least one virtual source")
        aperture = system.transducer.aperture_x
        standoff = standoff_wavelengths * system.acoustic.wavelength
        xs = np.linspace(-aperture / 2, aperture / 2, count)
        origins = np.stack([xs, np.zeros(count), np.full(count, -standoff)],
                           axis=-1)
        return cls(origins=origins, name="virtual_sources")

    @classmethod
    def translated_subapertures(cls, system: SystemConfig,
                                count: int = 4) -> "OriginSchedule":
        """Origins at the centres of ``count`` sub-apertures along x."""
        if count < 1:
            raise ValueError("need at least one sub-aperture")
        aperture = system.transducer.aperture_x
        xs = (np.arange(count) - (count - 1) / 2) * aperture / max(count, 1)
        origins = np.stack([xs, np.zeros(count), np.zeros(count)], axis=-1)
        return cls(origins=origins, name="subapertures")


def synthetic_aperture_cost_comparison(system: SystemConfig,
                                       origin_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
                                       ) -> list[dict[str, float]]:
    """Storage cost of TABLESTEER vs TABLEFREE as the origin count grows.

    Returns one row per origin count with the TABLESTEER reference-table
    storage (which grows linearly, and loses quadrant pruning for off-centre
    origins) and the TABLEFREE table storage (always zero).  This quantifies
    the paper's flexibility argument without building the actual tables.
    """
    rows = []
    for count in origin_counts:
        if count == 1:
            schedule = OriginSchedule.single_center()
        else:
            schedule = OriginSchedule.virtual_sources_behind_probe(system, count)
        # Storage accounting only: reuse the entry-count logic without
        # constructing per-origin engines.
        ex = system.transducer.elements_x
        ey = system.transducer.elements_y
        n_depth = system.volume.n_depth
        total_entries = 0
        for origin in schedule.origins:
            x_factor = (ex + 1) // 2 if abs(origin[0]) < 1e-12 else ex
            y_factor = (ey + 1) // 2 if abs(origin[1]) < 1e-12 else ey
            total_entries += x_factor * y_factor * n_depth
        rows.append({
            "origins": float(count),
            "tablesteer_entries": float(total_entries),
            "tablesteer_megabits_18b": total_entries * 18 / 1e6,
            "tablefree_megabits": 0.0,
        })
    return rows
