"""Multi-insonification acquisition bookkeeping (Section V-B).

The paper's throughput budget assumes 64 insonifications per volume with 256
scanlines beamformed per insonification (Section V-B), and mentions
synthetic-aperture schemes that move the transmit origin between
insonifications.  :class:`InsonificationPlan` models that acquisition
structure — how the scanlines of a volume are divided across
insonifications, and which transmit origin each insonification uses — and
:func:`acquisition_summary` derives the paper's rate arithmetic from it.

Imaging such an acquisition is a registered
:class:`repro.scenarios.TransmitScheme` (plane-wave sets, per-element
synthetic-aperture firings, diverging waves from virtual sources): it runs
through any delay architecture and any execution backend, with per-firing
coherent compounding on
:meth:`repro.pipeline.ImagingPipeline.compound_volume`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from ..core.multi_origin import OriginSchedule


@dataclass(frozen=True)
class InsonificationPlan:
    """Assignment of scanlines and transmit origins to insonifications.

    Attributes
    ----------
    schedule:
        The transmit origins, one per insonification (cycled if the plan has
        more insonifications than origins).
    scanline_groups:
        One integer array per insonification holding the flat scanline
        indices (``i_theta * n_phi + i_phi``) reconstructed from it.
    """

    schedule: OriginSchedule
    scanline_groups: tuple[np.ndarray, ...]

    @property
    def insonification_count(self) -> int:
        """Number of transmit events per volume."""
        return len(self.scanline_groups)

    @classmethod
    def from_system(cls, system: SystemConfig,
                    schedule: OriginSchedule | None = None,
                    insonifications: int | None = None) -> "InsonificationPlan":
        """Divide the volume's scanlines evenly across insonifications.

        Defaults to the system's ``insonifications_per_volume`` and a single
        centred origin, i.e. the paper's baseline acquisition.  A count
        above the scanline count is clamped to one scanline per
        insonification.
        """
        if schedule is None:
            schedule = OriginSchedule.single_center()
        if insonifications is None:
            insonifications = system.beamformer.insonifications_per_volume
        if insonifications < 1:
            raise ValueError(f"insonifications must be >= 1, "
                             f"got {insonifications}")
        total_scanlines = system.volume.scanline_count
        insonifications = min(insonifications, total_scanlines)
        indices = np.arange(total_scanlines)
        groups = tuple(np.array_split(indices, insonifications))
        return cls(schedule=schedule, scanline_groups=groups)

    def origin_for(self, insonification: int) -> np.ndarray:
        """Transmit origin used by the given insonification."""
        return self.schedule.origins[insonification % self.schedule.count]

    def scanlines_per_insonification(self) -> float:
        """Average number of scanlines reconstructed per transmit event."""
        return float(np.mean([len(group) for group in self.scanline_groups]))


def acquisition_summary(system: SystemConfig, plan: InsonificationPlan) -> dict[str, float]:
    """Throughput bookkeeping for an acquisition plan (Section V-B numbers).

    Reports the insonification rate, scanlines per insonification and the
    delay values consumed per second, matching the arithmetic the paper uses
    to derive its 960 insonifications/s and 2.5e12 delays/s figures.
    """
    frame_rate = system.beamformer.frame_rate
    insonifications_per_second = plan.insonification_count * frame_rate
    delays_per_scanline = system.volume.n_depth * system.transducer.element_count
    delays_per_second = (system.volume.scanline_count * delays_per_scanline
                         * frame_rate)
    return {
        "insonifications_per_volume": float(plan.insonification_count),
        "insonifications_per_second": float(insonifications_per_second),
        "scanlines_per_insonification": plan.scanlines_per_insonification(),
        "delay_values_per_second": float(delays_per_second),
        "distinct_origins": float(plan.schedule.count),
    }
