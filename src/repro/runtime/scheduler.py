"""Frame requests and results for streaming acquisition sequences.

A cine acquisition is an ordered stream of frames — either pre-recorded
channel data or phantoms still to be insonified (e.g. a scatterer moving
between frames).  A :class:`FrameRequest` carries one frame into
:class:`repro.runtime.service.BeamformingService`, which streams any
iterable of requests in order, and a :class:`FrameResult` carries its
volume and latency back out.

The module also provides scenario builders (:func:`moving_point_cine`,
:func:`static_cine`) used by the CLI ``stream`` command, experiment E11 and
the runtime tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..acoustics.echo import ChannelData
from ..acoustics.phantom import Phantom, point_target
from ..config import SystemConfig
from ..geometry.volume import FocalGrid


@dataclass(frozen=True)
class FrameRequest:
    """One frame of a streaming acquisition.

    Exactly one of ``channel_data`` (pre-recorded echoes) or ``phantom``
    (to be simulated by the service before beamforming) must be provided.
    """

    frame_id: int
    phantom: Phantom | None = None
    channel_data: ChannelData | None = None
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if (self.phantom is None) == (self.channel_data is None):
            raise ValueError(
                "provide exactly one of 'phantom' or 'channel_data'")


@dataclass(frozen=True)
class FrameResult:
    """Outcome of beamforming one frame."""

    frame_id: int
    rf: np.ndarray
    """Beamformed RF volume, shape ``(n_theta, n_phi, n_depth)``."""

    backend: str
    acquire_seconds: float
    """Time spent simulating echoes (0 for pre-recorded channel data)."""

    beamform_seconds: float
    """Time spent in the execution backend (the streaming latency)."""

    @property
    def latency_seconds(self) -> float:
        """End-to-end processing latency of this frame."""
        return self.acquire_seconds + self.beamform_seconds

    @property
    def voxel_count(self) -> int:
        """Number of reconstructed voxels."""
        return int(np.prod(self.rf.shape))


# --------------------------------------------------------------- scenarios
def moving_point_cine(system: SystemConfig, n_frames: int = 8,
                      depth_fractions: tuple[float, float] = (0.35, 0.65),
                      theta_fraction: float = 0.0) -> list[FrameRequest]:
    """A cine sequence of a point scatterer drifting in depth.

    The scatterer moves linearly between the two ``depth_fractions`` of the
    imaging range over ``n_frames`` frames — the minimal moving-phantom
    scenario: geometry (and therefore every delay/weight tensor) is constant
    while the echo data change every frame.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be at least 1")
    volume = system.volume
    grid = FocalGrid.from_config(system)
    theta = float(grid.thetas[np.argmin(
        np.abs(grid.thetas - theta_fraction * volume.theta_max))])
    lo, hi = depth_fractions
    fractions = np.linspace(lo, hi, n_frames)
    requests = []
    for frame_id, fraction in enumerate(fractions):
        depth = volume.depth_min + float(fraction) * volume.depth_span
        requests.append(FrameRequest(
            frame_id=frame_id,
            phantom=point_target(depth=depth, theta=theta),
            seed=frame_id))
    return requests


def static_cine(channel_data: ChannelData, n_frames: int = 8) -> list[FrameRequest]:
    """A cine sequence replaying the same pre-recorded frame ``n_frames`` times.

    Useful for throughput benchmarking: the acquisition cost is zero and the
    per-frame work isolates the beamforming backend.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be at least 1")
    return [FrameRequest(frame_id=i, channel_data=channel_data)
            for i in range(n_frames)]
