"""High-level imaging pipeline: phantom -> echoes -> beamforming -> image.

:class:`ImagingPipeline` runs one engine — the acoustic simulator, a delay
generator and the delay-and-sum beamformer, built from an
:class:`repro.api.EngineSpec` by :meth:`repro.api.EngineSpec.build_engine`
— so that examples, experiments and downstream users can go from a phantom
description to an envelope image (or volume) in one call, selecting the
delay architecture by name in the spec — the way an end user of the
paper's system would.
"""

from __future__ import annotations

import numpy as np

from ..acoustics.echo import ChannelData
from ..acoustics.phantom import Phantom
from ..beamformer.das import DelayProvider
from ..beamformer.drivers import (
    BeamformedVolume,
    reconstruct_nappe_order,
    reconstruct_plane,
    reconstruct_scanline_order,
)
from ..beamformer.image import envelope, log_compress
from ..scenarios.engine import SchemeEngine, require_finite


class ImagingPipeline:
    """A complete receive-imaging chain over one engine.

    ``engine`` is the :class:`repro.scenarios.SchemeEngine` built by
    :meth:`repro.api.EngineSpec.build_engine` (normally via
    :meth:`repro.api.Session.pipeline`); the pipeline acquires with its
    simulator and beamforms with its beamformer and backends.  On the
    ``reference`` backend :meth:`image_volume` keeps the classic
    per-scanline drivers; the other backends reconstruct all scanlines at
    once.  A multi-firing scheme is imaged through :meth:`acquire_firings`
    / :meth:`compound_volume` / :meth:`image_scheme`.
    """

    def __init__(self, engine: SchemeEngine) -> None:
        self.engine = engine
        self.beamformer = engine.beamformer
        self.precision = engine.precision
        self.quantization = engine.quantization
        self.scheme = engine.scheme
        self.cache = engine.cache
        self.tracer = engine.tracer
        self.memory_budget_bytes = engine.memory_budget_bytes

    @property
    def delay_provider(self) -> DelayProvider:
        """The underlying delay generator."""
        return self.beamformer.delays

    # -------------------------------------------------------------- acquire
    def acquire(self, phantom: Phantom, noise_std: float = 0.0,
                seed: int = 0) -> ChannelData:
        """Simulate one insonification of ``phantom``."""
        with self.tracer.span("simulate"):
            return self.engine.simulator.simulate(
                phantom, noise_std=noise_std, seed=seed)

    # ---------------------------------------------------------- reconstruct
    def image_plane(self, channel_data: ChannelData,
                    i_phi: int | None = None,
                    dynamic_range_db: float | None = None) -> np.ndarray:
        """Reconstruct one (theta, depth) plane and return its envelope.

        With ``dynamic_range_db`` set, the image is additionally
        log-compressed to that range.
        """
        require_finite((channel_data,), 0, self.engine.precision.dtype)
        rf = reconstruct_plane(self.beamformer, channel_data, i_phi=i_phi)
        env = envelope(rf, axis=1)
        if dynamic_range_db is None:
            return env
        return log_compress(env, dynamic_range_db)

    def image_volume(self, channel_data: ChannelData,
                     order: str = "nappe") -> BeamformedVolume:
        """Reconstruct the full volume from one acquisition.

        With the ``reference`` backend the volume is built by the classic
        drivers in the requested traversal ``order`` (the paper's two loop
        nests); the other backends reconstruct all scanlines at once (both
        traversal orders yield the identical volume) and tag the volume
        with the backend name instead.  A multi-firing scheme is refused:
        its volume is :meth:`compound_volume` of every firing.
        """
        if order not in ("nappe", "scanline"):
            raise ValueError("order must be 'nappe' or 'scanline'")
        if not self.scheme.is_trivial():
            raise ValueError(
                f"image_volume beamforms one acquisition, but scheme "
                f"{self.scheme.name!r} fires {self.scheme.firing_count} "
                f"times per volume; use compound_volume (or image_scheme)")
        backend = self.engine.backend_name
        if backend == "reference":
            require_finite((channel_data,), 0, self.engine.precision.dtype)
            driver = reconstruct_nappe_order if order == "nappe" \
                else reconstruct_scanline_order
            return driver(self.beamformer, channel_data)
        rf = self.engine.beamform_volume((channel_data,))
        return BeamformedVolume(rf=rf, order=backend)

    def image_phantom(self, phantom: Phantom, noise_std: float = 0.0,
                      seed: int = 0, i_phi: int | None = None) -> np.ndarray:
        """One-call convenience: acquire a phantom and image the centre plane."""
        channel_data = self.acquire(phantom, noise_std=noise_std, seed=seed)
        return self.image_plane(channel_data, i_phi=i_phi)

    # ----------------------------------------------------------- schemes
    def acquire_firings(self, phantom: Phantom, noise_std: float = 0.0,
                        seed: int = 0) -> list[ChannelData]:
        """Simulate every firing of the pipeline's transmit scheme.

        Firing 0 uses ``seed`` directly (the focused baseline is exactly
        one :meth:`acquire` call); later firings seed their noise RNG
        with the ``(seed, i)`` entropy pair — see
        :func:`repro.scenarios.acquire_firings` for why.
        """
        with self.tracer.span("simulate", firings=self.scheme.firing_count):
            return self.engine.acquire(phantom, noise_std=noise_std,
                                       seed=seed)

    def compound_volume(self, firings: "list[ChannelData]"
                        ) -> BeamformedVolume:
        """Coherently compound pre-acquired firings into one volume.

        One channel-data frame per scheme event (see
        :meth:`acquire_firings`); each firing is beamformed with its own
        transmit-adjusted delays on this pipeline's backend and the
        per-firing volumes are summed in event order.
        """
        rf = self.engine.beamform_volume(firings)
        return BeamformedVolume(rf=rf, order=self.engine.backend_name)

    def compound_batch(self, frames: "list[list[ChannelData]]") -> np.ndarray:
        """Compound a cine batch, shape ``(n_frames, n_theta, n_phi, n_depth)``.

        Each firing index is batched across frames in one stacked kernel
        execution; bit-identical to per-frame :meth:`compound_volume`.
        """
        return self.engine.beamform_batch(frames)

    def image_scheme(self, phantom: Phantom, noise_std: float = 0.0,
                     seed: int = 0) -> BeamformedVolume:
        """One-call convenience: acquire all firings and compound them."""
        return self.compound_volume(self.acquire_firings(
            phantom, noise_std=noise_std, seed=seed))
