"""High-level imaging pipeline: phantom -> echoes -> beamforming -> image.

This module wires together the acoustic simulator, a delay generator and the
delay-and-sum beamformer into a single object so that examples, experiments
and downstream users can go from a phantom description to an envelope image
(or volume) in one call, selecting the delay architecture by name — the way
an end user of the paper's system would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..runtime.cache import PlanCache
    from ..scenarios.engine import SchemeEngine

from ..acoustics.echo import ChannelData, EchoSimulator
from ..acoustics.phantom import Phantom
from ..architectures import ARCHITECTURES, architecture_name
from ..beamformer.das import ApodizationSettings, DelayAndSumBeamformer, DelayProvider
from ..beamformer.drivers import (
    BeamformedVolume,
    reconstruct_nappe_order,
    reconstruct_plane,
    reconstruct_scanline_order,
)
from ..beamformer.image import envelope, log_compress
from ..beamformer.interpolation import InterpolationKind
from ..config import SystemConfig
from ..geometry.transducer import MatrixTransducer
from ..geometry.volume import FocalGrid
from ..kernels import Precision, resolve_precision
from ..observability.tracing import resolve_tracer


@dataclass
class ImagingPipeline:
    """A complete receive-imaging chain bound to one delay architecture.

    ``backend`` selects the execution backend used by :meth:`image_volume`:
    ``reference`` keeps the classic per-scanline drivers, ``vectorized``
    (or ``compiled``) routes volume reconstruction through the batched
    :mod:`repro.runtime` backends (sharing delay tensors via ``cache`` when
    one is provided).  Every backend is built by a
    :class:`repro.scenarios.SchemeEngine`: a focused one serves
    :meth:`image_volume` (and the compounding methods when the scheme is
    trivial), a per-firing one is built lazily for any other scheme.
    ``simulator``, ``transducer`` and ``grid`` accept pre-built objects so
    several pipelines over the same system (e.g. one per delay
    architecture) can share them instead of rebuilding.
    """

    system: SystemConfig
    architecture: str = "exact"
    apodization: ApodizationSettings = field(default_factory=ApodizationSettings)
    interpolation: InterpolationKind = InterpolationKind.NEAREST
    architecture_options: object | None = None
    backend: str = "reference"
    backend_options: object | None = None
    precision: Precision | str | None = None
    quantization: object | None = None
    """Optional :class:`repro.kernels.QuantizationSpec` (or bit width /
    Q-format string / dict spelling) enabling the bit-true fixed-point
    kernel path for every reconstruction this pipeline performs."""
    scheme: object | str | None = None
    """Transmit scheme: a registered :data:`repro.scenarios.SCHEMES` name
    or a pre-built :class:`repro.scenarios.TransmitScheme`; ``None``
    resolves to the focused single-firing baseline.  Multi-firing schemes
    are exercised through :meth:`acquire_firings` /
    :meth:`compound_volume` / :meth:`image_scheme`; the single-acquisition
    methods below are unaffected."""
    scheme_options: object | None = None
    """Options dataclass/dict for a scheme given by name."""
    cache: "PlanCache | None" = None
    simulator: EchoSimulator | None = None
    transducer: MatrixTransducer | None = None
    grid: FocalGrid | None = None
    provider: DelayProvider | None = None
    """Pre-built delay provider; skips registry construction when given
    (e.g. to share one provider across several per-backend pipelines)."""
    memory_budget_bytes: int | str | None = None
    """Plan-memory budget for every backend this pipeline builds (bytes or
    a suffixed string like ``"8G"``), which sizes the tiles of each
    backend's :class:`repro.kernels.TiledPlan` — output bit-identical to
    untiled; budgets too small for one scanline are
    rejected at construction.  ``None`` = unbounded (historical
    behaviour).  Read back parsed, in bytes."""
    tracer: object | None = None
    """Optional :class:`repro.observability.Tracer`; spans cover acoustic
    ``simulate``, the runtime backend's ``compile``/``execute`` stages and
    scheme ``compound``.  ``None`` resolves to the process default."""

    def __post_init__(self) -> None:
        from ..kernels import QuantizationSpec
        from ..scenarios.transmit import resolve_scheme
        self.architecture = architecture_name(self.architecture)
        self.precision = resolve_precision(self.precision)
        self.tracer = resolve_tracer(self.tracer)
        self.quantization = QuantizationSpec.coerce(self.quantization)
        self.scheme = resolve_scheme(self.system, self.scheme,
                                     self.scheme_options)
        self._simulator = self.simulator or EchoSimulator.from_config(self.system)
        self._provider = self.provider if self.provider is not None \
            else ARCHITECTURES.create(self.architecture, self.system,
                                      options=self.architecture_options)
        self._beamformer = DelayAndSumBeamformer(
            self.system, self._provider, apodization=self.apodization,
            interpolation=self.interpolation,
            transducer=self.transducer, grid=self.grid,
            precision=self.precision, quantization=self.quantization)
        # Built eagerly, so an unavailable backend or an impossible budget
        # fails here rather than at the first volume.
        self._focused = self._build_engine(resolve_scheme(self.system))
        self.memory_budget_bytes = self._focused.memory_budget_bytes
        self._scheme_engine = self._focused if self.scheme.is_trivial() \
            else None

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release the execution backend(s) this pipeline constructed.

        Closes the focused engine and the lazily built scheme engine
        (dropping their privately memoised plans); shared caches are
        untouched.  Idempotent, and the pipeline stays usable (plans
        rebuild lazily).  The pipeline is a context manager::

            with ImagingPipeline(system, backend="vectorized") as pipeline:
                pipeline.image_volume(channel_data)
        """
        self._focused.close()
        if self._scheme_engine is not None:
            self._scheme_engine.close()

    def __enter__(self) -> "ImagingPipeline":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def delay_provider(self) -> DelayProvider:
        """The underlying delay generator."""
        return self._provider

    @property
    def beamformer(self) -> DelayAndSumBeamformer:
        """The underlying delay-and-sum beamformer."""
        return self._beamformer

    # -------------------------------------------------------------- acquire
    def acquire(self, phantom: Phantom, noise_std: float = 0.0,
                seed: int = 0) -> ChannelData:
        """Simulate one insonification of ``phantom``."""
        with self.tracer.span("simulate"):
            return self._simulator.simulate(phantom, noise_std=noise_std,
                                            seed=seed)

    # ---------------------------------------------------------- reconstruct
    def image_plane(self, channel_data: ChannelData,
                    i_phi: int | None = None,
                    dynamic_range_db: float | None = None) -> np.ndarray:
        """Reconstruct one (theta, depth) plane and return its envelope.

        With ``dynamic_range_db`` set, the image is additionally
        log-compressed to that range.
        """
        from ..scenarios.engine import require_finite
        require_finite((channel_data,), 0)
        rf = reconstruct_plane(self._beamformer, channel_data, i_phi=i_phi)
        env = envelope(rf, axis=1)
        if dynamic_range_db is None:
            return env
        return log_compress(env, dynamic_range_db)

    def image_volume(self, channel_data: ChannelData,
                     order: str = "nappe") -> BeamformedVolume:
        """Reconstruct the full volume.

        With the default ``reference`` backend the volume is built by the
        classic drivers in the requested traversal ``order`` (the paper's
        two loop nests); the other backends reconstruct all scanlines at
        once on the focused engine (both traversal orders yield the
        identical volume) and tag the volume with the backend name instead.
        """
        if order not in ("nappe", "scanline"):
            raise ValueError("order must be 'nappe' or 'scanline'")
        if self.backend == "reference":
            from ..scenarios.engine import require_finite
            require_finite((channel_data,), 0)
            driver = reconstruct_nappe_order if order == "nappe" \
                else reconstruct_scanline_order
            return driver(self._beamformer, channel_data)
        rf = self._focused.beamform_volume((channel_data,))
        return BeamformedVolume(rf=rf, order=self.backend)

    def image_phantom(self, phantom: Phantom, noise_std: float = 0.0,
                      seed: int = 0, i_phi: int | None = None) -> np.ndarray:
        """One-call convenience: acquire a phantom and image the centre plane."""
        channel_data = self.acquire(phantom, noise_std=noise_std, seed=seed)
        return self.image_plane(channel_data, i_phi=i_phi)

    # ----------------------------------------------------------- schemes
    def _build_engine(self, scheme: object) -> "SchemeEngine":
        """An engine running ``scheme`` on this pipeline's backend."""
        # Imported lazily: repro.scenarios builds on repro.runtime, which
        # depends on this module.
        from ..scenarios.engine import SchemeEngine
        return SchemeEngine(
            self._beamformer, scheme, backend=self.backend,
            backend_options=self.backend_options, cache=self.cache,
            precision=self.precision, tracer=self.tracer,
            memory_budget_bytes=self.memory_budget_bytes)

    def _engine(self) -> "SchemeEngine":
        """The engine for this pipeline's scheme, built on first use."""
        if self._scheme_engine is None:
            self._scheme_engine = self._build_engine(self.scheme)
        return self._scheme_engine

    def acquire_firings(self, phantom: Phantom, noise_std: float = 0.0,
                        seed: int = 0) -> list[ChannelData]:
        """Simulate every firing of the pipeline's transmit scheme.

        Firing 0 uses ``seed`` directly (the focused baseline is exactly
        one :meth:`acquire` call); later firings seed their noise RNG
        with the ``(seed, i)`` entropy pair — see
        :func:`repro.scenarios.acquire_firings` for why.
        """
        from ..scenarios.engine import acquire_firings
        with self.tracer.span("simulate", firings=self.scheme.firing_count):
            return acquire_firings(self._simulator, self.scheme, phantom,
                                   noise_std=noise_std, seed=seed)

    def compound_volume(self, firings: "list[ChannelData]"
                        ) -> BeamformedVolume:
        """Coherently compound pre-acquired firings into one volume.

        One channel-data frame per scheme event (see
        :meth:`acquire_firings`); each firing is beamformed with its own
        transmit-adjusted delays on this pipeline's backend and the
        per-firing volumes are summed in event order.
        """
        rf = self._engine().beamform_volume(firings)
        return BeamformedVolume(rf=rf, order=self.backend)

    def compound_batch(self, frames: "list[list[ChannelData]]") -> np.ndarray:
        """Compound a cine batch, shape ``(n_frames, n_theta, n_phi, n_depth)``.

        Each firing index is batched across frames in one stacked kernel
        execution; bit-identical to per-frame :meth:`compound_volume`.
        """
        return self._engine().beamform_batch(frames)

    def image_scheme(self, phantom: Phantom, noise_std: float = 0.0,
                     seed: int = 0) -> BeamformedVolume:
        """One-call convenience: acquire all firings and compound them."""
        return self.compound_volume(self.acquire_firings(
            phantom, noise_std=noise_std, seed=seed))
