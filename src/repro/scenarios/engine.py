"""Per-firing execution engines and coherent compounding for a scheme.

A :class:`SchemeEngine` turns one configured
:class:`repro.beamformer.das.DelayAndSumBeamformer` plus a
:class:`repro.scenarios.TransmitScheme` into a bank of per-firing
execution backends: each transmit event gets a
:class:`repro.scenarios.delays.TransmitAdjustedProvider` (the
architecture's delays with the transmit leg swapped), its own beamformer
sharing the transducer/grid/apodization/precision/quantisation of the
base, and an execution backend resolved through
:data:`repro.runtime.backends.BACKENDS` — so every scheme runs on every
backend, per frame or batched, without new kernel code.

:meth:`repro.api.EngineSpec.build_engine` is the one place that builds
a :class:`SchemeEngine` from a spec, and every facade runs the engine it
returns: :class:`repro.runtime.BeamformingService`,
:class:`repro.pipeline.ImagingPipeline`, a
:class:`repro.server.BeamformingServer` session and a sweep cell.  The
trivial focused scheme is a one-firing engine on the base beamformer
itself, with no transmit wrap, so it keeps the bare architecture's plan
key, compile cost and bits.  A compounding engine's firings share one
cache and one tiling and run tile-major: a tile's segment plans, one per
firing, are one cache entry, compiled on a miss in one pass over their
shared base delays
(:meth:`repro.runtime.backends.VectorizedBackend.compound`,
:func:`repro.kernels.compile_plans`).

Compounding is a plain ordered sum of per-firing volumes.  The summation
order is the event order of the scheme in both the per-frame and the
batched path, so the compounded volume is bit-identical across backends,
tilings and batching whenever the per-firing volumes are (which the
kernel layer pins at ``float64``).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Sequence

import numpy as np

from ..acoustics.echo import ChannelData, EchoSimulator
from ..acoustics.phantom import Phantom
from ..beamformer.das import DelayAndSumBeamformer
from ..config import SystemConfig
from ..kernels import Precision, QuantizationSpec
from ..kernels.ops import all_finite
from ..kernels.tiling import parse_memory_budget
from ..observability.tracing import resolve_tracer
from ..runtime.backends import BACKENDS
from ..runtime.cache import PlanCache
from .delays import TransmitAdjustedProvider
from .transmit import TransmitScheme


def acquire_firings(simulator: EchoSimulator, scheme: TransmitScheme,
                    phantom: Phantom, noise_std: float = 0.0,
                    seed: int = 0) -> list[ChannelData]:
    """Simulate one frame of ``phantom`` under every firing of ``scheme``.

    The firings share one :meth:`EchoSimulator.simulate_events` pass over
    the phantom; each is bit-identical to its own ``simulate_event`` call.
    Firing 0 uses ``seed`` directly, so the trivial focused scheme
    reproduces :meth:`EchoSimulator.simulate` bit for bit (noise
    included).  Later firings seed their RNG with the ``(seed, index)``
    entropy pair — **not** ``seed + index``, which would collide with the
    consecutive per-frame seeds the cine scenarios hand out and inject
    bit-identical noise into adjacent frames.
    """
    return simulator.simulate_events(
        phantom, scheme.events, noise_std=noise_std,
        seeds=[seed if index == 0 else (seed, index)
               for index in range(len(scheme.events))])


def require_finite(firings: Sequence[ChannelData], frame: Any,
                   dtype: np.dtype | type) -> None:
    """Refuse a frame holding a NaN or infinite echo sample.

    The float nearest plan skips the terms a zero weight switches off.
    That leaves every sum's bits unchanged only for finite samples: a
    skipped ``0 * inf`` would have been NaN.  So a frame is checked once,
    in place and in the execution ``dtype``
    (:func:`repro.kernels.ops.all_finite`: a float64 sample beyond
    float32's range is refused by a float32 engine), where the service or
    the pipeline hands it to a backend; no backend scans it again, and
    every backend refuses it alike, with a :class:`ValueError` naming
    ``frame``.
    """
    for index, firing in enumerate(firings):
        if not all_finite(firing, dtype):
            raise ValueError(
                f"frame {frame} holds non-finite echo samples (NaN or "
                f"inf) in firing {index}; beamforming needs finite samples")


class SchemeEngine:
    """Bank of per-firing backends + coherent compounding for one scheme.

    Parameters
    ----------
    beamformer:
        The configured base beamformer; its delay provider, apodization,
        interpolation, precision and quantisation are shared by every
        per-firing engine, and its precision is the engine's.
    scheme:
        The transmit scheme; one execution backend is built per event.  A
        trivial scheme (:meth:`TransmitScheme.is_trivial`) runs its single
        backend on ``beamformer`` unwrapped and opens no ``compound`` span.
    backend:
        Registered execution-backend name (``reference`` included — the
        conformance matrix runs every scheme on every backend).
    cache:
        Optional shared :class:`repro.runtime.cache.PlanCache`; per-firing
        plans have distinct keys (the firing is part of the provider
        design), so a shared cache never mixes firings.  A tile's firings
        are one entry, so the engine never evicts its own plans to make
        room for them.  Without a cache the engine keeps one private cache
        for all its firings, bounded by the budget.
    tracer:
        Optional :class:`repro.observability.Tracer`, shared with every
        per-firing backend; compounding opens a ``compound`` span around
        the firings' one ``execute`` span (a ``tile`` span per tile, with
        one group ``compile`` and a segment execution per firing).
        ``None`` resolves to the process default (normally a no-op).
    memory_budget_bytes:
        Optional plan-memory budget: the firings' backends tile the grid
        so that a tile's F segment plans, one per firing, fit it together
        (:class:`repro.kernels.tiling.TilePlanner`, which rejects a share
        too small to hold one scanline) and the cache is byte-bounded to
        it once, so the tiles' segments stream through it.
        :class:`repro.api.EngineSpec` refuses a budget too small for one
        scanline per firing with that minimum named.  Read back parsed, in
        bytes, from :attr:`memory_budget_bytes`.
    simulator:
        Optional :class:`repro.acoustics.echo.EchoSimulator` that
        :meth:`acquire` simulates with; an engine without one beamforms
        given channel data only.
    """

    def __init__(self, beamformer: DelayAndSumBeamformer,
                 scheme: TransmitScheme, backend: str = "vectorized",
                 backend_options: Any = None,
                 cache: PlanCache | None = None, tracer: Any = None,
                 memory_budget_bytes: int | str | None = None,
                 simulator: EchoSimulator | None = None) -> None:
        self.beamformer = beamformer
        self.scheme = scheme
        self.backend_name = backend
        self.simulator = simulator
        self.tracer = resolve_tracer(tracer)
        budget = None if memory_budget_bytes is None \
            else parse_memory_budget(memory_budget_bytes)
        self.memory_budget_bytes: int | None = budget
        self._compounds = not scheme.is_trivial()
        beamformers = [self._event_beamformer(event)
                       for event in scheme.events] \
            if self._compounds else [beamformer]
        if cache is None:
            cache = PlanCache(max_bytes=budget)
        elif budget is not None:
            cache.limit_bytes(budget)
        self.cache = cache
        # Each firing's backend tiles to its share of the budget, so all
        # tile alike and a tile's segments fit the budget together.
        share = None if budget is None else budget // len(beamformers)
        self.backends = [
            BACKENDS.create(backend, event_beamformer, cache, share,
                            options=backend_options, tracer=self.tracer)
            for event_beamformer in beamformers]

    def _event_beamformer(self, event: Any) -> DelayAndSumBeamformer:
        """The base beamformer with its transmit leg swapped for ``event``."""
        base = self.beamformer
        provider = TransmitAdjustedProvider.from_provider(
            base.delays, event, base.system, grid=base.grid)
        return DelayAndSumBeamformer(
            base.system, provider, apodization=base.apodization,
            interpolation=base.interpolation, transducer=base.transducer,
            grid=base.grid, precision=base.precision,
            quantization=base.quantization)

    @property
    def precision(self) -> Precision:
        """The execution dtype policy: the beamformer's."""
        return self.beamformer.precision

    @property
    def system(self) -> SystemConfig:
        """The system configuration the engine beamforms for."""
        return self.beamformer.system

    @property
    def quantization(self) -> QuantizationSpec | None:
        """The bit-true datapath spec, or ``None`` for float execution."""
        return self.beamformer.quantization

    @property
    def firing_count(self) -> int:
        """Number of transmit events (channel-data frames per volume)."""
        return self.scheme.firing_count

    # ------------------------------------------------------------ acquire
    def acquire(self, phantom: Phantom, noise_std: float = 0.0,
                seed: int = 0) -> list[ChannelData]:
        """Simulate the scheme's firings for one frame with the engine's
        simulator (see :func:`acquire_firings`)."""
        if self.simulator is None:
            raise ValueError(
                "this engine has no echo simulator; build it with "
                "EngineSpec.build_engine to acquire phantoms")
        return acquire_firings(self.simulator, self.scheme, phantom,
                               noise_std=noise_std, seed=seed)

    def _check_firings(self, firings: Sequence[ChannelData],
                       frame: Any) -> None:
        if len(firings) != self.firing_count:
            raise ValueError(
                f"scheme {self.scheme.name!r} expects "
                f"{self.firing_count} firing(s) per frame, got "
                f"{len(firings)}")
        require_finite(firings, frame, self.precision.dtype)

    # ------------------------------------------------------------ execute
    def beamform_volume(self, firings: Sequence[ChannelData],
                        frame_id: Any = 0) -> np.ndarray:
        """Coherently compound one frame's firings into an RF volume: the
        one-frame :meth:`beamform_batch`, so a frame with a non-finite
        sample is refused named by ``frame_id``."""
        return self.beamform_batch([firings], [frame_id])[0]

    def beamform_batch(self, frames: Sequence[Sequence[ChannelData]],
                       frame_ids: Sequence[Any] | None = None
                       ) -> np.ndarray:
        """Compound a cine batch, shape ``(n_frames, n_theta, n_phi, n_depth)``.

        Each firing index is batched across frames on its own backend
        (one stacked gather per event) and the per-event volumes are
        summed in event order, tile by tile on a plan-backed backend — the
        same per-voxel addition order for any batch, so batching never
        changes the bits.  A frame with a non-finite sample
        refuses the batch, named by its ``frame_ids`` entry (default: its
        position in the batch).
        """
        if len(frames) == 0:
            grid_shape = self.beamformer.grid.shape
            return np.empty((0, *grid_shape), dtype=self.precision.dtype)
        if frame_ids is None:
            frame_ids = range(len(frames))
        for firings, frame_id in zip(frames, frame_ids):
            self._check_firings(firings, frame_id)
        # A trivial scheme has nothing to compound.
        span = self.tracer.span("compound", firings=self.firing_count,
                                frames=len(frames)) \
            if self._compounds else nullcontext()
        with span:
            return self.backends[0].compound(
                self.backends, [[firings[index] for firings in frames]
                                for index in range(self.firing_count)])
