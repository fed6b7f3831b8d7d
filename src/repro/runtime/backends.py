"""Pluggable execution backends over the unified kernel layer.

The paper's hardware argument — that throughput is decided by how delays are
*produced and consumed*, not by the sum itself — has a direct software
analogue: the per-scanline reference path spends almost all of its time
regenerating delays and weights, while a compiled
:class:`repro.kernels.BeamformingPlan` reuses them for every frame and is
limited only by the echo-buffer gather.  Three backends make that trade-off
explicit; all of them execute through :mod:`repro.kernels`, so the math is
written exactly once:

``reference``
    Per-scanline loop that regenerates delays and weights every volume and
    feeds them to the uncompiled :func:`repro.kernels.delay_and_sum` kernel.
    Ground truth and baseline for the throughput experiments.

``vectorized``
    Compiles the plan once per ``(SystemConfig, architecture, apodization,
    interpolation, precision)`` — optionally through a shared
    :class:`repro.runtime.cache.PlanCache` — and beamforms whole volumes
    (or stacked multi-frame batches) with one batched gather/sum per tile:
    one tile without a memory budget, budget-sized tiles under one.

``compiled``
    The same tiles executed by fused Numba kernels (optional dependency).

A NumPy backend runs a frame's tiles in order on the calling thread;
frames run in parallel on the worker pool of
:class:`repro.server.BeamformingServer` (``docs/runtime.md``, "One level
of parallelism").

The NumPy backends produce identical volumes at ``float64``; under
``float32`` they match the ``float64`` reference within the pinned
:data:`repro.kernels.TOLERANCES`.  Both pins live in
``tests/test_runtime_backends.py`` and ``tests/test_kernels.py``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..acoustics.echo import ChannelData
from ..beamformer.das import DelayAndSumBeamformer
from ..kernels import Precision, delay_and_sum, resolve_precision
from ..kernels.compiled import (
    BackendUnavailable as BackendUnavailable,  # re-exported for callers
    CompiledOptions,
    numba_available,
    require_numba,
)
from ..kernels.ops import coerce_samples
from ..kernels.tiling import TiledPlan, TilePlanner, parse_memory_budget
from ..observability.tracing import resolve_tracer
from ..registry import Registry
from .cache import PlanCache


class ExecutionBackend:
    """Common interface: beamform frames of channel data into volumes.

    Parameters
    ----------
    beamformer:
        The configured delay-and-sum beamformer (supplies grid, provider,
        apodization and interpolation settings).
    cache:
        Optional shared :class:`PlanCache`.  Without one the backend still
        memoises its own compiled plan for the lifetime of the instance.
    precision:
        Execution dtype policy (``float64`` default; see
        :class:`repro.kernels.Precision`).
    """

    name: str = "abstract"

    def __init__(self, beamformer: DelayAndSumBeamformer,
                 cache: PlanCache | None = None,
                 precision: Precision | str | None = None,
                 tracer=None) -> None:
        self.beamformer = beamformer
        self.cache = cache
        self.precision = resolve_precision(precision)
        # Mutable on purpose: repro.scenarios.SchemeEngine builds backends
        # through the BACKENDS registry and attaches its tracer afterwards.
        self.tracer = resolve_tracer(tracer)
        quantization = getattr(beamformer, "quantization", None)
        if quantization is not None:
            # Every backend (including the plan-less reference loop, whose
            # output array is allocated in the execution dtype) would
            # silently truncate the exact fixed-point codes under float32.
            quantization.validate_for(self.precision,
                                      beamformer.interpolation)
        self.memory_budget_bytes: int | None = None
        self._planner = self._plan_tiles(None)
        self._tiled: TiledPlan | None = None

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Drop the privately memoised plan; idempotent.

        A shared cache's entries belong to the cache.  A closed backend
        may be used again — the plan is rebuilt lazily.
        """
        self._tiled = None

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------- memory budget
    def set_memory_budget(self, memory_budget_bytes: int | str | None
                          ) -> None:
        """Cap this backend's plan memory; ``None`` removes the cap.

        Builds the :class:`repro.kernels.tiling.TilePlanner` for the
        engine's grid/channels/precision immediately — a budget too small
        to hold one scanline is rejected right here with an actionable
        :class:`ValueError`, not at first frame.  Without a budget the
        planner has one tile.  A shared
        :class:`PlanCache` is tightened to the same byte bound so resident
        plans can never exceed it either.

        The ``reference`` backend inherits the same validation but needs no
        tiling: its per-scanline loop already streams one scanline of
        delays at a time (the budget floor).
        """
        budget = None if memory_budget_bytes is None \
            else parse_memory_budget(memory_budget_bytes)
        self._planner = self._plan_tiles(budget)
        self.memory_budget_bytes = budget
        self._tiled = None
        if budget is not None and self.cache is not None:
            self.cache.limit_bytes(budget)

    def _plan_tiles(self, budget: int | None) -> TilePlanner:
        """The tiling for ``budget``."""
        return TilePlanner.for_beamformer(self.beamformer, budget,
                                          precision=self.precision)

    @property
    def plan_slots(self) -> int:
        """Plan-cache entries one frame uses: one per tile."""
        return self._planner.n_tiles

    def _build_tiled(self) -> TiledPlan:
        """Build the tiled plan — variant backends override."""
        return TiledPlan(self.beamformer, self._planner, self.precision,
                         cache=self.cache)

    def plan(self) -> TiledPlan:
        """The :class:`~repro.kernels.tiling.TiledPlan` for this engine.

        Its tile segments are compiled on first use, through the shared
        cache when one is attached — the hit/miss counters then directly
        record that repeated frames skip plan compilation, and a ``compile``
        span is opened only when a segment is actually built.  The shell
        is memoised privately (only its segments live in the shared cache;
        caching the shell too would double-count the bytes).
        """
        if self._tiled is None:
            self._tiled = self._build_tiled()
        return self._tiled

    def beamform_volume(self, channel_data: ChannelData) -> np.ndarray:
        """Beamformed RF volume, shape ``(n_theta, n_phi, n_depth)``."""
        raise NotImplementedError

    def beamform_batch(self, frames: Sequence[ChannelData]) -> np.ndarray:
        """Beamform a cine batch; shape ``(n_frames, n_theta, n_phi, n_depth)``.

        The default stacks per-frame results; plan-based backends override
        this with a genuinely batched gather.
        """
        grid_shape = self.beamformer.grid.shape
        out = np.empty((len(frames), *grid_shape), dtype=self.precision.dtype)
        for i, frame in enumerate(frames):
            out[i] = self.beamform_volume(frame)
        return out


class ReferenceBackend(ExecutionBackend):
    """Per-scanline loop through the classic delay-and-sum path.

    Delays and weights are regenerated for every scanline of every frame
    and consumed by the *uncompiled* kernel entry point — deliberately no
    plan, no cache: this is the baseline the compiled backends are measured
    against (and the oracle they are verified against).
    """

    name = "reference"

    def beamform_volume(self, channel_data: ChannelData) -> np.ndarray:
        beamformer = self.beamformer
        quantization = beamformer.quantization
        dtype = self.precision.dtype
        n_theta, n_phi, n_depth = beamformer.grid.shape
        rf = np.empty((n_theta, n_phi, n_depth), dtype=dtype)
        # Cast (or quantise) the echo buffer once per volume, not once per
        # scanline — otherwise the float32 baseline pays a full-buffer copy
        # per scanline and benchmarks slower than float64.  Re-coercing the
        # coerced buffer inside the scanline kernel is the identity, so the
        # hoisting is invisible numerically.
        samples = coerce_samples(channel_data, dtype, quantization)
        with self.tracer.span("execute", scanlines=n_theta * n_phi):
            for i_theta in range(n_theta):
                for i_phi in range(n_phi):
                    rf[i_theta, i_phi] = delay_and_sum(
                        samples,
                        beamformer.delays.scanline_delays_samples(
                            i_theta, i_phi),
                        beamformer.weights_for_scanline(i_theta, i_phi),
                        kind=beamformer.interpolation, dtype=dtype,
                        quantization=quantization)
        return rf


class VectorizedBackend(ExecutionBackend):
    """Batched gather/sum over the tiles of a compiled plan, in order."""

    name = "vectorized"

    def _execute_span(self, **attributes):
        """The ``execute`` span around one plan call."""
        return self.tracer.span("execute", tiles=self._planner.n_tiles,
                                **attributes)

    def beamform_volume(self, channel_data: ChannelData) -> np.ndarray:
        plan = self.plan()
        with self._execute_span():
            return plan.execute(channel_data, tracer=self.tracer)

    def beamform_batch(self, frames: Sequence[ChannelData]) -> np.ndarray:
        plan = self.plan()
        with self._execute_span(frames=len(frames)):
            return plan.execute_batch(frames, tracer=self.tracer)


class CompiledBackend(VectorizedBackend):
    """Fused Numba-jitted gather/weight/sum over parallel voxel blocks.

    Executes :class:`repro.kernels.compiled.CompiledPlan` segments — the same
    delay/weight/index tensors as the NumPy plan, consumed by a single
    fused pass per focal point with no intermediate
    ``(n_points, n_elements)`` arrays, ``prange``-parallel over voxel
    blocks.  Float64 volumes match the NumPy backends within the pinned
    summation-order tolerance (:data:`repro.kernels.TOLERANCES`
    ``float64`` row); see ``docs/kernels.md`` for the bit-identity stance.

    Requires the optional ``numba`` package: construction raises
    :class:`repro.kernels.compiled.BackendUnavailable` without it, and
    rejects quantized engines explicitly (the bit-true fixed-point
    datapath stays on the NumPy plan).  JIT warm-up happens inside the
    backend's ``compile`` span, so traces attribute it to compile time and
    a shared :class:`PlanCache` amortises it across services.
    """

    name = "compiled"

    def __init__(self, beamformer: DelayAndSumBeamformer,
                 cache: PlanCache | None = None,
                 precision: Precision | str | None = None,
                 options: CompiledOptions | None = None) -> None:
        if getattr(beamformer, "quantization", None) is not None:
            # Checked before the numba gate so the error is about the real
            # incompatibility even on numba-free hosts.
            raise ValueError(
                "the 'compiled' backend does not support quantized "
                "execution: the bit-true fixed-point rounding stages run "
                "on the NumPy plan only — use the 'vectorized' backend "
                "for quantized engines")
        require_numba()
        super().__init__(beamformer, cache=cache, precision=precision)
        self.options = options if options is not None else CompiledOptions()

    def _plan_tiles(self, budget: int | None) -> TilePlanner:
        # Natural-order segments: no CSR row pointers to budget for.
        return TilePlanner.for_beamformer(self.beamformer, budget,
                                          precision=self.precision,
                                          variant="compiled")

    def _build_tiled(self) -> TiledPlan:
        # The variant joins the segment keys: a cache shared with NumPy
        # backends never serves this backend a plain BeamformingPlan (or a
        # fastmath plan where strict math was requested).
        return TiledPlan(self.beamformer, self._planner, self.precision,
                         cache=self.cache, variant="compiled",
                         options=self.options)


BACKENDS = Registry("backend")
"""Registry of execution backends (factory:
``(beamformer, cache, precision, options)``)."""


@BACKENDS.register(
    "reference",
    description="per-scanline classic delay-and-sum loop (ground truth)")
def _build_reference(beamformer: DelayAndSumBeamformer,
                     cache: PlanCache | None,
                     precision: Precision | str | None,
                     options: None) -> ReferenceBackend:
    return ReferenceBackend(beamformer, precision=precision)


@BACKENDS.register(
    "vectorized",
    description="whole-volume batched gather/sum over a compiled plan")
def _build_vectorized(beamformer: DelayAndSumBeamformer,
                      cache: PlanCache | None,
                      precision: Precision | str | None,
                      options: None) -> VectorizedBackend:
    return VectorizedBackend(beamformer, cache=cache, precision=precision)


@BACKENDS.register(
    "compiled", options=CompiledOptions,
    description="fused numba-jitted gather/weight/sum over parallel voxel "
                "blocks"
                + ("" if numba_available()
                   else " (unavailable: numba is not installed)"))
def _build_compiled(beamformer: DelayAndSumBeamformer,
                    cache: PlanCache | None,
                    precision: Precision | str | None,
                    options: CompiledOptions) -> CompiledBackend:
    return CompiledBackend(beamformer, cache=cache, precision=precision,
                           options=options)


BACKEND_NAMES: tuple[str, ...] = BACKENDS.names()
"""Built-in backend names (snapshot; prefer ``BACKENDS.names()``)."""
