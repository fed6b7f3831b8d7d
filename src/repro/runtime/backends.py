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
    (or stacked multi-frame batches) with one batched gather/sum.

``sharded``
    The same plan executed over contiguous point blocks dispatched on a
    thread pool, modelling the paper's parallel delay-generation blocks
    (Fig. 4).

All three produce numerically identical volumes at ``float64``; under
``float32`` they match the ``float64`` reference within the pinned
:data:`repro.kernels.TOLERANCES`.  Both pins live in
``tests/test_runtime_backends.py`` and ``tests/test_kernels.py``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..acoustics.echo import ChannelData
from ..beamformer.das import DelayAndSumBeamformer
from ..kernels import (
    BeamformingPlan,
    Precision,
    compile_plan,
    delay_and_sum,
    plan_key,
    quantized_delay_and_sum,
    resolve_precision,
)
from ..kernels.compiled import (
    BackendUnavailable as BackendUnavailable,  # re-exported for callers
    CompiledOptions,
    numba_available,
    require_numba,
)
from ..kernels.plan import BATCH_BLOCK_ELEMENTS
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
        self._key = plan_key(beamformer, self.precision)
        self._plan: BeamformingPlan | None = None
        self.memory_budget_bytes: int | None = None
        self._planner = None
        self._tiled = None

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Release pooled resources; idempotent, safe on every backend.

        The base backends hold no pools, so this only drops the privately
        memoised plan (a shared cache's entries belong to the cache); the
        ``sharded`` backend additionally shuts its worker pool down.  A
        closed backend may be used again — pools are rebuilt lazily.
        """
        self._plan = None
        self._tiled = None

    # -------------------------------------------------------- memory budget
    def set_memory_budget(self, memory_budget_bytes: int | str | None
                          ) -> None:
        """Cap this backend's plan memory; ``None`` removes the cap.

        Builds the :class:`repro.kernels.tiling.TilePlanner` for the
        engine's grid/channels/precision immediately — a budget too small
        to hold one scanline is rejected right here with an actionable
        :class:`ValueError`, not at first frame.  When the planner needs
        more than one tile, :meth:`plan` hands out a streaming
        :class:`repro.kernels.tiling.TiledPlan` instead of the whole-grid
        plan; a budget large enough for the whole grid keeps the untiled
        fast path.  A shared :class:`PlanCache` is tightened to the same
        byte bound so resident plans can never exceed it either.

        The ``reference`` backend inherits the same validation but needs no
        tiling: its per-scanline loop already streams one scanline of
        delays at a time (the budget floor).
        """
        if memory_budget_bytes is None:
            self.memory_budget_bytes = None
            self._planner = None
            self._tiled = None
            return
        from ..kernels.tiling import TilePlanner, parse_memory_budget
        budget = parse_memory_budget(memory_budget_bytes)
        self._planner = TilePlanner.for_beamformer(
            self.beamformer, budget, precision=self.precision)
        self.memory_budget_bytes = budget
        self._tiled = None
        if self.cache is not None:
            self.cache.limit_bytes(budget)

    def _build_tiled(self, planner):
        """Build the tiled streaming plan — variant backends override."""
        from ..kernels.tiling import TiledPlan
        return TiledPlan(self.beamformer, planner, self.precision,
                         cache=self.cache)

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _compile_plan(self) -> BeamformingPlan:
        """Build the plan object — the hook plan-variant backends override.

        Runs inside the ``compile`` span opened by :meth:`_compile`, so
        whatever a variant's compilation costs (for ``compiled``: the Numba
        JIT warm-up) is attributed to compile time in traces.
        """
        return compile_plan(self.beamformer, self.precision)

    def _compile(self) -> BeamformingPlan:
        """Compile this backend's plan under a ``compile`` span."""
        with self.tracer.span("compile") as span:
            plan = self._compile_plan()
            span.set(bytes=int(plan.nbytes), points=plan.n_points,
                     elements=plan.n_elements)
        return plan

    def plan(self) -> BeamformingPlan:
        """The (possibly cached) compiled plan for this backend's engine.

        With a cache attached, every frame goes through the cache — the
        hit/miss counters then directly record that repeated frames from the
        same engine configuration skip plan compilation.  The ``compile``
        span is opened only when a plan is actually built, so a trace shows
        the compile cost exactly once per cache miss.

        Under a memory budget that the whole-grid plan would violate
        (:meth:`set_memory_budget`), a :class:`~repro.kernels.tiling.TiledPlan`
        is returned instead — same execute surface, segments streamed
        through the byte-budgeted cache.  The shell is memoised privately
        (only its segments live in the shared cache; caching the shell too
        would double-count the bytes).
        """
        if self._planner is not None and self._planner.n_tiles > 1:
            if self._tiled is None:
                self._tiled = self._build_tiled(self._planner)
            return self._tiled
        if self.cache is not None:
            return self.cache.get_or_build(self._key, self._compile)
        if self._plan is None:
            self._plan = self._compile()
        return self._plan

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
        quantization = getattr(beamformer, "quantization", None)
        n_theta, n_phi, n_depth = beamformer.grid.shape
        rf = np.empty((n_theta, n_phi, n_depth), dtype=self.precision.dtype)
        # Cast (or quantise) the echo buffer once per volume, not once per
        # scanline — otherwise the float32 baseline pays a full-buffer copy
        # per scanline and benchmarks slower than float64.  Re-quantising
        # the pre-quantised buffer inside the scanline kernel is the
        # identity, so the hoisting is invisible numerically.
        if quantization is not None:
            samples = quantization.quantize_samples(
                np.asarray(channel_data.samples, dtype=np.float64))
        else:
            samples = np.asarray(channel_data.samples,
                                 dtype=self.precision.dtype)
        with self.tracer.span("execute", scanlines=n_theta * n_phi):
            for i_theta in range(n_theta):
                for i_phi in range(n_phi):
                    delays = beamformer.delays.scanline_delays_samples(
                        i_theta, i_phi)
                    weights = beamformer.weights_for_scanline(i_theta, i_phi)
                    if quantization is not None:
                        rf[i_theta, i_phi] = quantized_delay_and_sum(
                            samples, delays, weights, quantization,
                            kind=beamformer.interpolation)
                    else:
                        rf[i_theta, i_phi] = delay_and_sum(
                            samples, delays, weights,
                            kind=beamformer.interpolation,
                            dtype=self.precision.dtype)
        return rf


class VectorizedBackend(ExecutionBackend):
    """Whole-volume batched gather/sum over a compiled plan."""

    name = "vectorized"

    def beamform_volume(self, channel_data: ChannelData) -> np.ndarray:
        plan = self.plan()
        with self.tracer.span("execute"):
            return plan.execute(channel_data, tracer=self.tracer)

    def beamform_batch(self, frames: Sequence[ChannelData]) -> np.ndarray:
        plan = self.plan()
        with self.tracer.span("execute", frames=len(frames)):
            return plan.execute_batch(frames, tracer=self.tracer)


class ShardedBackend(ExecutionBackend):
    """Plan execution over point blocks dispatched on a thread pool.

    The focal grid is split into ``shards`` contiguous point blocks; each
    worker gathers and sums its block independently (NumPy releases the GIL
    inside the heavy kernels).  Per-row arithmetic is identical to the
    vectorized backend — both run :meth:`BeamformingPlan.execute_rows`
    slices of the same plan — so the volumes match exactly.  Worker
    exceptions propagate to the caller; a failed shard never hangs the pool.

    The thread pool is created lazily on the first volume and *reused for
    every later one* (spinning a pool up per frame cost more than a tiny
    frame's beamforming, and the historical per-call pool leaked worker
    threads when a frame errored mid-map).  It is released by
    :meth:`close` — the backend is a context manager — and as a backstop by
    garbage collection.
    """

    name = "sharded"

    def __init__(self, beamformer: DelayAndSumBeamformer,
                 cache: PlanCache | None = None,
                 precision: Precision | str | None = None,
                 shards: int | None = None,
                 max_workers: int | None = None) -> None:
        super().__init__(beamformer, cache=cache, precision=precision)
        self.shards = shards or min(8, os.cpu_count() or 1)
        self.max_workers = max_workers or min(4, os.cpu_count() or 1)
        self._pool: ThreadPoolExecutor | None = None

    def _executor(self) -> ThreadPoolExecutor:
        """The persistent worker pool, created on first use."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers,
                thread_name_prefix="repro-sharded")
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (and drop the memoised plan).

        Idempotent; a later :meth:`beamform_volume` simply rebuilds the
        pool.  ``wait=True`` so no worker still holds a slice of a caller's
        output array when this returns.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        super().close()

    def __del__(self) -> None:  # pragma: no cover - GC-timing dependent
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False)

    def _blocks(self, n_points: int, n_frames: int = 1) -> list[slice]:
        """Split ``n_points`` into at least ``shards`` non-empty blocks.

        More shards than points simply yields one block per point.  For
        batched execution the split additionally honours the
        :data:`repro.kernels.plan.BATCH_BLOCK_ELEMENTS` cache bound — a
        worker gathering ``n_frames`` frames of a wide block at once would
        otherwise materialise out-of-cache temporaries and run slower than
        the per-frame path.
        """
        n_blocks = self.shards
        cap = max(1, BATCH_BLOCK_ELEMENTS
                  // max(1, n_frames * self.beamformer.transducer.element_count))
        n_blocks = max(n_blocks, -(-n_points // cap))
        bounds = np.linspace(0, n_points, n_blocks + 1).astype(int)
        return [slice(int(lo), int(hi))
                for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]

    def _execute_rows(self, plan: BeamformingPlan, channel_data,
                      rows: slice) -> np.ndarray:
        """One worker's unit of work (separate method so tests can fault it).

        Workers run on pool threads, so their gather/weights/accumulate
        spans land on per-thread stacks and surface as additional tracer
        roots rather than children of the backend's ``execute`` span.
        """
        return plan.execute_rows(channel_data, rows, tracer=self.tracer)

    def _run_sharded(self, plan: BeamformingPlan, samples: np.ndarray,
                     out: np.ndarray, n_frames: int = 1) -> None:
        """Fill ``out[..., rows]`` per block on the pool, propagating errors."""
        def work(rows: slice) -> None:
            out[..., rows] = self._execute_rows(plan, samples, rows)

        blocks = self._blocks(plan.n_points, n_frames)
        with self.tracer.span("execute", shards=len(blocks),
                              workers=self.max_workers):
            # list() drains the iterator so worker exceptions re-raise
            # here instead of being swallowed with the discarded futures.
            list(self._executor().map(work, blocks))

    def beamform_volume(self, channel_data: ChannelData) -> np.ndarray:
        plan = self.plan()
        out = np.empty(plan.n_points, dtype=plan.dtype)
        # Coerce once here, not once per shard inside execute_rows.
        self._run_sharded(plan, plan.coerce_samples(channel_data), out)
        return out.reshape(plan.grid_shape)

    def beamform_batch(self, frames: Sequence[ChannelData]) -> np.ndarray:
        plan = self.plan()
        if len(frames) == 0:
            return np.empty((0, *plan.grid_shape), dtype=plan.dtype)
        stacked = np.stack([plan.coerce_samples(f) for f in frames])
        out = np.empty((len(frames), plan.n_points), dtype=plan.dtype)
        self._run_sharded(plan, stacked, out, n_frames=len(frames))
        return out.reshape((len(frames), *plan.grid_shape))


@dataclass(frozen=True)
class ShardedOptions:
    """Options for the ``sharded`` backend (``None`` means auto-size)."""

    shards: int | None = None
    """Number of contiguous point blocks the grid is split into."""

    max_workers: int | None = None
    """Thread-pool size used to dispatch the blocks."""


class CompiledBackend(ExecutionBackend):
    """Fused Numba-jitted gather/weight/sum over parallel voxel blocks.

    Executes a :class:`repro.kernels.compiled.CompiledPlan` — the same
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
                "on the NumPy plan only — use the 'vectorized' or "
                "'sharded' backend for quantized engines")
        require_numba()
        super().__init__(beamformer, cache=cache, precision=precision)
        self.options = options if options is not None else CompiledOptions()
        # Variant-extended key: a cache shared with NumPy backends must
        # never serve this backend a plain BeamformingPlan (or serve a
        # fastmath plan where strict math was requested).
        self._key = plan_key(beamformer, self.precision,
                             variant=self.options.variant())

    def _compile_plan(self) -> BeamformingPlan:
        return compile_plan(self.beamformer, self.precision,
                            variant="compiled", options=self.options)

    def _build_tiled(self, planner):
        from ..kernels.tiling import TiledPlan
        return TiledPlan(self.beamformer, planner, self.precision,
                         cache=self.cache, variant="compiled",
                         options=self.options)

    def beamform_volume(self, channel_data: ChannelData) -> np.ndarray:
        plan = self.plan()
        with self.tracer.span("execute"):
            return plan.execute(channel_data, tracer=self.tracer,
                                options=self.options)

    def beamform_batch(self, frames: Sequence[ChannelData]) -> np.ndarray:
        plan = self.plan()
        with self.tracer.span("execute", frames=len(frames)):
            return plan.execute_batch(frames, tracer=self.tracer,
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
    "sharded", options=ShardedOptions,
    description="compiled plan over point blocks on a thread pool")
def _build_sharded(beamformer: DelayAndSumBeamformer,
                   cache: PlanCache | None,
                   precision: Precision | str | None,
                   options: ShardedOptions) -> ShardedBackend:
    return ShardedBackend(beamformer, cache=cache, precision=precision,
                          shards=options.shards,
                          max_workers=options.max_workers)


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
