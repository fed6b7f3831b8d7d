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

A NumPy backend runs a frame's tiles on the calling thread, the ones its
cache still holds first; frames run in parallel on the worker pool of
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
from ..beamformer.drivers import reconstruct_scanline_order
from ..kernels import Precision, compile_plans, plan_key
from ..kernels.compiled import (
    BackendUnavailable as BackendUnavailable,  # re-exported for callers
    CompiledOptions,
    numba_available,
    require_numba,
)
from ..kernels.ops import coerce_samples, pad_frames
from ..kernels.plan import leaf_ordered, check_finite
from ..kernels.tiling import Tile, TilePlanner
from ..observability.tracing import resolve_tracer
from ..registry import Registry
from .cache import PlanCache


class ExecutionBackend:
    """Common interface: beamform frames of channel data into volumes.

    Parameters
    ----------
    beamformer:
        The configured delay-and-sum beamformer (supplies grid, provider,
        apodization, interpolation, precision and quantisation settings).
    tracer:
        Optional :class:`repro.observability.Tracer` the backend's spans
        are recorded in; ``None`` resolves to the process default
        (normally a no-op).
    """

    name: str = "abstract"

    def __init__(self, beamformer: DelayAndSumBeamformer, *,
                 tracer=None) -> None:
        self.beamformer = beamformer
        self.tracer = resolve_tracer(tracer)

    @property
    def precision(self) -> Precision:
        """Execution dtype policy: the beamformer's (see
        :class:`repro.kernels.Precision`)."""
        return self.beamformer.precision

    def beamform_volume(self, channel_data: ChannelData) -> np.ndarray:
        """Beamformed RF volume, shape ``(n_theta, n_phi, n_depth)``: the
        one-frame :meth:`beamform_batch`."""
        return self.beamform_batch([channel_data])[0]

    def beamform_batch(self, frames: Sequence[ChannelData]) -> np.ndarray:
        """Beamform a cine batch; shape ``(n_frames, n_theta, n_phi, n_depth)``.

        The one execution entry every backend implements.
        """
        raise NotImplementedError

    def compound(self, backends: Sequence["ExecutionBackend"],
                 firings: Sequence[Sequence[ChannelData]]) -> np.ndarray:
        """A scheme's volumes, ``(n_frames, n_theta, n_phi, n_depth)``:
        ``backends[i]`` (``self`` first, sharing its class, tracer, tiling
        and cache) beamforms ``firings[i]``, its firing's frames, and the
        volumes are summed in firing order."""
        volumes = backends[0].beamform_batch(firings[0])
        for backend, frames in zip(backends[1:], firings[1:]):
            volumes += backend.beamform_batch(frames)
        return volumes


class ReferenceBackend(ExecutionBackend):
    """Per-scanline loop through the classic delay-and-sum path.

    Delays and weights are regenerated for every scanline of every frame
    and consumed by the *uncompiled* kernel entry point — deliberately no
    plan, no cache and no tiling: this is the baseline the compiled
    backends are measured against (and the oracle they are verified
    against).  Its loop already streams one scanline of delays at a time,
    the floor of any memory budget.
    """

    name = "reference"

    def beamform_batch(self, frames: Sequence[ChannelData]) -> np.ndarray:
        beamformer = self.beamformer
        n_theta, n_phi, _ = beamformer.grid.shape
        out = np.empty((len(frames), *beamformer.grid.shape),
                       dtype=self.precision.dtype)
        for i, channel_data in enumerate(frames):
            # Cast (or quantise) the echo buffer once per volume, not once
            # per scanline — otherwise the float32 baseline pays a
            # full-buffer copy per scanline and benchmarks slower than
            # float64.  Re-coercing the coerced buffer inside the scanline
            # kernel is the identity, so the hoisting is invisible
            # numerically.
            frame = ChannelData(
                coerce_samples(channel_data, self.precision.dtype,
                               beamformer.quantization),
                beamformer.system.acoustic.sampling_frequency)
            with self.tracer.span("execute", scanlines=n_theta * n_phi,
                                  frames=1):
                out[i] = reconstruct_scanline_order(beamformer, frame).rf
        return out


class VectorizedBackend(ExecutionBackend):
    """Batched gather/sum over a compiled plan's tile segments.

    Each call runs one loop over the planner's tiles, the cached ones
    first (:meth:`_run_tiles`): fetch the tile's segment plans from the
    cache (compiling them on a miss, under a ``compile`` span), execute
    them on the whole batch, and write their rows into the output array —
    one ``tile`` span per tile, all under one ``execute`` span.  A
    transmit scheme's firings share the loop (:meth:`compound`).

    Parameters
    ----------
    beamformer:
        As for :class:`ExecutionBackend`.
    planner:
        The :class:`repro.kernels.tiling.TilePlanner` of the beamformer's
        grid: budget-sized tiles, or one tile without a budget.
    cache:
        Optional shared :class:`PlanCache` the tile segments live in; the
        hit/miss counters then record that repeated frames skip plan
        compilation.  Without one the backend keeps a private cache with a
        slot per tile, bounded by the planner's budget.
    tracer:
        As for :class:`ExecutionBackend`.
    """

    name = "vectorized"
    variant: str | None = None
    """Plan family of the segments (``None``: the NumPy plan)."""
    options: CompiledOptions | None = None
    """Launch options of ``compiled`` segments."""

    def __init__(self, beamformer: DelayAndSumBeamformer,
                 planner: TilePlanner, cache: PlanCache | None = None, *,
                 tracer=None) -> None:
        super().__init__(beamformer, tracer=tracer)
        self.planner = planner
        self.cache = cache if cache is not None else PlanCache(
            capacity=planner.n_tiles, max_bytes=planner.memory_budget_bytes)
        # Compiled segments take the options per execute call too: a
        # cached segment may have been built by a backend launching with
        # other threads/block size.
        self._launch = {} if self.options is None \
            else {"options": self.options}
        key_variant = None if self.options is None else self.options.variant()
        # CSR segments skip zero-weight terms, exact only for finite samples.
        self._finite_only = leaf_ordered(beamformer.interpolation,
                                         beamformer.quantization,
                                         self.variant)
        # Keyed once per tile, not per lookup: a key hashes the whole
        # system config, a per-tile cost on every frame otherwise.
        self._tile_keys = [plan_key(beamformer, self.precision,
                                    variant=key_variant, tile=tile)
                           for tile in planner.tiles()]

    # ------------------------------------------------------------ execution
    def segment(self, tile: Tile):
        """This backend's segment plan for one tile (cached; built on a
        miss)."""
        return self._segments([self], tile)[0]

    @staticmethod
    def _entry_key(backends: Sequence["VectorizedBackend"], tile: Tile):
        """The cache key of a tile's entry: one backend's plan key, else
        the tuple of every firing's."""
        keys = tuple(backend._tile_keys[tile.index] for backend in backends)
        return keys[0] if len(keys) == 1 else keys

    def _segments(self, backends: Sequence["VectorizedBackend"],
                  tile: Tile) -> tuple:
        """Every backend's segment plan for one tile: one cache entry (one
        backend's plan under its own key, else the tuple of F plans),
        built on a miss by one :func:`~repro.kernels.plan.compile_plans`
        pass under one ``compile`` span."""
        one = len(backends) == 1

        def build():
            with self.tracer.span("compile") as span:
                plans = compile_plans(
                    [backend.beamformer for backend in backends],
                    self.precision, variant=self.variant, tile=tile,
                    **self._launch)
                span.set(bytes=sum(int(plan.nbytes) for plan in plans),
                         points=tile.n_points,
                         elements=self.planner.n_elements, tile=tile.index)
                if not one:
                    span.set(firings=len(plans))
            return plans[0] if one else tuple(plans)

        entry = self.cache.get_or_build(
            self._entry_key(backends, tile), build, plans=len(backends),
            size_hint=len(backends) * self.planner.tile_nbytes(tile))
        return (entry,) if one else entry

    def beamform_batch(self, frames: Sequence[ChannelData]) -> np.ndarray:
        """A backend used directly is its own boundary: CSR segments refuse
        a non-finite sample (:func:`~repro.kernels.plan.check_finite`), one
        scan per frame."""
        if self._finite_only:
            check_finite(frames, self.precision.dtype)
        return self.compound([self], [frames])

    def compound(self, backends: Sequence["ExecutionBackend"],
                 firings: Sequence[Sequence[ChannelData]]) -> np.ndarray:
        """Tile-major, under one ``execute`` span: per tile, one lookup
        fetches every firing's segment (:meth:`_segments`), and each adds
        its firing's rows in firing order — the float adds of summing
        per-firing volumes, bit for bit.  A standalone backend's
        :meth:`beamform_batch` is the one-firing case.  The caller has
        refused non-finite frames (the scheme engine, or
        :meth:`beamform_batch`): nothing here scans them again."""
        with self.tracer.span("execute", tiles=self.planner.n_tiles,
                              frames=len(firings[0])):
            return self._run_tiles(backends, firings)

    def _run_tiles(self, backends: Sequence["VectorizedBackend"],
                   firings: Sequence[Sequence[ChannelData]]) -> np.ndarray:
        """Beamform frames tile by tile; ``(n_frames, *grid_shape)``.

        With more than one tile, the tiles whose entry the cache already
        holds run first, then the rest, each in index order: the held
        entries are looked up before a miss can evict them, so a call hits
        every tile the previous one left resident, where a fixed 0…n−1
        sweep would evict each before its turn (the cyclic scan that
        defeats LRU).  Each tile writes its own rows and adds firings in
        firing order, so the run order leaves every volume bit for bit.

        Each segment executes a firing's whole batch, read through one
        :class:`~repro.kernels.ops.PaddedFrames` per firing and call
        (:func:`~repro.kernels.ops.pad_frames`), made once its firing's
        first segment is in hand.  A CSR segment reads a batch whose frames
        all lie in their padded vectors in place, so simulated frames are
        never copied; any other batch, and every chunked segment's batch,
        is copied into one interleaved buffer when first read and kept for
        the other tiles, so each frame is copied once per call.  The
        frames are dropped after the last tile run.
        """
        grid_shape = self.beamformer.grid.shape
        dtype = self.precision.dtype
        n_frames = len(firings[0])
        if n_frames == 0:
            return np.empty((0, *grid_shape), dtype=dtype)
        planner = self.planner
        tiles = planner.tiles()
        if len(tiles) > 1:
            # ``in`` counts no hit and leaves the LRU order alone.
            # A stable sort: held tiles first, each part in index order.
            held = [self._entry_key(backends, tile) in self.cache
                    for tile in tiles]
            tiles = sorted(tiles, key=lambda tile: not held[tile.index])
        out = np.empty((n_frames, planner.n_points), dtype=dtype)
        padded: list = [None] * len(backends)
        for tile in tiles:
            last = tile is tiles[-1]
            with self.tracer.span("tile", index=tile.index,
                                  tiles=planner.n_tiles,
                                  points=tile.n_points) as span:
                segments = self._segments(backends, tile)
                span.set(bytes=sum(int(segment.nbytes)
                                   for segment in segments))
                for firing, segment in enumerate(segments):
                    if padded[firing] is None:
                        padded[firing] = pad_frames(
                            firings[firing], dtype,
                            self.beamformer.quantization,
                            (planner.n_elements,
                             self.beamformer.system.echo_buffer_samples))
                    rows = segment.execute_padded(
                        padded[firing], tracer=self.tracer, **self._launch)
                    if firing:
                        out[:, tile.rows] += rows
                    else:
                        out[:, tile.rows] = rows
                    if last:
                        padded[firing] = None
            # Held no longer than the cache holds them: an evicted segment
            # must be freed before the next tile's segments are built.
            del segments, segment
        return out.reshape((n_frames, *grid_shape))


class CompiledBackend(VectorizedBackend):
    """Fused Numba-jitted gather/weight/sum over parallel voxel blocks.

    Executes :class:`repro.kernels.compiled.CompiledPlan` segments — the same
    delay/weight/index tensors as the NumPy plan, consumed by a single
    fused pass per focal point with no intermediate
    ``(n_points, n_elements)`` arrays, ``prange``-parallel over voxel
    blocks.  Float64 volumes match the NumPy backends within the pinned
    summation-order tolerance (:data:`repro.kernels.TOLERANCES`
    ``float64`` row); see ``docs/kernels.md`` for the bit-identity stance.
    The launch options join the segment keys: a cache shared with NumPy
    backends never serves this backend a plain
    :class:`~repro.kernels.BeamformingPlan` (or a fastmath plan where
    strict math was requested).

    Requires the optional ``numba`` package: construction raises
    :class:`repro.kernels.compiled.BackendUnavailable` without it, and
    rejects quantized engines explicitly (the bit-true fixed-point
    datapath stays on the NumPy plan).  JIT warm-up happens inside the
    backend's ``compile`` span, so traces attribute it to compile time and
    a shared :class:`PlanCache` amortises it across services.
    """

    name = "compiled"
    variant = "compiled"

    def __init__(self, beamformer: DelayAndSumBeamformer,
                 planner: TilePlanner, cache: PlanCache | None = None, *,
                 options: CompiledOptions | None = None,
                 tracer=None) -> None:
        if beamformer.quantization is not None:
            # Checked before the numba gate so the error is about the real
            # incompatibility even on numba-free hosts.
            raise ValueError(
                "the 'compiled' backend does not support quantized "
                "execution: the bit-true fixed-point rounding stages run "
                "on the NumPy plan only — use the 'vectorized' backend "
                "for quantized engines")
        require_numba()
        self.options = options if options is not None else CompiledOptions()
        super().__init__(beamformer, planner, cache, tracer=tracer)


BACKENDS = Registry("backend")
"""Registry of execution backends (factory:
``(beamformer, cache, memory_budget_bytes, options, *, tracer)``;
the plan-backed factories turn the budget into the backend's
:class:`~repro.kernels.tiling.TilePlanner`)."""


@BACKENDS.register(
    "reference",
    description="per-scanline classic delay-and-sum loop (ground truth)")
def _build_reference(beamformer: DelayAndSumBeamformer,
                     cache: PlanCache | None,
                     memory_budget_bytes: int | str | None,
                     options: None, *, tracer=None) -> ReferenceBackend:
    return ReferenceBackend(beamformer, tracer=tracer)


@BACKENDS.register(
    "vectorized",
    description="whole-volume batched gather/sum over a compiled plan")
def _build_vectorized(beamformer: DelayAndSumBeamformer,
                      cache: PlanCache | None,
                      memory_budget_bytes: int | str | None,
                      options: None, *, tracer=None) -> VectorizedBackend:
    return VectorizedBackend(
        beamformer, TilePlanner.for_beamformer(beamformer,
                                               memory_budget_bytes),
        cache, tracer=tracer)


@BACKENDS.register(
    "compiled", options=CompiledOptions,
    description="fused numba-jitted gather/weight/sum over parallel voxel "
                "blocks"
                + ("" if numba_available()
                   else " (unavailable: numba is not installed)"))
def _build_compiled(beamformer: DelayAndSumBeamformer,
                    cache: PlanCache | None,
                    memory_budget_bytes: int | str | None,
                    options: CompiledOptions, *, tracer=None
                    ) -> CompiledBackend:
    # Natural-order segments: no CSR row pointers to budget for.
    return CompiledBackend(
        beamformer, TilePlanner.for_beamformer(beamformer,
                                               memory_budget_bytes,
                                               variant="compiled"),
        cache, options=options, tracer=tracer)


BACKEND_NAMES: tuple[str, ...] = BACKENDS.names()
"""Built-in backend names (snapshot; prefer ``BACKENDS.names()``)."""
