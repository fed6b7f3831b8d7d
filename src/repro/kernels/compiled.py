"""Fused, Numba-compiled execution of a :class:`BeamformingPlan`.

The NumPy plan executes Eq. 1 as three array passes — gather, weight,
accumulate — each materialising a full ``(n_points, n_elements)``
intermediate.  At paper scale that is gigabytes of memory traffic per frame
for arithmetic that a CPU core could stream through registers.  This module
is the native-speed datapath ROADMAP item #1 asks for: a single fused pass
per focal point (gather -> weight -> accumulate with **no** intermediate
arrays), JIT-compiled with Numba and parallelised with ``prange`` over
contiguous voxel blocks.

Layering
--------
The kernel bodies (:func:`_fused_nearest_frame` and friends) are plain
module-level Python functions over the same precompiled
:class:`repro.kernels.ops.GatherIndex` tensors the NumPy plan uses.  They
are jitted lazily, per ``fastmath`` flag, on first use — so importing this
module never imports ``numba`` and the rest of the library works untouched
on a numba-free interpreter.  Building the ``compiled`` backend without
numba raises :class:`BackendUnavailable` (a :class:`ValueError`, so the CLI
error paths exit 2 like every other bad engine spec).  The un-jitted bodies
remain callable pure-Python functions, which is how the numba-free test leg
pins their numerics against the NumPy plan.

Bit-identity stance
-------------------
Per (focal point, element) the fused kernel performs *exactly* the scalar
operations of the NumPy path, in the same order — invalid fetches contribute
a true zero, linear interpolation is ``(1-f)*below + f*above`` in the
execution dtype.  The one difference is summation order across the element
axis: ``np.sum`` uses a pairwise reduction whose exact association is a
build/SIMD-width detail of NumPy itself, so no independent implementation
can promise bit-identity across machines.  The fused kernels instead pin
NumPy's *scalar* pairwise base case (8 interleaved partial sums, combined
pairwise) for any element count — deterministic everywhere, and within the
pinned :data:`repro.kernels.precision.TOLERANCES` ``float64`` row (whose
1e-9-of-peak allowance exists precisely to absorb summation-order noise; in
practice the volumes agree to ~1e-13 of peak).  ``fastmath=True`` lets LLVM
reassociate that sum for SIMD speed and therefore *forfeits* the tolerance
pin — it is off by default and plans built with it get their own cache key.

The quantized datapath (:class:`repro.kernels.quantized.QuantizedPlan`)
stays on the NumPy plan; the ``compiled`` backend rejects quantized engines
explicitly rather than silently skipping the per-element rounding stages.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..observability.tracing import resolve_tracer
from ..registry import RegistryError
from .plan import BeamformingPlan, compile_plan, plan_key
from .precision import Precision, resolve_precision

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..acoustics.echo import ChannelData
    from ..beamformer.das import DelayAndSumBeamformer

__all__ = [
    "BackendUnavailable",
    "CompiledOptions",
    "CompiledPlan",
    "compile_compiled_plan",
    "numba_available",
]


DEFAULT_BLOCK_POINTS = 1024
"""Default voxel-block size of the ``prange`` work decomposition: small
enough to load-balance tiny grids across cores, large enough that the
per-block scheduling cost is noise."""


def numba_available() -> bool:
    """Whether the ``numba`` package is importable (checked without
    importing it — a numba import costs seconds and is deferred to the
    first actual kernel build)."""
    return importlib.util.find_spec("numba") is not None


NUMBA_AVAILABLE: bool = numba_available()
"""Import-time snapshot of :func:`numba_available`.  Tests monkeypatch this
to pin the unavailable-backend error path on any environment."""


class BackendUnavailable(RegistryError):
    """A registered backend's native dependency is missing.

    Subclasses :class:`repro.registry.RegistryError` (a ``ValueError``), so
    every caller that already turns bad engine specs into clean errors — the
    CLI's exit-code-2 paths, ``EngineSpec`` validation, server session
    setup — handles a missing JIT the same way as an unknown backend name.
    """


def require_numba() -> None:
    """Raise :class:`BackendUnavailable` unless numba can be imported."""
    if not NUMBA_AVAILABLE:
        raise BackendUnavailable(
            "the 'compiled' backend requires the optional 'numba' package, "
            "which is not installed in this environment; install it with "
            "'pip install numba' or select one of the NumPy backends "
            "(vectorized, sharded) instead")


@dataclass(frozen=True)
class CompiledOptions:
    """Options for the ``compiled`` backend (``None`` means auto-size).

    ``threads`` caps the Numba thread pool for this backend's kernels (the
    setting is process-global at launch time, as numba's is); ``block_size``
    is the number of focal points per ``prange`` work item; ``fastmath``
    lets LLVM reassociate the element sum — faster, but it abandons the
    pinned float64 tolerance row, so it defaults to off and is part of the
    plan cache key.
    """

    threads: int | None = None
    """Numba thread count for kernel launches (default: numba's own)."""

    block_size: int | None = None
    """Focal points per parallel voxel block (default
    :data:`DEFAULT_BLOCK_POINTS`)."""

    fastmath: bool = False
    """Allow LLVM to reassociate the element sum (forfeits the pinned
    float64 summation tolerance; off by default)."""

    def __post_init__(self) -> None:
        if self.threads is not None and int(self.threads) < 1:
            raise ValueError(f"threads must be >= 1, got {self.threads}")
        if self.block_size is not None and int(self.block_size) < 1:
            raise ValueError(
                f"block_size must be >= 1, got {self.block_size}")

    def variant(self) -> tuple:
        """The plan-key component for plans built under these options.

        Only ``fastmath`` changes the arithmetic; ``threads``/``block_size``
        are launch-time knobs passed per call, so backends differing only in
        them can share one compiled plan.
        """
        return ("compiled", bool(self.fastmath))


# --------------------------------------------------------------------------
# Fused kernel bodies.
#
# Plain module-level functions (jitted lazily by _jit_kernels) so that:
#   * numba never has to be importable to import this module;
#   * the numba-free test leg can execute them un-jitted and pin their
#     numerics against the NumPy plan on tiny grids;
#   * cache=True works (numba's on-disk cache needs file-locatable
#     top-level functions, not closures).
#
# `prange` starts as the builtin range and is swapped for numba.prange
# before the first jit compile; numba resolves the global at compile time,
# and numba.prange degrades to plain range when the body runs un-jitted.
#
# Each body repeats the same inner reduction (NumPy's scalar pairwise base
# case: 8 interleaved partial sums r[0..7], combined ((r0+r1)+(r2+r3)) +
# ((r4+r5)+(r6+r7)), sequential tail) instead of calling a shared helper —
# a helper would be a closure over the jit flags and break on-disk caching.
# The per-frame and batched bodies are textually identical per point, which
# is what makes per-frame and batched execution bit-identical.
# --------------------------------------------------------------------------

prange = range


def _fused_nearest_frame(samples, indices, valid, weights, out, block_size):
    """One frame, nearest addressing: ``out[p] = sum_e w*sample``."""
    n_points, n_elements = indices.shape
    zero = np.zeros(1, samples.dtype)[0]
    n_blocks = (n_points + block_size - 1) // block_size
    for b in prange(n_blocks):
        lo = b * block_size
        hi = min(lo + block_size, n_points)
        r = np.empty(8, samples.dtype)
        for p in range(lo, hi):
            if n_elements < 8:
                acc = zero
                for e in range(n_elements):
                    v = samples[e, indices[p, e]] if valid[p, e] else zero
                    acc = acc + weights[p, e] * v
            else:
                for k in range(8):
                    v = samples[k, indices[p, k]] if valid[p, k] else zero
                    r[k] = weights[p, k] * v
                e = 8
                tail = n_elements - (n_elements % 8)
                while e < tail:
                    for k in range(8):
                        v = samples[e + k, indices[p, e + k]] \
                            if valid[p, e + k] else zero
                        r[k] = r[k] + weights[p, e + k] * v
                    e += 8
                acc = ((r[0] + r[1]) + (r[2] + r[3])) \
                    + ((r[4] + r[5]) + (r[6] + r[7]))
                while e < n_elements:
                    v = samples[e, indices[p, e]] if valid[p, e] else zero
                    acc = acc + weights[p, e] * v
                    e += 1
            out[p] = acc


def _fused_linear_frame(samples, lower, upper, fraction, lower_valid,
                        upper_valid, weights, out, block_size):
    """One frame, linear interpolation: ``v = (1-f)*below + f*above``."""
    n_points, n_elements = lower.shape
    zero = np.zeros(1, samples.dtype)[0]
    one = np.ones(1, samples.dtype)[0]
    n_blocks = (n_points + block_size - 1) // block_size
    for b in prange(n_blocks):
        lo = b * block_size
        hi = min(lo + block_size, n_points)
        r = np.empty(8, samples.dtype)
        for p in range(lo, hi):
            if n_elements < 8:
                acc = zero
                for e in range(n_elements):
                    below = samples[e, lower[p, e]] \
                        if lower_valid[p, e] else zero
                    above = samples[e, upper[p, e]] \
                        if upper_valid[p, e] else zero
                    f = fraction[p, e]
                    acc = acc + weights[p, e] * ((one - f) * below
                                                 + f * above)
            else:
                for k in range(8):
                    below = samples[k, lower[p, k]] \
                        if lower_valid[p, k] else zero
                    above = samples[k, upper[p, k]] \
                        if upper_valid[p, k] else zero
                    f = fraction[p, k]
                    r[k] = weights[p, k] * ((one - f) * below + f * above)
                e = 8
                tail = n_elements - (n_elements % 8)
                while e < tail:
                    for k in range(8):
                        below = samples[e + k, lower[p, e + k]] \
                            if lower_valid[p, e + k] else zero
                        above = samples[e + k, upper[p, e + k]] \
                            if upper_valid[p, e + k] else zero
                        f = fraction[p, e + k]
                        r[k] = r[k] + weights[p, e + k] * ((one - f) * below
                                                           + f * above)
                    e += 8
                acc = ((r[0] + r[1]) + (r[2] + r[3])) \
                    + ((r[4] + r[5]) + (r[6] + r[7]))
                while e < n_elements:
                    below = samples[e, lower[p, e]] \
                        if lower_valid[p, e] else zero
                    above = samples[e, upper[p, e]] \
                        if upper_valid[p, e] else zero
                    f = fraction[p, e]
                    acc = acc + weights[p, e] * ((one - f) * below
                                                 + f * above)
                    e += 1
            out[p] = acc


def _fused_nearest_batch(samples, indices, valid, weights, out, block_size):
    """Stacked cine, nearest addressing; per point identical to the frame
    kernel (same scalar ops, same order), so batched == per-frame bitwise."""
    n_points, n_elements = indices.shape
    n_frames = samples.shape[0]
    zero = np.zeros(1, samples.dtype)[0]
    n_blocks = (n_points + block_size - 1) // block_size
    for b in prange(n_blocks):
        lo = b * block_size
        hi = min(lo + block_size, n_points)
        r = np.empty(8, samples.dtype)
        for fi in range(n_frames):
            frame = samples[fi]
            for p in range(lo, hi):
                if n_elements < 8:
                    acc = zero
                    for e in range(n_elements):
                        v = frame[e, indices[p, e]] if valid[p, e] else zero
                        acc = acc + weights[p, e] * v
                else:
                    for k in range(8):
                        v = frame[k, indices[p, k]] if valid[p, k] else zero
                        r[k] = weights[p, k] * v
                    e = 8
                    tail = n_elements - (n_elements % 8)
                    while e < tail:
                        for k in range(8):
                            v = frame[e + k, indices[p, e + k]] \
                                if valid[p, e + k] else zero
                            r[k] = r[k] + weights[p, e + k] * v
                        e += 8
                    acc = ((r[0] + r[1]) + (r[2] + r[3])) \
                        + ((r[4] + r[5]) + (r[6] + r[7]))
                    while e < n_elements:
                        v = frame[e, indices[p, e]] if valid[p, e] else zero
                        acc = acc + weights[p, e] * v
                        e += 1
                out[fi, p] = acc


def _fused_linear_batch(samples, lower, upper, fraction, lower_valid,
                        upper_valid, weights, out, block_size):
    """Stacked cine, linear interpolation; per point identical to the frame
    kernel."""
    n_points, n_elements = lower.shape
    n_frames = samples.shape[0]
    zero = np.zeros(1, samples.dtype)[0]
    one = np.ones(1, samples.dtype)[0]
    n_blocks = (n_points + block_size - 1) // block_size
    for b in prange(n_blocks):
        lo = b * block_size
        hi = min(lo + block_size, n_points)
        r = np.empty(8, samples.dtype)
        for fi in range(n_frames):
            frame = samples[fi]
            for p in range(lo, hi):
                if n_elements < 8:
                    acc = zero
                    for e in range(n_elements):
                        below = frame[e, lower[p, e]] \
                            if lower_valid[p, e] else zero
                        above = frame[e, upper[p, e]] \
                            if upper_valid[p, e] else zero
                        f = fraction[p, e]
                        acc = acc + weights[p, e] * ((one - f) * below
                                                     + f * above)
                else:
                    for k in range(8):
                        below = frame[k, lower[p, k]] \
                            if lower_valid[p, k] else zero
                        above = frame[k, upper[p, k]] \
                            if upper_valid[p, k] else zero
                        f = fraction[p, k]
                        r[k] = weights[p, k] * ((one - f) * below
                                                + f * above)
                    e = 8
                    tail = n_elements - (n_elements % 8)
                    while e < tail:
                        for k in range(8):
                            below = frame[e + k, lower[p, e + k]] \
                                if lower_valid[p, e + k] else zero
                            above = frame[e + k, upper[p, e + k]] \
                                if upper_valid[p, e + k] else zero
                            f = fraction[p, e + k]
                            r[k] = r[k] + weights[p, e + k] \
                                * ((one - f) * below + f * above)
                        e += 8
                    acc = ((r[0] + r[1]) + (r[2] + r[3])) \
                        + ((r[4] + r[5]) + (r[6] + r[7]))
                    while e < n_elements:
                        below = frame[e, lower[p, e]] \
                            if lower_valid[p, e] else zero
                        above = frame[e, upper[p, e]] \
                            if upper_valid[p, e] else zero
                        f = fraction[p, e]
                        acc = acc + weights[p, e] * ((one - f) * below
                                                     + f * above)
                        e += 1
                out[fi, p] = acc


_KERNEL_BODIES: dict[str, Callable] = {
    "nearest_frame": _fused_nearest_frame,
    "linear_frame": _fused_linear_frame,
    "nearest_batch": _fused_nearest_batch,
    "linear_batch": _fused_linear_batch,
}

_JITTED: dict[bool, dict[str, Callable]] = {}


def _jit_kernels(fastmath: bool) -> dict[str, Callable]:
    """The jitted kernel set for one ``fastmath`` flag (built once each).

    ``cache=True`` persists the compiled machine code on disk
    (``NUMBA_CACHE_DIR`` relocates it — CI caches that directory between
    runs), so warm-up after the first process costs milliseconds.
    """
    fastmath = bool(fastmath)
    built = _JITTED.get(fastmath)
    if built is None:
        require_numba()
        import numba

        global prange
        prange = numba.prange
        jit = numba.njit(parallel=True, fastmath=fastmath, cache=True)
        built = {name: jit(body) for name, body in _KERNEL_BODIES.items()}
        _JITTED[fastmath] = built
    return built


def _set_threads(threads: int | None) -> None:
    """Apply the ``threads`` option (clamped; process-global, as numba's)."""
    if threads is None:
        return
    import numba

    numba.set_num_threads(min(int(threads), numba.config.NUMBA_NUM_THREADS))


@dataclass(frozen=True)
class CompiledPlan(BeamformingPlan):
    """A :class:`BeamformingPlan` executed by the fused Numba kernels.

    Holds the *same* delay/weight/gather-index tensors as the NumPy plan it
    was compiled from — only execution differs, so the plan stays safe to
    share across threads and (cache-keyed by :meth:`CompiledOptions.variant`)
    across backends.  ``options`` records the build-time defaults; backends
    pass their own options per call, so two engines differing only in
    ``threads``/``block_size`` can share one cache entry.
    """

    options: CompiledOptions = field(default_factory=CompiledOptions,
                                     compare=False)
    _fractions: dict[int, np.ndarray] = field(default_factory=dict,
                                              repr=False, compare=False)

    # ------------------------------------------------------------ plumbing
    def kernels(self) -> dict[str, Callable]:
        """The jitted kernel set this plan executes with (memoised)."""
        return _jit_kernels(self.options.fastmath)

    def _fraction(self, index) -> np.ndarray:
        """Interpolation fractions in the execution dtype.  The compiled
        index's cast is memoised (the NumPy path casts per call; here the
        cast would otherwise be the only remaining per-frame temporary); a
        transient index's is not, so the plan never grows per length."""
        if index.fraction.dtype == self.dtype:
            return index.fraction
        if index is not self.index:
            return index.fraction.astype(self.dtype)
        if not self._fractions:
            self._fractions[index.n_samples] = index.fraction.astype(self.dtype)
        return self._fractions[index.n_samples]

    def _block_size(self, options: CompiledOptions) -> int:
        return int(options.block_size or DEFAULT_BLOCK_POINTS)

    def _run_frame(self, samples: np.ndarray, out: np.ndarray,
                   options: CompiledOptions) -> None:
        """Launch the single-frame kernel over every point."""
        kernels = self.kernels()
        index = self.gather_index(samples.shape[-1])
        _set_threads(options.threads)
        block = self._block_size(options)
        if self.interpolation.value == "nearest":
            kernels["nearest_frame"](samples, index.indices, index.valid,
                                     self.weights, out, block)
        else:
            kernels["linear_frame"](samples, index.lower, index.upper,
                                    self._fraction(index), index.lower_valid,
                                    index.upper_valid, self.weights,
                                    out, block)

    # ------------------------------------------------------------ execution
    def execute(self, channel_data: "ChannelData | np.ndarray",
                tracer=None, options: CompiledOptions | None = None
                ) -> np.ndarray:
        """One frame -> one volume through the fused kernel.

        The whole gather/weight/accumulate runs inside a single ``fused``
        span (there are no separate stages to time — that is the point).
        """
        tracer = resolve_tracer(tracer)
        options = self.options if options is None else options
        samples = np.ascontiguousarray(self.coerce_samples(channel_data))
        out = np.empty(self.n_points, dtype=self.dtype)
        with tracer.span("fused") as span:
            self._run_frame(samples, out, options)
            span.set(bytes=int(samples.nbytes), points=self.n_points)
        return out.reshape(self.grid_shape)

    def execute_batch(self, frames: "Sequence[ChannelData | np.ndarray]",
                      tracer=None, options: CompiledOptions | None = None
                      ) -> np.ndarray:
        """A stacked cine in one kernel launch; ``(n_frames, *grid_shape)``.

        No :data:`repro.kernels.plan.BATCH_BLOCK_ELEMENTS` chunking is
        needed here — the fused kernel never materialises gathered values,
        so its working set is the echo buffers plus the plan regardless of
        batch width.
        """
        tracer = resolve_tracer(tracer)
        options = self.options if options is None else options
        if len(frames) == 0:
            return np.empty((0, *self.grid_shape), dtype=self.dtype)
        stacked = np.ascontiguousarray(
            np.stack([self.coerce_samples(frame) for frame in frames]))
        index = self.gather_index(stacked.shape[-1])
        kernels = self.kernels()
        _set_threads(options.threads)
        block = self._block_size(options)
        out = np.empty((len(frames), self.n_points), dtype=self.dtype)
        with tracer.span("fused") as span:
            if self.interpolation.value == "nearest":
                kernels["nearest_batch"](stacked, index.indices, index.valid,
                                         self.weights, out, block)
            else:
                kernels["linear_batch"](stacked, index.lower, index.upper,
                                        self._fraction(index),
                                        index.lower_valid, index.upper_valid,
                                        self.weights, out, block)
            span.set(bytes=int(stacked.nbytes), points=self.n_points,
                     frames=len(frames))
        return out.reshape((len(frames), *self.grid_shape))

    # -------------------------------------------------------------- warmup
    def warmup(self) -> None:
        """Force-JIT every kernel signature this plan will launch.

        Called from :func:`compile_compiled_plan`, i.e. inside the backend's
        ``compile`` tracer span — JIT time is real compile time and shows up
        in traces (and in the plan-cache amortisation counters) as such.
        """
        kernels = self.kernels()
        dtype = self.dtype
        frame = np.zeros((1, 2), dtype=dtype)
        batch = np.zeros((1, 1, 2), dtype=dtype)
        weights = np.ones((1, 1), dtype=dtype)
        ones = np.ones((1, 1), dtype=np.bool_)
        idx = np.zeros((1, 1), dtype=np.int64)
        out = np.empty(1, dtype=dtype)
        out_batch = np.empty((1, 1), dtype=dtype)
        if self.interpolation.value == "nearest":
            kernels["nearest_frame"](frame, idx, ones, weights, out, 1)
            kernels["nearest_batch"](batch, idx, ones, weights, out_batch, 1)
        else:
            fraction = np.zeros((1, 1), dtype=dtype)
            kernels["linear_frame"](frame, idx, idx, fraction, ones, ones,
                                    weights, out, 1)
            kernels["linear_batch"](batch, idx, idx, fraction, ones, ones,
                                    weights, out_batch, 1)


def compile_compiled_plan(beamformer: "DelayAndSumBeamformer",
                          precision: Precision | str | None = None,
                          options: CompiledOptions | None = None, *,
                          tile: "object | None" = None
                          ) -> CompiledPlan:
    """Compile a :class:`CompiledPlan` (tensors + jitted kernels) for an
    engine.

    The delay/weight tensors and gather index are built by the standard
    :func:`repro.kernels.plan.compile_plan` path — the fused kernels consume
    the very same artifacts, which is what keeps the backend a drop-in peer.
    The plan key carries :meth:`CompiledOptions.variant`, so a cache shared
    with NumPy backends can never serve a :class:`CompiledPlan` where a
    NumPy plan is expected (or vice versa), and fastmath plans never
    masquerade as strict ones.  ``tile`` compiles the fused segment for one
    :class:`repro.kernels.tiling.Tile` over the same streamed tensors the
    NumPy segment would use (the key carries both variant and tile).
    """
    if getattr(beamformer, "quantization", None) is not None:
        raise ValueError(
            "the 'compiled' backend does not support quantized execution: "
            "the bit-true fixed-point rounding stages run on the NumPy "
            "plan only — use the 'vectorized' or 'sharded' backend for "
            "quantized engines")
    require_numba()
    options = CompiledOptions() if options is None else options
    precision = resolve_precision(precision)
    base = compile_plan(beamformer, precision, tile=tile)
    plan = CompiledPlan(
        key=plan_key(beamformer, precision, variant=options.variant(),
                     tile=tile),
        delays=base.delays, weights=base.weights,
        grid_shape=base.grid_shape, precision=base.precision,
        interpolation=base.interpolation, n_samples=base.n_samples,
        index=base.index, options=options)
    plan.warmup()
    return plan
