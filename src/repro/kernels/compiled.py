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
module-level Python functions over the frame buffer padded by
:func:`repro.kernels.ops.pad_samples` and the same flat int32
:class:`repro.kernels.ops.GatherIndex` the NumPy plan uses: each fetch is
``padded[flat[p, e]]`` (``padded[flat[p, e], f]`` for a stack), with no
validity branch.  They
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
operations of the NumPy path, in the same order — out-of-buffer fetches read
the zero pad slot, linear interpolation is ``(1-f)*below + f*above`` in the
execution dtype (the index stores the fraction in that dtype).  The one difference is summation order across the element
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

A plan carrying a :class:`repro.kernels.quantized.QuantizationSpec` stays
on the NumPy execute loop, whose datapath helpers apply the per-element
rounding stages; the ``compiled`` backend rejects quantized engines
explicitly rather than silently skipping those stages.
"""

from __future__ import annotations

import importlib.util
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from ..observability.tracing import resolve_tracer
from ..registry import RegistryError
from .ops import pad_samples
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


def _fused_nearest_frame(padded, flat, weights, out, block_size):
    """One frame, nearest addressing: ``out[p] = sum_e w*padded[flat]``."""
    n_points, n_elements = flat.shape
    zero = np.zeros(1, padded.dtype)[0]
    n_blocks = (n_points + block_size - 1) // block_size
    for b in prange(n_blocks):
        lo = b * block_size
        hi = min(lo + block_size, n_points)
        r = np.empty(8, padded.dtype)
        for p in range(lo, hi):
            if n_elements < 8:
                acc = zero
                for e in range(n_elements):
                    acc = acc + weights[p, e] * padded[flat[p, e]]
            else:
                for k in range(8):
                    r[k] = weights[p, k] * padded[flat[p, k]]
                e = 8
                tail = n_elements - (n_elements % 8)
                while e < tail:
                    for k in range(8):
                        r[k] = r[k] + weights[p, e + k] * padded[flat[p, e + k]]
                    e += 8
                acc = ((r[0] + r[1]) + (r[2] + r[3])) \
                    + ((r[4] + r[5]) + (r[6] + r[7]))
                while e < n_elements:
                    acc = acc + weights[p, e] * padded[flat[p, e]]
                    e += 1
            out[p] = acc


def _fused_linear_frame(padded, flat, upper, fraction, weights, out,
                        block_size):
    """One frame, linear interpolation: ``v = (1-f)*below + f*above``."""
    n_points, n_elements = flat.shape
    zero = np.zeros(1, padded.dtype)[0]
    one = np.ones(1, padded.dtype)[0]
    n_blocks = (n_points + block_size - 1) // block_size
    for b in prange(n_blocks):
        lo = b * block_size
        hi = min(lo + block_size, n_points)
        r = np.empty(8, padded.dtype)
        for p in range(lo, hi):
            if n_elements < 8:
                acc = zero
                for e in range(n_elements):
                    f = fraction[p, e]
                    acc = acc + weights[p, e] * ((one - f) * padded[flat[p, e]]
                                                 + f * padded[upper[p, e]])
            else:
                for k in range(8):
                    f = fraction[p, k]
                    r[k] = weights[p, k] * ((one - f) * padded[flat[p, k]]
                                            + f * padded[upper[p, k]])
                e = 8
                tail = n_elements - (n_elements % 8)
                while e < tail:
                    for k in range(8):
                        f = fraction[p, e + k]
                        r[k] = r[k] + weights[p, e + k] * (
                            (one - f) * padded[flat[p, e + k]]
                            + f * padded[upper[p, e + k]])
                    e += 8
                acc = ((r[0] + r[1]) + (r[2] + r[3])) \
                    + ((r[4] + r[5]) + (r[6] + r[7]))
                while e < n_elements:
                    f = fraction[p, e]
                    acc = acc + weights[p, e] * ((one - f) * padded[flat[p, e]]
                                                 + f * padded[upper[p, e]])
                    e += 1
            out[p] = acc


def _fused_nearest_batch(padded, flat, weights, out, block_size):
    """Stacked cine, nearest addressing; per point identical to the frame
    kernel (same scalar ops, same order), so batched == per-frame bitwise."""
    n_points, n_elements = flat.shape
    n_frames = padded.shape[1]
    zero = np.zeros(1, padded.dtype)[0]
    n_blocks = (n_points + block_size - 1) // block_size
    for b in prange(n_blocks):
        lo = b * block_size
        hi = min(lo + block_size, n_points)
        r = np.empty(8, padded.dtype)
        for fi in range(n_frames):
            for p in range(lo, hi):
                if n_elements < 8:
                    acc = zero
                    for e in range(n_elements):
                        acc = acc + weights[p, e] * padded[flat[p, e], fi]
                else:
                    for k in range(8):
                        r[k] = weights[p, k] * padded[flat[p, k], fi]
                    e = 8
                    tail = n_elements - (n_elements % 8)
                    while e < tail:
                        for k in range(8):
                            r[k] = r[k] + weights[p, e + k] \
                                * padded[flat[p, e + k], fi]
                        e += 8
                    acc = ((r[0] + r[1]) + (r[2] + r[3])) \
                        + ((r[4] + r[5]) + (r[6] + r[7]))
                    while e < n_elements:
                        acc = acc + weights[p, e] * padded[flat[p, e], fi]
                        e += 1
                out[fi, p] = acc


def _fused_linear_batch(padded, flat, upper, fraction, weights, out,
                        block_size):
    """Stacked cine, linear interpolation; per point identical to the frame
    kernel."""
    n_points, n_elements = flat.shape
    n_frames = padded.shape[1]
    zero = np.zeros(1, padded.dtype)[0]
    one = np.ones(1, padded.dtype)[0]
    n_blocks = (n_points + block_size - 1) // block_size
    for b in prange(n_blocks):
        lo = b * block_size
        hi = min(lo + block_size, n_points)
        r = np.empty(8, padded.dtype)
        for fi in range(n_frames):
            for p in range(lo, hi):
                if n_elements < 8:
                    acc = zero
                    for e in range(n_elements):
                        f = fraction[p, e]
                        acc = acc + weights[p, e] * (
                            (one - f) * padded[flat[p, e], fi]
                            + f * padded[upper[p, e], fi])
                else:
                    for k in range(8):
                        f = fraction[p, k]
                        r[k] = weights[p, k] * (
                            (one - f) * padded[flat[p, k], fi]
                            + f * padded[upper[p, k], fi])
                    e = 8
                    tail = n_elements - (n_elements % 8)
                    while e < tail:
                        for k in range(8):
                            f = fraction[p, e + k]
                            r[k] = r[k] + weights[p, e + k] * (
                                (one - f) * padded[flat[p, e + k], fi]
                                + f * padded[upper[p, e + k], fi])
                        e += 8
                    acc = ((r[0] + r[1]) + (r[2] + r[3])) \
                        + ((r[4] + r[5]) + (r[6] + r[7]))
                    while e < n_elements:
                        f = fraction[p, e]
                        acc = acc + weights[p, e] * (
                            (one - f) * padded[flat[p, e], fi]
                            + f * padded[upper[p, e], fi])
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

    Holds the *same* weights and gather index as the NumPy plan it was
    compiled from — only execution differs, so the plan stays safe to
    share across threads and (cache-keyed by :meth:`CompiledOptions.variant`)
    across backends.  ``options`` records the build-time defaults; backends
    pass their own options per call, so two engines differing only in
    ``threads``/``block_size`` can share one cache entry.
    """

    options: CompiledOptions = field(default_factory=CompiledOptions,
                                     compare=False)

    # ------------------------------------------------------------ plumbing
    def kernels(self) -> dict[str, Callable]:
        """The jitted kernel set this plan executes with (memoised)."""
        return _jit_kernels(self.options.fastmath)

    def _launch(self, shape: str, padded: np.ndarray, out: np.ndarray,
                options: CompiledOptions) -> None:
        """Run the ``shape`` (``frame``/``batch``) kernel over every point."""
        kernels = self.kernels()
        _set_threads(options.threads)
        block = int(options.block_size or DEFAULT_BLOCK_POINTS)
        index = self.index
        if index.upper is None:
            kernels[f"nearest_{shape}"](padded, index.flat, self.weights,
                                        out, block)
        else:
            kernels[f"linear_{shape}"](padded, index.flat, index.upper,
                                       index.fraction, self.weights, out,
                                       block)

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
        samples = self.coerce_samples(channel_data)
        padded = pad_samples(samples, self.gather_index(samples.shape[-1]))
        out = np.empty(self.n_points, dtype=self.dtype)
        with tracer.span("fused") as span:
            self._launch("frame", padded, out, options)
            span.set(bytes=int(padded.nbytes), points=self.n_points)
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
        stacked = np.stack([self.coerce_samples(frame) for frame in frames])
        padded = pad_samples(stacked, self.gather_index(stacked.shape[-1]))
        out = np.empty((len(frames), self.n_points), dtype=self.dtype)
        with tracer.span("fused") as span:
            self._launch("batch", padded, out, options)
            span.set(bytes=int(padded.nbytes), points=self.n_points,
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
        frame = np.zeros(2, dtype=dtype)
        batch = np.zeros((2, 1), dtype=dtype)
        # Read-only like the shared receive-weight tensor, which numba
        # types as a distinct signature.
        weights = np.ones((1, 1), dtype=dtype)
        weights.flags.writeable = False
        flat = np.zeros((1, 1), dtype=np.int32)
        out = np.empty(1, dtype=dtype)
        out_batch = np.empty((1, 1), dtype=dtype)
        if self.interpolation.value == "nearest":
            kernels["nearest_frame"](frame, flat, weights, out, 1)
            kernels["nearest_batch"](batch, flat, weights, out_batch, 1)
        else:
            fraction = np.zeros((1, 1), dtype=dtype)
            kernels["linear_frame"](frame, flat, flat, fraction, weights,
                                    out, 1)
            kernels["linear_batch"](batch, flat, flat, fraction, weights,
                                    out_batch, 1)


def compile_compiled_plan(beamformer: "DelayAndSumBeamformer",
                          precision: Precision | str | None = None,
                          options: CompiledOptions | None = None, *,
                          tile: "object | None" = None
                          ) -> CompiledPlan:
    """Compile a :class:`CompiledPlan` (tensors + jitted kernels) for an
    engine.

    The weights and gather index are built by the standard
    :func:`repro.kernels.plan.compile_plan` path — the fused kernels consume
    the very same artifacts (the weights being the shared, read-only
    :func:`repro.kernels.plan.receive_weights` tensor), which is what keeps
    the backend a drop-in peer.
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
        weights=base.weights, grid_shape=base.grid_shape,
        precision=base.precision, interpolation=base.interpolation,
        index=base.index, options=options)
    plan.warmup()
    return plan
