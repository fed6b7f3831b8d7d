"""Fused, Numba-compiled execution of a :class:`BeamformingPlan`.

The chunked NumPy plans (linear, quantized) execute Eq. 1 as three array
passes — gather, weight, accumulate — over ``(points, n_elements)``
intermediates; the float nearest NumPy plan is one single-threaded SciPy
CSR product, bit-identical to ``np.sum``.  This module
is the native-speed datapath ROADMAP item #1 asks for: a single fused pass
per focal point (gather -> weight -> accumulate with **no** intermediate
arrays), JIT-compiled with Numba and parallelised with ``prange`` over
contiguous voxel blocks.

Layering
--------
The kernel bodies (:func:`_fused_nearest_batch` and
:func:`_fused_linear_batch`) are plain module-level Python functions over
a call's frames interleaved into one padded buffer
(:meth:`repro.kernels.ops.PaddedFrames.interleaved`) and the same flat
int32 :class:`repro.kernels.ops.GatherIndex` the chunked NumPy plans use,
in natural ``(n_points, n_elements)`` order: each fetch is
``padded[flat[p, e], f]``, with no validity branch.  One frame is a batch
of one: the inherited :meth:`BeamformingPlan.execute` and
:meth:`BeamformingPlan.execute_batch` reach
:meth:`CompiledPlan.execute_padded`, the one kernel launch.  The bodies are
jitted lazily, per ``fastmath`` flag, on first use — so importing this
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
detail of NumPy's implementation — the NumPy CSR plan copies it leaf by
leaf (:func:`repro.kernels.ops.summation_leaves`), pinned by test.  The
fused kernels instead pin
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
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..observability.tracing import resolve_tracer
from ..registry import RegistryError
from .ops import PaddedFrames
from .plan import BeamformingPlan, plan_key
from .precision import Precision

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..beamformer.das import DelayAndSumBeamformer

__all__ = [
    "BackendUnavailable",
    "CompiledOptions",
    "CompiledPlan",
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
            "(reference, vectorized) instead")


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
# Each frame of a batch runs the same scalar operations per point, in the
# same order, whatever the batch around it: a volume's bits do not depend
# on the batch it was beamformed in.
# --------------------------------------------------------------------------

prange = range


def _fused_nearest_batch(padded, flat, weights, out, block_size):
    """Stacked cine, nearest addressing:
    ``out[f, p] = sum_e w * padded[flat, f]``."""
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
    """Stacked cine, linear interpolation:
    ``v = (1-f)*below + f*above``."""
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

    def _launch(self, padded: np.ndarray, out: np.ndarray,
                options: CompiledOptions) -> None:
        """Run the batch kernel over every point of every frame."""
        kernels = self.kernels()
        _set_threads(options.threads)
        block = int(options.block_size or DEFAULT_BLOCK_POINTS)
        index = self.stored_index
        if index.upper is None:
            kernels["nearest_batch"](padded, index.flat, self.stored_weights,
                                     out, block)
        else:
            kernels["linear_batch"](padded, index.flat, index.upper,
                                    index.fraction, self.stored_weights,
                                    out, block)

    # ------------------------------------------------------------ execution
    def execute_padded(self, padded: PaddedFrames, tracer=None,
                       options: CompiledOptions | None = None
                       ) -> np.ndarray:
        """``(n_frames, n_points)`` sums of a call's
        :class:`~repro.kernels.ops.PaddedFrames` in one kernel launch over
        their interleaved copy, under one ``fused`` span (there are no
        separate gather/weight/accumulate stages to time — that is the
        point).  The inherited :meth:`execute` and :meth:`execute_batch`
        reach it with the plan's own ``options``; a plan-backed runtime
        backend passes its own.

        No :data:`repro.kernels.plan.BATCH_BLOCK_ELEMENTS` chunking is
        needed here — the fused kernel never materialises gathered values,
        so its working set is the echo buffers plus the plan regardless of
        batch width.
        """
        tracer = resolve_tracer(tracer)
        options = self.options if options is None else options
        self._check_padded(padded)
        padded = padded.interleaved()
        out = np.empty((padded.shape[1], self.n_points), dtype=self.dtype)
        with tracer.span("fused") as span:
            self._launch(padded, out, options)
            span.set(bytes=int(padded.nbytes), points=self.n_points,
                     frames=padded.shape[1])
        return out

    # -------------------------------------------------------------- warmup
    def warmup(self) -> None:
        """Force-JIT the kernel signature this plan will launch.

        Called as the plan is assembled, i.e. inside the backend's
        ``compile`` tracer span — JIT time is real compile time and shows up
        in traces (and in the plan-cache amortisation counters) as such.
        """
        kernels = self.kernels()
        dtype = self.dtype
        batch = np.zeros((2, 1), dtype=dtype)
        # Read-only like the shared receive-weight tensor, which numba
        # types as a distinct signature.
        weights = np.ones((1, 1), dtype=dtype)
        weights.flags.writeable = False
        flat = np.zeros((1, 1), dtype=np.int32)
        out = np.empty((1, 1), dtype=dtype)
        if self.interpolation.value == "nearest":
            kernels["nearest_batch"](batch, flat, weights, out, 1)
        else:
            fraction = np.zeros((1, 1), dtype=dtype)
            kernels["linear_batch"](batch, flat, flat, fraction, weights,
                                    out, 1)


def compiled_plan_assembler(beamformer: "DelayAndSumBeamformer",
                            precision: Precision,
                            options: CompiledOptions | None,
                            tile: "object | None",
                            grid_shape: tuple[int, int, int]):
    """How :func:`repro.kernels.plan.compile_plans` wraps each of a
    group's natural-order tensors as a warmed-up :class:`CompiledPlan`.

    Refuses a quantized engine (a :class:`ValueError`) and, without numba,
    raises :class:`BackendUnavailable` — both before any tensor is built.
    """
    if getattr(beamformer, "quantization", None) is not None:
        raise ValueError(
            "the 'compiled' backend does not support quantized execution: "
            "the bit-true fixed-point rounding stages run on the NumPy "
            "plan only — use the 'vectorized' backend for quantized "
            "engines")
    require_numba()
    options = CompiledOptions() if options is None else options

    def assemble(event_beamformer, index, weights) -> CompiledPlan:
        plan = CompiledPlan(
            key=plan_key(event_beamformer, precision,
                         variant=options.variant(), tile=tile),
            stored_weights=weights, grid_shape=grid_shape,
            precision=precision,
            interpolation=event_beamformer.interpolation,
            stored_index=index, options=options)
        plan.warmup()
        return plan

    return assemble
