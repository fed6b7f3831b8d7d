"""Compiled beamforming plans: gather index + weights, frozen once.

A :class:`BeamformingPlan` is the cacheable artifact every execution path
shares.  It is compiled **once** from ``(SystemConfig, delay architecture,
apodization, interpolation, precision, quantization)`` — everything that
determines the per-frame arithmetic — and then executed against any number
of frames:

* :meth:`BeamformingPlan.execute` — one frame -> one volume;
* :meth:`BeamformingPlan.execute_batch` — a stacked cine -> stacked volumes
  in one gather, amortising index setup and NumPy dispatch across frames.

Both run one chunked loop (a frame is a batch of one) through the
datapath helpers of :mod:`repro.kernels.ops`; a plan carrying a
:class:`~repro.kernels.quantized.QuantizationSpec` is the bit-true
fixed-point datapath of the same loop, not another plan class.  The runtime
backends run whole *segment* plans, one per tile of a
:class:`repro.kernels.tiling.TiledPlan` (``compile_plan(..., tile=...)``),
through the same two methods; an unbudgeted engine is one tile.

Compilation builds the flat int32 gather index
(:class:`repro.kernels.ops.GatherIndex`) of its point range for the
system's echo-buffer length, rounding the provider's bulk delays into
index rows block by block as they are generated — no delay tensor is ever
held — and references the ``(n_points, n_elements)`` receive-weight
tensor of that range, built once per geometry and shared by every plan
(:func:`receive_weights`).  It is the software analogue of
the paper's precomputed delay table: the expensive float work happens once,
streaming frames only gather.  Plans are immutable and safe to share
across backends and threads; :func:`plan_key` (which includes the
interpolation kind and execution dtype) is the key they are cached under
in :class:`repro.runtime.cache.PlanCache`.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Hashable, Iterator, Sequence

import numpy as np

from ..beamformer.interpolation import InterpolationKind
from ..observability.tracing import resolve_tracer
from .ops import GatherIndex, coerce_samples, gather_padded, pad_samples, \
    total, weigh
from .precision import Precision, resolve_precision

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..acoustics.echo import ChannelData
    from ..beamformer.das import DelayAndSumBeamformer
    from .quantized import QuantizationSpec

__all__ = ["BATCH_BLOCK_ELEMENTS", "BeamformingPlan", "compile_plan",
           "plan_key", "plan_storage_bytes", "receive_weights"]


BATCH_BLOCK_ELEMENTS = 1 << 17
"""Target gathered-value count per execution chunk (~1 MB at float64).
Keeps the ``(n_frames, block, n_elements)`` temporaries inside the CPU
caches; see :meth:`BeamformingPlan.execute_batch`.  Measured on the
``small`` preset (one frame, 2-vCPU Xeon host): 2^16-2^18 gather in
~30-38 ms, 2^20 in ~100 ms."""


def plan_storage_bytes(n_points: int, n_elements: int,
                       precision: Precision | str | None = None,
                       interpolation: "InterpolationKind | str" = "nearest"
                       ) -> int:
    """Predicted memory footprint of a compiled plan, without compiling it.

    Counts the weights and the compiled gather index: the int32 flat
    index, plus for ``linear`` the int32 upper neighbour and the fraction
    in the execution dtype.  Used by experiment E9 to put the software plan
    against the paper's delay-table storage wall: at paper scale the plan
    is terabytes — the very reason the paper generates delays on the fly —
    while the scaled-down presets fit in megabytes.
    """
    itemsize = resolve_precision(precision).dtype.itemsize
    per_entry = itemsize + 4                        # weights + flat index
    if getattr(interpolation, "value", interpolation) == "linear":
        per_entry += 4 + itemsize                   # upper + fraction
    return int(n_points) * int(n_elements) * per_entry


def plan_key(beamformer: "DelayAndSumBeamformer",
             precision: Precision | str | None = None,
             quantization: object | None = None, *,
             variant: Hashable = None,
             tile: "object | None" = None) -> Hashable:
    """Stable cache key for the compiled plan of a beamformer.

    Combines the physical system digest, the delay architecture (class plus
    its numerical design and origin), the apodization settings, the
    interpolation kind, the execution dtype and the quantisation spec —
    everything :func:`compile_plan` bakes into the tensors.  Engines that
    share this key can share the plan; engines differing in *any* component
    (notably interpolation, precision or quantisation, which earlier table
    keys ignored) can never be served each other's tensors.

    ``quantization`` defaults to the beamformer's own ``quantization``
    attribute (``None`` = float execution), so callers that thread a
    :class:`repro.kernels.quantized.QuantizationSpec` through the beamformer
    get distinct keys for free.

    ``variant`` names a plan *implementation* beyond the NumPy default —
    e.g. ``("compiled", fastmath)`` from
    :meth:`repro.kernels.compiled.CompiledOptions.variant`.  Variant plans
    carry execution state of their own (jitted kernel sets, relaxed-math
    flags), so a shared :class:`repro.runtime.cache.PlanCache` must never
    hand a NumPy plan to a variant backend or vice versa; ``None`` (the
    NumPy plan) keeps the historical key shape.

    ``tile`` scopes the key to one :class:`repro.kernels.tiling.Tile` of
    the focal grid: the tile's flat point range joins the key, so segment
    plans of the same engine occupy distinct cache slots (the bounded
    :class:`~repro.runtime.cache.PlanCache` streams them under a byte
    budget), and different tilings never shadow one another.
    """
    precision = resolve_precision(precision)
    if quantization is None:
        quantization = getattr(beamformer, "quantization", None)
    provider = beamformer.delays
    origin = getattr(provider, "origin", None)
    origin_key = tuple(np.asarray(origin, dtype=float).ravel()) \
        if origin is not None else None
    design = getattr(provider, "design", None)
    key = (beamformer.system.cache_key(),
           type(provider).__name__,
           repr(design),
           origin_key,
           repr(beamformer.apodization),
           beamformer.interpolation.value,
           precision.value,
           repr(quantization) if quantization is not None else None)
    if variant is not None:
        key = key + (variant,)
    if tile is not None:
        key = key + (("tile", int(tile.start), int(tile.stop)),)
    return key


def _extent(beamformer: "DelayAndSumBeamformer", tile
            ) -> tuple[int, int, tuple[int, int, int]]:
    """Flat point range and volume shape of a plan: the whole grid for
    ``tile=None``, else the tile's range folded as a one-scanline grid."""
    if tile is None:
        shape = beamformer.grid.shape
        return 0, math.prod(shape), shape
    start, stop = int(tile.start), int(tile.stop)
    return start, stop, (1, 1, stop - start)


def _blocks(start: int, stop: int, n_elements: int
            ) -> Iterator[tuple[int, int]]:
    """``[lo, hi)`` point blocks of ``[start, stop)`` holding about
    :data:`BATCH_BLOCK_ELEMENTS` (point, element) entries each — the bound
    on every compile-time transient."""
    block = max(1, BATCH_BLOCK_ELEMENTS // n_elements)
    for lo in range(start, stop, block):
        yield lo, min(lo + block, stop)


_WEIGHTS: "weakref.WeakValueDictionary[Hashable, np.ndarray]" = \
    weakref.WeakValueDictionary()
_WEIGHTS_LOCK = threading.Lock()


def receive_weights(beamformer: "DelayAndSumBeamformer", start: int,
                    stop: int, dtype: np.dtype | type,
                    quantization=None) -> np.ndarray:
    """The read-only receive-weight tensor of flat points ``[start, stop)``,
    shape ``(stop - start, n_elements)``, in ``dtype`` (quantised by the
    ``quantization`` spec first, when given).

    Weights depend only on the geometry and the apodization — not on the
    delay architecture or the transmit firing — so one tensor serves every
    plan of the same range: it is memoised under (``system.cache_key()``,
    apodization, dtype, quantisation, range), the same geometry assumption
    :func:`plan_key` makes, in a process-wide weak map.  Any engine of the
    same geometry gets the same array, and plans reference it without
    copying.  The beamformer keeps a strong reference to each tensor it
    compiled with, so the memo entry lives as long as an engine that may
    recompile an evicted segment; once every holder is gone it goes too.

    Built in blocks of ~:data:`BATCH_BLOCK_ELEMENTS` entries from
    :meth:`~repro.beamformer.das.DelayAndSumBeamformer.weights_for_points`
    over :meth:`~repro.geometry.volume.FocalGrid.range_points`; every step
    is elementwise, so the rows equal ``weights_for_scanline`` rows (cast
    or quantised) bit for bit.
    """
    dtype = np.dtype(dtype)
    key = (beamformer.system.cache_key(), repr(beamformer.apodization),
           dtype.str, repr(quantization), int(start), int(stop))
    with _WEIGHTS_LOCK:
        weights = _WEIGHTS.get(key)
    if weights is None:
        # Built outside the lock so concurrent tiles compile in parallel;
        # a racing duplicate is dropped in favour of the first stored.
        built = np.empty((stop - start, beamformer.transducer.element_count),
                         dtype=dtype)
        for lo, hi in _blocks(start, stop, built.shape[1]):
            rows = beamformer.weights_for_points(
                beamformer.grid.range_points(lo, hi))
            if quantization is not None:
                rows = quantization.quantize_weights(rows)
            built[lo - start:hi - start] = rows
        built.flags.writeable = False
        with _WEIGHTS_LOCK:
            weights = _WEIGHTS.setdefault(key, built)
    beamformer._plan_weights[key] = weights
    return weights


def _tile_tensors(beamformer: "DelayAndSumBeamformer", start: int,
                  stop: int, dtype: np.dtype,
                  quantization: "QuantizationSpec | None"
                  ) -> tuple[GatherIndex, np.ndarray]:
    """Gather index and weights of flat points ``[start, stop)``.

    The one tensor builder of every plan (NumPy or compiled, float or
    quantized); a whole-grid plan is the range ``[0, n_points)``.  Delays
    come from the provider's bulk ``tile_delays_samples`` in blocks of
    ~:data:`BATCH_BLOCK_ELEMENTS` entries, each rounded into its index
    rows (:meth:`GatherIndex.write`) as it arrives, so no
    ``(n_points, n_elements)`` delay tensor is ever held; the weights are
    the shared :func:`receive_weights` tensor.  ``quantization`` (the
    beamformer's spec) first quantises both.  Every step is
    elementwise, so a tile's rows are exact row slices of the whole-grid
    tensors.
    """
    n_elements = beamformer.transducer.element_count
    index = GatherIndex.empty(beamformer.interpolation, stop - start,
                              n_elements,
                              beamformer.system.echo_buffer_samples, dtype)
    for lo, hi in _blocks(start, stop, n_elements):
        delays = np.asarray(beamformer.delays.tile_delays_samples(lo, hi),
                            dtype=np.float64)
        if quantization is not None:
            delays = quantization.quantize_delays(delays)
        index.write(slice(lo - start, hi - start), delays)
    return index, receive_weights(beamformer, start, stop, dtype,
                                  quantization)


@dataclass(frozen=True)
class BeamformingPlan:
    """Frozen, executable beamforming recipe for one engine configuration.

    Attributes
    ----------
    key:
        The :func:`plan_key` this plan was compiled under.
    weights:
        Receive apodization weights in the execution dtype,
        ``(n_points, n_elements)``, points in scanline-major
        ``(i_theta, i_phi, i_depth)`` order: the read-only
        :func:`receive_weights` tensor, shared with every plan of the same
        geometry and range.
    grid_shape:
        Focal-grid shape ``(n_theta, n_phi, n_depth)`` used to fold the
        flat point axis back into a volume.
    precision:
        Execution dtype policy (see :class:`repro.kernels.Precision`).
    interpolation:
        Echo-sample interpolation the gather index was built for.
    index:
        The flat gather index, same shape as ``weights``, built at compile
        time for the system's echo-buffer length and the plan's only
        addressing state: :attr:`nbytes` never changes after compile.
    quantization:
        The fixed-point datapath spec, or ``None`` for float execution.
        Quantised, the index was rounded from quantised delays and the
        weights are quantised; execution then quantises the samples, every
        product and every sum (:func:`repro.kernels.ops.weigh`,
        :func:`repro.kernels.ops.total`).  Validated against the precision,
        interpolation and buffer length on construction.
    """

    key: Hashable
    weights: np.ndarray
    grid_shape: tuple[int, int, int]
    precision: Precision
    interpolation: InterpolationKind
    index: GatherIndex = field(repr=False, compare=False)
    quantization: "QuantizationSpec | None" = None

    def __post_init__(self) -> None:
        if self.quantization is not None:
            self.quantization.validate_for(self.precision,
                                           self.interpolation,
                                           self.n_samples)

    # ------------------------------------------------------------ geometry
    @property
    def n_points(self) -> int:
        """Number of focal points (product of ``grid_shape``)."""
        return self.weights.shape[0]

    @property
    def n_elements(self) -> int:
        """Number of receive channels."""
        return self.weights.shape[1]

    @property
    def n_samples(self) -> int:
        """Echo-buffer length the compiled gather index addresses."""
        return self.index.n_samples

    @property
    def dtype(self) -> np.dtype:
        """Execution dtype of weights, gathered samples and sums."""
        return self.precision.dtype

    @property
    def nbytes(self) -> int:
        """Memory footprint of the weights plus the gather index [bytes].

        The weights are counted in full even though plans of one geometry
        share them, so summed over plans this is an upper bound.
        """
        return self.weights.nbytes + self.index.nbytes

    # ----------------------------------------------------------- addressing
    def gather_index(self, n_samples: int | None = None) -> GatherIndex:
        """The compiled gather index, checked against a buffer length.

        A plan addresses only its compile-time echo-buffer length; a frame
        of any other length raises :class:`ValueError` naming both.
        """
        if n_samples is not None and int(n_samples) != self.n_samples:
            raise ValueError(
                f"plan was compiled for {self.n_samples}-sample echo "
                f"buffers; got a frame of {int(n_samples)} samples")
        return self.index

    # ------------------------------------------------------------ execution
    def coerce_samples(self, channel_data: "ChannelData | np.ndarray"
                       ) -> np.ndarray:
        """Raw sample array of one frame (or stack) in the execution dtype,
        quantised into the sample format when the plan is quantised.

        The single definition of frame coercion
        (:func:`repro.kernels.ops.coerce_samples`) — the backends reuse it
        so every execution path accepts exactly the same payloads.
        """
        return coerce_samples(channel_data, self.dtype, self.quantization)

    def execute(self, channel_data: "ChannelData | np.ndarray",
                tracer=None) -> np.ndarray:
        """Beamform one frame into a volume of shape ``grid_shape``: the
        one-frame case of :meth:`execute_batch`.

        ``tracer`` (default: the process default tracer, normally a no-op)
        records ``gather`` / ``weights`` / ``accumulate`` spans with wall
        time and gathered byte counts.
        """
        samples = np.asarray(getattr(channel_data, "samples", channel_data))
        return self.execute_batch(samples[np.newaxis], tracer)[0]

    def execute_batch(self, frames: "Sequence[ChannelData | np.ndarray]",
                      tracer=None) -> np.ndarray:
        """Beamform a cine batch at once; shape ``(n_frames, *grid_shape)``.

        All frames are stacked into one ``(n_frames, n_elements, n_samples)``
        buffer, copied once per call into the padded, frames-innermost
        layout the flat index addresses
        (:func:`repro.kernels.ops.pad_samples`), and gathered with one
        ``np.take`` per chunk, so per-frame NumPy dispatch is paid once per
        batch and each fetch reads every frame's sample from one cache
        line.  The gather is chunked over point blocks of
        ~:data:`BATCH_BLOCK_ELEMENTS` gathered values, which keeps the
        ``(n_frames, block, n_elements)`` temporaries inside the CPU caches.
        The chunking is invisible numerically — each focal point's sum is
        independent, so the result is bit-identical to a single-shot
        gather.  Each chunk's gathered buffer is private, so the weight
        multiply reuses it in place (:func:`repro.kernels.ops.weigh`).
        ``tracer`` times the ``gather``, ``weights`` and ``accumulate``
        stages of every chunk; timing never touches the arithmetic.  Frames
        must share the plan's buffer length.  A pre-stacked ``(n_frames,
        n_elements, n_samples)`` array is coerced in place of the stack —
        the tiled path shares one stack across all its tiles.
        """
        tracer = resolve_tracer(tracer)
        if len(frames) == 0:
            return np.empty((0, *self.grid_shape), dtype=self.dtype)
        stacked = self.coerce_samples(frames) if isinstance(frames, np.ndarray) \
            else np.stack([self.coerce_samples(frame) for frame in frames])
        index = self.gather_index(stacked.shape[-1])
        padded = pad_samples(stacked, index)
        block = max(1, BATCH_BLOCK_ELEMENTS // (len(frames) * self.n_elements))
        out = np.empty((len(frames), self.n_points), dtype=self.dtype)
        for lo in range(0, self.n_points, block):
            rows = slice(lo, min(lo + block, self.n_points))
            with tracer.span("gather") as span:
                gathered = gather_padded(padded, index.rows(rows))
                span.set(bytes=int(gathered.nbytes))
            with tracer.span("weights"):
                weighted = weigh(gathered, self.weights[rows],
                                 self.quantization)
            with tracer.span("accumulate"):
                summed = total(weighted, self.quantization)
            out[:, rows] = summed
        return out.reshape((len(frames), *self.grid_shape))


def compile_plan(beamformer: "DelayAndSumBeamformer",
                 precision: Precision | str | None = None, *,
                 variant: str | None = None,
                 options: object | None = None,
                 tile: "object | None" = None) -> BeamformingPlan:
    """Compile the beamforming plan for a configured beamformer.

    Generates the gather index for the system's echo-buffer length and
    fetches the shared weight tensor (in the execution dtype), both
    through :func:`_tile_tensors`.  This is the expensive step the
    :class:`repro.runtime.cache.PlanCache` amortises across frames and
    across backends.

    The beamformer's ``quantization`` spec rides on the plan: its delays
    and weights are quantised at compile time and its execution runs the
    fixed-point rounding stages.  :func:`plan_key` keys on the spec, so a
    float and a quantised plan never share a cache slot.

    ``variant`` selects an alternative plan implementation over the same
    tensors: ``"compiled"`` dispatches to
    :func:`repro.kernels.compiled.compile_compiled_plan` (fused Numba
    kernels; ``options`` is its :class:`~repro.kernels.compiled.CompiledOptions`),
    raising :class:`repro.kernels.compiled.BackendUnavailable` when numba is
    not importable.  The default ``None`` is the NumPy plan.

    ``tile=None`` compiles the whole grid (``grid_shape`` is the grid's,
    the key has no tile component).  A :class:`repro.kernels.tiling.Tile`
    compiles a *segment* plan for only that range of the focal grid: the
    key carries the tile's point range, and ``grid_shape`` degenerates to
    ``(1, 1, tile.n_points)`` — the segment behaves like a plan for a
    one-scanline grid of the tile's length.  Segments are what
    :class:`repro.kernels.tiling.TiledPlan` streams through the cache;
    their rows are bit-identical slices of the whole-grid tensors.
    """
    if variant is not None:
        if variant != "compiled":
            raise ValueError(f"unknown plan variant {variant!r}; "
                             "available: compiled")
        from .compiled import compile_compiled_plan
        return compile_compiled_plan(beamformer, precision, options,
                                     tile=tile)
    precision = resolve_precision(precision)
    start, stop, grid_shape = _extent(beamformer, tile)
    quantization = beamformer.quantization
    index, weights = _tile_tensors(beamformer, start, stop, precision.dtype,
                                   quantization)
    return BeamformingPlan(
        key=plan_key(beamformer, precision, tile=tile), weights=weights,
        grid_shape=grid_shape, precision=precision,
        interpolation=beamformer.interpolation, index=index,
        quantization=quantization)
