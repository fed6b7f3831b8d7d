"""Compiled beamforming plans: gather index + weights, frozen once.

A :class:`BeamformingPlan` is the cacheable artifact every execution path
shares.  It is compiled **once** from ``(SystemConfig, delay architecture,
apodization, interpolation, precision, quantization)`` — everything that
determines the per-frame arithmetic — and then executed against any number
of frames:

* :meth:`BeamformingPlan.execute` — one frame -> one volume;
* :meth:`BeamformingPlan.execute_batch` — a stacked cine -> stacked volumes
  in one pass, amortising index setup and NumPy dispatch across frames.

A frame is a batch of one.  The float nearest-sample plan is a sparse
matrix: it executes as one SciPy CSR product of its leaf-ordered tensors
(:class:`repro.kernels.ops.LeafRows`, which keep only the entries with a
non-zero weight) with the padded frames — each frame itself, read in
place, when every frame of the batch already lies in its padded vector —
its leaf sums then added in
NumPy's summation order (:func:`repro.kernels.ops.combine_leaf_sums`) —
bit for bit the chunked loop's ``np.sum`` for finite samples.  Linear and
quantised plans run one chunked gather/weigh/total loop through the datapath helpers of
:mod:`repro.kernels.ops`: a linear sum weights an interpolated sample, and
a plan carrying a :class:`~repro.kernels.quantized.QuantizationSpec` (the
bit-true fixed-point datapath of the same loop, not another plan class)
rounds every product, so neither is one product.  The runtime
backends run whole *segment* plans, one per
:class:`repro.kernels.tiling.Tile` (``compile_plan(..., tile=...)``),
through the same two methods; an unbudgeted engine is one tile.

Compilation builds the flat int32 gather index
(:class:`repro.kernels.ops.GatherIndex`) of its point range for the
system's echo-buffer length, rounding the provider's bulk delays into
place as they are generated — no delay tensor is ever held — and
references the receive-weight tensor of that range, built once per
geometry and layout and shared by every plan (:func:`receive_weights`, or
:func:`leaf_rows` for the CSR plan).  A float nearest plan is compiled
leaf-major: the provider generates each summation leaf's columns for a run
of scanlines, and the slab is rounded and compressed straight into its run
of the CSR index, so its matrix is views of the stored arrays, built
without a copy.  The firings of one transmit scheme compile as one group
(:func:`compile_plans`): each slab of their shared base delays is
generated once and each firing's transmit correction added to it.  It
is the software analogue of the paper's precomputed delay table: the
expensive float work happens once, streaming frames only gather.  Plans
are immutable and safe to share across backends and threads;
:func:`plan_key` (which includes the interpolation kind and execution
dtype) is the key they are cached under in
:class:`repro.runtime.cache.PlanCache`.
"""

from __future__ import annotations

import math
import threading
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Hashable, Iterator, Sequence

import numpy as np
from scipy import sparse

from ..beamformer.interpolation import InterpolationKind
from ..observability.tracing import resolve_tracer
from .ops import GatherIndex, LeafLayout, LeafRows, PaddedFrames, \
    all_finite, check_samples, coerce_samples, gather_padded, pad_frames, \
    total, weigh
from .precision import Precision, resolve_precision

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from ..acoustics.echo import ChannelData
    from ..beamformer.das import DelayAndSumBeamformer
    from .quantized import QuantizationSpec

__all__ = ["BATCH_BLOCK_ELEMENTS", "BeamformingPlan", "check_finite",
           "compile_plan", "compile_plans", "leaf_ordered", "leaf_rows",
           "plan_key", "plan_storage_bytes", "receive_weights"]


BATCH_BLOCK_ELEMENTS = 1 << 17
"""Target gathered-value count per execution chunk (~1 MB at float64).
Keeps the chunked plans' ``(n_frames, block, n_elements)`` temporaries
inside the CPU caches; see :meth:`BeamformingPlan._chunked`.  Measured on the
``small`` preset (one frame, 2-vCPU Xeon host): 2^16-2^18 gather in
~30-38 ms, 2^20 in ~100 ms."""


_RUN_ENTRIES = 1 << 16
"""Target entries of one leaf's slab in a leaf-ordered compile
(:func:`_group_tensors`): the size of the scratch buffers it rounds in.
2^15 to 2^17 measured alike on ``small`` (2-vCPU Xeon host)."""


def leaf_ordered(interpolation: "InterpolationKind | str",
                 quantization: object | None = None,
                 variant: Hashable = None) -> bool:
    """Whether a plan family runs as the leaf-ordered CSR product: the
    NumPy plan (``variant=None``) of a float (unquantised) nearest-sample
    engine.  Such a plan skips its zero-weight terms, so its frames must
    be finite (:func:`check_finite`)."""
    return variant is None and quantization is None and \
        getattr(interpolation, "value", interpolation) == "nearest"


def plan_storage_bytes(n_points: int, n_elements: int,
                       precision: Precision | str | None = None,
                       interpolation: "InterpolationKind | str" = "nearest",
                       *, quantization: object | None = None,
                       variant: Hashable = None) -> int:
    """Predicted memory footprint of a compiled plan, without compiling it.

    Counts the weights and the compiled gather index: the int32 flat
    index, plus for ``linear`` the int32 upper neighbour and the fraction
    in the execution dtype, plus for the leaf-ordered CSR plan
    (:func:`leaf_ordered` of ``interpolation``, ``quantization`` and
    ``variant``) one int32 row pointer per (point, leaf).  Exact for every
    plan but the CSR plan, which stores only its non-zero-weight entries
    (:class:`~repro.kernels.ops.LeafRows`): for it, this is the upper
    bound with every entry kept, which is what :class:`TilePlanner` sizes
    tiles by.  Used by experiment E9 to put the software plan against the
    paper's delay-table storage wall: at paper scale the plan is
    terabytes — the very reason the paper generates delays on the fly —
    while the scaled-down presets fit in megabytes.
    """
    itemsize = resolve_precision(precision).dtype.itemsize
    per_entry = itemsize + 4                        # weights + flat index
    if getattr(interpolation, "value", interpolation) == "linear":
        per_entry += 4 + itemsize                   # upper + fraction
    per_point = int(n_elements) * per_entry
    if leaf_ordered(interpolation, quantization, variant):
        per_point += 4 * LeafLayout.of(int(n_elements)).n_leaves
    return int(n_points) * per_point


def check_finite(frames: "Sequence[ChannelData | np.ndarray]",
                 dtype: np.dtype | type) -> None:
    """Refuse frames holding a NaN or infinite sample for a CSR plan.

    The CSR plan skips its zero-weight terms, which leaves every sum's bits
    unchanged only for finite samples (``0 * inf`` is NaN).  Each frame is
    scanned once, in place, in the execution ``dtype``
    (:func:`~repro.kernels.ops.all_finite`): a float64 sample beyond
    float32's range is finite before a float32 plan coerces it and
    infinite after.
    """
    if not all(all_finite(frame, dtype) for frame in frames):
        raise ValueError(
            "frames hold non-finite echo samples (NaN or inf) in the "
            "execution dtype; the float nearest CSR plan skips zero-weight "
            "terms, which is exact only for finite samples")


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


_WEIGHTS: "weakref.WeakValueDictionary[Hashable, object]" = \
    weakref.WeakValueDictionary()
_WEIGHTS_LOCK = threading.Lock()


def _shared_weights(beamformer: "DelayAndSumBeamformer", start: int,
                    stop: int, dtype: np.dtype, quantization,
                    leaf_ordered: bool, build):
    """The memoised weights of a range: ``build()``'s result, made once per
    (``system.cache_key()``, apodization, dtype, quantisation, layout,
    range) — the geometry assumption :func:`plan_key` makes — in a
    process-wide weak map, and held by ``beamformer`` while it lives."""
    key = (beamformer.system.cache_key(), repr(beamformer.apodization),
           dtype.str, repr(quantization), bool(leaf_ordered), int(start),
           int(stop))
    with _WEIGHTS_LOCK:
        weights = _WEIGHTS.get(key)
    if weights is None:
        # Built outside the lock so concurrent compiles (server sessions)
        # run in parallel; a racing duplicate is dropped in favour of the
        # first stored.
        built = build()
        with _WEIGHTS_LOCK:
            weights = _WEIGHTS.setdefault(key, built)
    beamformer._plan_weights[key] = weights
    return weights


def _weight_blocks(beamformer: "DelayAndSumBeamformer", start: int,
                   stop: int, quantization
                   ) -> Iterator[tuple[slice, np.ndarray]]:
    """``(rows, weights)`` of ``[start, stop)`` in blocks of
    ~:data:`BATCH_BLOCK_ELEMENTS` entries, rows relative to ``start``."""
    n_elements = beamformer.transducer.element_count
    for lo, hi in _blocks(start, stop, n_elements):
        rows = beamformer.weights_for_points(
            beamformer.grid.range_points(lo, hi))
        if quantization is not None:
            rows = quantization.quantize_weights(rows)
        yield slice(lo - start, hi - start), rows


def receive_weights(beamformer: "DelayAndSumBeamformer", start: int,
                    stop: int, dtype: np.dtype | type,
                    quantization=None) -> np.ndarray:
    """The read-only receive-weight tensor of flat points ``[start, stop)``,
    shape ``(stop - start, n_elements)``, in ``dtype`` (quantised by the
    ``quantization`` spec first, when given).

    Weights depend only on the geometry and the apodization — not on the
    delay architecture or the transmit firing — so one tensor serves every
    plan of the same range: it is memoised under (``system.cache_key()``,
    apodization, dtype, quantisation, layout, range), the same geometry
    assumption :func:`plan_key` makes, in a process-wide weak map.  Any
    engine of the same geometry gets the same array, and plans reference
    it without copying.  The beamformer keeps a strong reference to each
    tensor it compiled with, so the memo entry lives as long as an engine
    that may recompile an evicted segment; once every holder is gone it
    goes too.

    Built in blocks of ~:data:`BATCH_BLOCK_ELEMENTS` entries from
    :meth:`~repro.beamformer.das.DelayAndSumBeamformer.weights_for_points`
    over :meth:`~repro.geometry.volume.FocalGrid.range_points`; every step
    is elementwise, so the rows equal ``weights_for_scanline`` rows (cast
    or quantised) bit for bit.
    """
    dtype = np.dtype(dtype)

    def build() -> np.ndarray:
        built = np.empty((stop - start, beamformer.transducer.element_count),
                         dtype=dtype)
        for rows, values in _weight_blocks(beamformer, start, stop,
                                           quantization):
            built[rows] = values
        built.flags.writeable = False
        return built

    return _shared_weights(beamformer, start, stop, dtype, quantization,
                           False, build)


def leaf_rows(beamformer: "DelayAndSumBeamformer", start: int, stop: int,
              dtype: np.dtype | type) -> LeafRows:
    """The pruned :class:`~repro.kernels.ops.LeafRows` of flat points
    ``[start, stop)`` in ``dtype``: the kept mask, row pointers and kept
    weights of a float nearest plan, memoised and shared exactly as
    :func:`receive_weights` is (same key, leaf layout) — every plan of the
    range, any architecture or firing, references the same three arrays
    and adds only its own index.  Built from
    :meth:`~repro.beamformer.das.DelayAndSumBeamformer.split_weights` in
    blocks of ~:data:`BATCH_BLOCK_ELEMENTS` entries, written straight into
    leaf order (:meth:`~repro.kernels.ops.LeafRows.build`)."""
    dtype = np.dtype(dtype)

    def build() -> LeafRows:
        return LeafRows.build(
            beamformer.aperture_weights.astype(dtype), stop - start,
            ((slice(lo - start, hi - start), beamformer.split_weights(
                beamformer.grid.range_points(lo, hi)))
             for lo, hi in _blocks(start, stop,
                                   beamformer.transducer.element_count)))

    return _shared_weights(beamformer, start, stop, dtype, None, True, build)


def _runs(start: int, stop: int, step: int) -> Iterator[tuple[int, int]]:
    """``[lo, hi)`` runs of ``[start, stop)`` cut at the multiples of
    ``step``: whole runs of ``step`` points, but for the range's ends."""
    lo = start
    while lo < stop:
        hi = min(stop, (lo // step + 1) * step)
        yield lo, hi
        lo = hi


def _delay_source(provider) -> tuple[object, "Callable | None"]:
    """A provider's ``(base, correction)``: a transmit-adjusted provider
    (:class:`repro.scenarios.delays.TransmitAdjustedProvider`, any provider
    exposing ``base`` and ``range_correction``) delays a range as its
    base's rows plus ``range_correction(lo, hi)[:, None]``; any other is
    its own base, uncorrected."""
    correction = getattr(provider, "range_correction", None)
    if correction is None:
        return provider, None
    return provider.base, correction


def _integer_source(sources) -> bool:
    """Whether a group's slabs come from its bases' integer source,
    ``tile_delay_indices`` — int32 positions rounded in a provider's own
    fixed-point datapath (fixed-point TABLESTEER, whose
    ``integer_datapath`` says so): only when every base has one and no
    firing adds a transmit correction, which is not in that format."""
    return all(correction is None and getattr(base, "integer_datapath", False)
               for base, correction in sources)


def _base_delays(sources, lo: int, hi: int, *elements,
                 rounded: bool = False) -> list[np.ndarray]:
    """Each source's base delays of flat points ``[lo, hi)`` (at
    ``elements``, when given), generated once per distinct base — float64
    samples, or ``rounded`` the int32 positions of its integer source."""
    made: dict[int, np.ndarray] = {}
    for base, _ in sources:
        if id(base) not in made:
            made[id(base)] = base.tile_delay_indices(lo, hi, *elements) \
                if rounded else np.asarray(
                    base.tile_delays_samples(lo, hi, *elements),
                    dtype=np.float64)
    return [made[id(base)] for base, _ in sources]


def _group_tensors(beamformers: "Sequence[DelayAndSumBeamformer]",
                   start: int, stop: int, dtype: np.dtype,
                   quantization: "QuantizationSpec | None",
                   leaf_ordered: bool
                   ) -> list[tuple[GatherIndex, np.ndarray]]:
    """Gather index and weights of flat points ``[start, stop)`` for each
    of ``beamformers``, in natural order or, ``leaf_ordered``, as the
    pruned leaf rows of a CSR plan (the shared :func:`leaf_rows`).

    The one tensor builder of every plan (NumPy or compiled, float or
    quantized); a whole-grid plan is the range ``[0, n_points)``, and one
    plan is a group of one.  The beamformers differ only in their delay
    providers, so they share one weight tensor (a :class:`ValueError`
    otherwise).  Delays come from the providers' bulk
    ``tile_delays_samples``, so no ``(n_points, n_elements)`` delay tensor
    is ever held.  A transmit-adjusted provider is split into its base and
    its per-range correction (:func:`_delay_source`): each slab of a base
    is generated once for the whole group, and each firing's correction
    once per range, then added per firing — ``base + correction[:, None]``,
    the float add the provider itself makes, so every index is bit for bit
    the one compiled alone.

    * natural: in point blocks of ~:data:`BATCH_BLOCK_ELEMENTS` entries;
      per block, each firing's delays (quantised by ``quantization``, the
      beamformers' spec, after the add) are rounded into its index rows
      (:meth:`GatherIndex.write`) as they arrive;
    * leaf-ordered: leaf-major.  The range is cut into runs of whole
      scanlines (~:data:`_RUN_ENTRIES` entries of the longest leaf); for
      each run, every leaf slot in storage order asks each base for that
      leaf's columns only (``tile_delays_samples(lo, hi, elements)``) — a
      slab already in summation order — which
      :meth:`GatherIndex.write_leaf_group` shifts, rounds and compresses
      straight into each index's run of the CSR index.  A group of
      uncorrected fixed-point TABLESTEER firings (:func:`_integer_source`)
      asks for ``tile_delay_indices`` instead: the same slab already
      rounded to int32 in the provider's own datapath, bit for bit the
      float round.

    Every step is elementwise, so a tile's rows are exact row slices of
    the whole-grid tensors, and the leaf-ordered index is the natural one
    permuted and pruned.
    """
    first = beamformers[0]
    weights = [leaf_rows(beamformer, start, stop, dtype) if leaf_ordered
               else receive_weights(beamformer, start, stop, dtype,
                                    quantization)
               for beamformer in beamformers]
    if any(shared is not weights[0] for shared in weights) or any(
            beamformer.interpolation != first.interpolation
            or repr(beamformer.quantization) != repr(first.quantization)
            for beamformer in beamformers):
        raise ValueError("a plan group compiles beamformers that differ "
                         "only in their delay providers: one system, "
                         "apodization, interpolation and quantization")
    leaves = weights[0] if leaf_ordered else None
    indexes = [GatherIndex.empty(first.interpolation, stop - start,
                                 first.transducer.element_count,
                                 first.system.echo_buffer_samples, dtype,
                                 leaves=leaves)
               for _ in beamformers]
    sources = [_delay_source(beamformer.delays)
               for beamformer in beamformers]
    if leaves is not None:
        n_depth = first.grid.shape[-1]
        stored = leaves.layout.stored_leaves
        step = n_depth * max(1, _RUN_ENTRIES // (stored[0].size * n_depth))
        rounded = _integer_source(sources)

        def slabs():
            for lo, hi in _runs(start, stop, step):
                shifts = [None if correction is None
                          else correction(lo, hi)
                          for _, correction in sources]
                for slot, leaf in enumerate(stored):
                    yield slot, slice(lo - start, hi - start), tuple(zip(
                        _base_delays(sources, lo, hi, leaf,
                                     rounded=rounded), shifts))

        GatherIndex.write_leaf_group(indexes, slabs())
    else:
        for lo, hi in _blocks(start, stop, first.transducer.element_count):
            bases = _base_delays(sources, lo, hi)
            for index, base, (_, correction) in zip(indexes, bases,
                                                    sources):
                delays = base if correction is None \
                    else base + correction(lo, hi)[:, None]
                if quantization is not None:
                    delays = quantization.quantize_delays(delays)
                index.write(slice(lo - start, hi - start), delays)
    shared = weights[0] if leaves is None else leaves.weights
    return [(index, shared) for index in indexes]


@dataclass(frozen=True)
class BeamformingPlan:
    """Frozen, executable beamforming recipe for one engine configuration.

    Attributes
    ----------
    key:
        The :func:`plan_key` this plan was compiled under.
    stored_weights:
        Receive apodization weights in the execution dtype, as stored: the
        read-only :func:`receive_weights` tensor, natural ``(n_points,
        n_elements)`` with points in scanline-major ``(i_theta, i_phi,
        i_depth)`` order, or the kept weights of the index's
        :class:`~repro.kernels.ops.LeafRows`, flat in their row order —
        shared either way with every plan of the same geometry, range and
        layout.  :attr:`weights` is always natural (read-only).
    grid_shape:
        Focal-grid shape ``(n_theta, n_phi, n_depth)`` used to fold the
        flat point axis back into a volume.
    precision:
        Execution dtype policy (see :class:`repro.kernels.Precision`).
    interpolation:
        Echo-sample interpolation the gather index was built for.
    stored_index:
        The flat gather index in the layout of ``stored_weights``, built at
        compile time for the system's echo-buffer length and the plan's
        only addressing state: :attr:`nbytes` never changes after compile.
        :attr:`index` (and :meth:`gather_index`) is always natural.
    quantization:
        The fixed-point datapath spec, or ``None`` for float execution.
        Quantised, the index was rounded from quantised delays and the
        weights are quantised; execution then quantises the samples, every
        product and every sum (:func:`repro.kernels.ops.weigh`,
        :func:`repro.kernels.ops.total`).  Validated against the precision,
        interpolation and buffer length on construction.
    matrix:
        For a leaf-ordered index, the ``(n_leaves * n_points, n_elements *
        n_samples + 1)`` CSR matrix whose ``data``, ``indices`` and
        ``indptr`` *are* the stored weights, flat index and the shared row
        pointers (no copy), one entry per kept weight; ``None`` for the
        chunked plans.
    """

    key: Hashable
    stored_weights: np.ndarray
    grid_shape: tuple[int, int, int]
    precision: Precision
    interpolation: InterpolationKind
    stored_index: GatherIndex = field(repr=False, compare=False)
    quantization: "QuantizationSpec | None" = None
    matrix: "sparse.csr_array | None" = field(init=False, repr=False,
                                              compare=False)
    _natural: "weakref.WeakValueDictionary[str, object]" = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.quantization is not None:
            self.quantization.validate_for(self.precision,
                                           self.interpolation,
                                           self.n_samples)
        # The views derived from the stored tensors: the CSR matrix over
        # them (no copy) and the empty memo of natural copies.
        index = self.stored_index
        matrix = None if index.leaves is None else sparse.csr_array(
            (self.stored_weights, index.flat, index.leaves.indptr),
            shape=(index.leaves.n_leaves * self.n_points,
                   index.pad_slot + 1), copy=False)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "_natural", weakref.WeakValueDictionary())

    # ------------------------------------------------------------ geometry
    @property
    def n_points(self) -> int:
        """Number of focal points (product of ``grid_shape``)."""
        return self.stored_index.n_points

    @property
    def n_elements(self) -> int:
        """Number of receive channels."""
        return self.stored_index.n_elements

    @property
    def n_samples(self) -> int:
        """Echo-buffer length the compiled gather index addresses."""
        return self.stored_index.n_samples

    @property
    def dtype(self) -> np.dtype:
        """Execution dtype of weights, gathered samples and sums."""
        return self.precision.dtype

    @property
    def nbytes(self) -> int:
        """Memory footprint of the weights plus the gather index [bytes].

        The weights (and a CSR plan's row pointers) are counted in full even
        though plans of one geometry share them, so summed over plans this
        is an upper bound.  A CSR plan's kept mask, which only compiles
        read, is not counted.
        """
        return self.stored_weights.nbytes + self.stored_index.nbytes

    # ----------------------------------------------------------- addressing
    def _unpermuted(self, name: str, build):
        """A natural-order copy of a leaf-ordered tensor, built on demand
        and shared while any caller still holds it."""
        value = self._natural.get(name)
        if value is None:
            value = build()
            self._natural[name] = value
        return value

    @property
    def weights(self) -> np.ndarray:
        """Receive weights in natural ``(n_points, n_elements)`` order
        (read-only): the stored tensor, or its un-permuted copy with 0 at
        every pruned entry."""
        leaves = self.stored_index.leaves
        if leaves is None:
            return self.stored_weights

        def build() -> np.ndarray:
            weights = leaves.natural(self.stored_weights, 0)
            weights.flags.writeable = False
            return weights

        return self._unpermuted("weights", build)

    @property
    def index(self) -> GatherIndex:
        """The gather index in natural ``(n_points, n_elements)`` order:
        the stored index, or its un-permuted copy with every pruned entry
        at the pad slot — so gathering, weighing and summing the natural
        views reproduces the plan's volumes."""
        return self._unpermuted("index", self.stored_index.natural)

    def gather_index(self, n_samples: int | None = None) -> GatherIndex:
        """The natural-order :attr:`index`, checked against a buffer
        length.

        A plan addresses only its compile-time echo-buffer length; a frame
        of any other length raises :class:`ValueError` naming both.
        """
        self._check_samples(n_samples)
        return self.index

    def _check_samples(self, n_samples: int | None) -> None:
        if n_samples is not None:
            check_samples(self.n_samples, n_samples)

    def _check_padded(self, padded: PaddedFrames) -> None:
        expected = (self.n_elements, self.n_samples)
        if padded.shape != expected or padded.dtype != self.dtype:
            raise ValueError(
                f"this plan reads {expected} frames in {self.dtype}; got "
                f"padded {padded.shape} frames in {padded.dtype}")

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
        records one ``spmv`` span (CSR plan) or per-chunk ``gather`` /
        ``weights`` / ``accumulate`` spans with wall time and byte counts.
        """
        return self.execute_batch([channel_data], tracer)[0]

    def execute_batch(self, frames: "Sequence[ChannelData | np.ndarray]",
                      tracer=None) -> np.ndarray:
        """Beamform a cine batch at once; shape ``(n_frames, *grid_shape)``.

        The frames are handed to :meth:`execute_padded` as
        :class:`~repro.kernels.ops.PaddedFrames`: a CSR plan reads a batch
        whose frames all lie in their padded vectors in place, frame by
        frame; any other batch, and every batch of a chunked plan, is
        copied once into the interleaved buffer.  Frames must
        share the plan's buffer length.  A pre-stacked ``(n_frames,
        n_elements, n_samples)`` array is a sequence of frames too.  A CSR
        plan refuses a NaN or infinite sample (:func:`check_finite`, one
        scan per frame) with a :class:`ValueError`.
        """
        tracer = resolve_tracer(tracer)
        if len(frames) == 0:
            return np.empty((0, *self.grid_shape), dtype=self.dtype)
        padded = pad_frames(frames, self.dtype, self.quantization,
                            (self.n_elements, self.n_samples))
        if self.matrix is not None:
            check_finite(frames, self.dtype)
        return self.execute_padded(padded, tracer).reshape(
            (len(frames), *self.grid_shape))

    def execute_padded(self, padded: PaddedFrames,
                       tracer=None) -> np.ndarray:
        """``(n_frames, n_points)`` sums of a call's
        :class:`~repro.kernels.ops.PaddedFrames` — the frames every tile
        segment of a plan-backed runtime backend shares.  A CSR plan reads
        them in place frame by frame when they all qualify, else from their
        interleaved copy (:meth:`_leaf_products`); the chunked plans gather
        block by block from their interleaved copy (:meth:`_chunked`).  The caller has
        refused non-finite samples (:func:`check_finite`;
        :meth:`execute_batch`, the plan-backed backends and the scheme
        engine do): a CSR plan does not check again."""
        tracer = resolve_tracer(tracer)
        self._check_padded(padded)
        return self._chunked(padded.interleaved(), tracer) \
            if self.matrix is None else self._leaf_products(padded, tracer)

    def _leaf_products(self, padded: PaddedFrames, tracer) -> np.ndarray:
        """``(n_frames, n_points)`` sums of a CSR plan, under one ``spmv``
        span.

        Row ``l * n_points + p`` of :attr:`matrix` sums leaf ``l`` of point
        ``p`` sequentially (SciPy's row loop, over the same ``w * x``
        products the chunked loop forms, less the zero-weight ones, which
        change no bit of a sum of finite samples), so the product with
        padded frames is every leaf sum at once; adding the leaf slabs in
        NumPy's pairwise order (:meth:`repro.kernels.ops.LeafLayout.combine`)
        reproduces ``np.sum(w * x[flat], axis=-1)`` bit for bit.  No
        gathered ``(n_frames, n_points, n_elements)`` values exist.

        A batch whose frames all lie in their padded vectors
        (:attr:`~repro.kernels.ops.PaddedFrames.vectors`) is read in place,
        one matrix-vector product per frame, so no frame is copied.  Any
        other batch is copied once into its interleaved buffer and
        multiplied at once, which reads the matrix once for the batch.
        """
        combine = self.stored_index.leaves.layout.combine
        with tracer.span("spmv") as span:
            if padded.vectors is not None:
                out = np.empty((len(padded), self.n_points), dtype=self.dtype)
                for frame, vector in enumerate(padded.vectors):
                    out[frame] = combine(
                        (self.matrix @ vector).reshape(-1, self.n_points))
            else:
                batch = padded.interleaved()
                sums = self.matrix @ (batch[:, 0] if len(padded) == 1
                                      else batch)
                # A copy, never a view: a volume must not pin the leaf sums.
                out = combine(sums.reshape(-1, self.n_points,
                                           len(padded))).T.copy()
            span.set(bytes=int(self.nbytes))
        return out

    def _chunked(self, padded: np.ndarray, tracer) -> np.ndarray:
        """``(n_frames, n_points)`` sums gathered in point blocks of
        ~:data:`BATCH_BLOCK_ELEMENTS` gathered values, which keeps the
        ``(n_frames, block, n_elements)`` temporaries inside the CPU caches.

        The chunking is invisible numerically — each focal point's sum is
        independent, so the result is bit-identical to a single-shot
        gather.  Each chunk's gathered buffer is private, so the weight
        multiply reuses it in place (:func:`repro.kernels.ops.weigh`).
        ``tracer`` times the ``gather``, ``weights`` and ``accumulate``
        stages of every chunk; timing never touches the arithmetic.
        """
        n_frames = padded.shape[1]
        index = self.stored_index
        block = max(1, BATCH_BLOCK_ELEMENTS // (n_frames * self.n_elements))
        out = np.empty((n_frames, self.n_points), dtype=self.dtype)
        for lo in range(0, self.n_points, block):
            rows = slice(lo, min(lo + block, self.n_points))
            with tracer.span("gather") as span:
                gathered = gather_padded(padded, index.rows(rows))
                span.set(bytes=int(gathered.nbytes))
            with tracer.span("weights"):
                weighted = weigh(gathered, self.stored_weights[rows],
                                 self.quantization)
            with tracer.span("accumulate"):
                summed = total(weighted, self.quantization)
            out[:, rows] = summed
        return out


def compile_plans(beamformers: "Sequence[DelayAndSumBeamformer]",
                  precision: Precision | str | None = None, *,
                  variant: str | None = None,
                  options: object | None = None,
                  tile: "object | None" = None) -> list[BeamformingPlan]:
    """Compile the plans of several beamformers in one pass: the plans of
    a firing group.

    The beamformers differ only in their delay providers — the firings of
    one transmit scheme over one architecture
    (:class:`repro.scenarios.SchemeEngine`).  Their tensors come from one
    :func:`_group_tensors` pass, which asks a shared base provider for
    each slab once and rounds each firing's ``base + correction`` into
    that firing's own index; every plan references the same shared weight
    tensor.  Each plan is bit for bit, and keyed exactly as, the one
    :func:`compile_plan` builds for its beamformer alone.  ``precision``,
    ``variant``, ``options`` and ``tile`` are as for :func:`compile_plan`.
    """
    if variant is not None and variant != "compiled":
        raise ValueError(f"unknown plan variant {variant!r}; "
                         "available: compiled")
    precision = resolve_precision(precision)
    first = beamformers[0]
    start, stop, grid_shape = _extent(first, tile)
    quantization = first.quantization
    if variant is None:
        def assemble(beamformer, index, weights) -> BeamformingPlan:
            return BeamformingPlan(
                key=plan_key(beamformer, precision, tile=tile),
                stored_weights=weights, grid_shape=grid_shape,
                precision=precision, interpolation=beamformer.interpolation,
                stored_index=index, quantization=quantization)
    else:
        from .compiled import compiled_plan_assembler
        assemble = compiled_plan_assembler(first, precision, options, tile,
                                           grid_shape)
    tensors = _group_tensors(
        beamformers, start, stop, precision.dtype, quantization,
        leaf_ordered(first.interpolation, quantization, variant))
    return [assemble(beamformer, index, weights)
            for beamformer, (index, weights) in zip(beamformers, tensors)]


def compile_plan(beamformer: "DelayAndSumBeamformer",
                 precision: Precision | str | None = None, *,
                 variant: str | None = None,
                 options: object | None = None,
                 tile: "object | None" = None) -> BeamformingPlan:
    """Compile the beamforming plan for a configured beamformer: the group
    of one of :func:`compile_plans`.

    Generates the gather index for the system's echo-buffer length and
    fetches the shared weight tensor (in the execution dtype), both
    through :func:`_group_tensors` — as pruned leaf rows, so the plan runs
    as one CSR product of its non-zero-weight entries, for a float
    nearest-sample engine.  This is the expensive
    step the :class:`repro.runtime.cache.PlanCache` amortises across frames
    and across backends.

    The beamformer's ``quantization`` spec rides on the plan: its delays
    and weights are quantised at compile time and its execution runs the
    fixed-point rounding stages.  :func:`plan_key` keys on the spec, so a
    float and a quantised plan never share a cache slot.

    ``variant`` selects an alternative plan implementation over the same
    tensors in natural order: ``"compiled"`` builds a
    :class:`repro.kernels.compiled.CompiledPlan` (fused Numba kernels;
    ``options`` is its :class:`~repro.kernels.compiled.CompiledOptions`),
    raising :class:`repro.kernels.compiled.BackendUnavailable` when numba is
    not importable.  The default ``None`` is the NumPy plan.

    ``tile=None`` compiles the whole grid (``grid_shape`` is the grid's,
    the key has no tile component).  A :class:`repro.kernels.tiling.Tile`
    compiles a *segment* plan for only that range of the focal grid: the
    key carries the tile's point range, and ``grid_shape`` degenerates to
    ``(1, 1, tile.n_points)`` — the segment behaves like a plan for a
    one-scanline grid of the tile's length.  Segments are what the
    plan-backed runtime backends stream through the cache;
    their rows are bit-identical slices of the whole-grid tensors.
    """
    return compile_plans([beamformer], precision, variant=variant,
                         options=options, tile=tile)[0]
