"""Low-level beamforming kernels: gather, weight, accumulate.

Every consumer of delays in this codebase — the per-scanline classic loop,
the whole-volume vectorized backend, the thread-sharded backend and the
batched multi-frame path — ultimately performs the same three steps:

1. :func:`gather_interp` — fetch one echo sample per (focal point, element)
   from the channel buffers at the delayed index (nearest or linear);
2. :func:`apply_weights` — multiply by the receive apodization weights;
3. :func:`accumulate` — sum across the element axis (Eq. 1 of the paper).

This module is the single implementation of those steps.  The kernels are
shape-polymorphic over a leading batch axis: ``samples`` may be one frame
``(n_elements, n_samples)`` or a stacked cine ``(n_frames, n_elements,
n_samples)`` and every kernel broadcasts accordingly, which is what makes
multi-frame execution one ``np.take`` instead of a Python loop per frame.

Addressing is split from gathering: :func:`build_gather_index` rounds
fractional-sample delays once into an int32 *flat* index into the frame
raveled by :func:`pad_samples`, out-of-buffer fetches pointing at its zero
pad slot, so a gather needs no masks and a compiled
:class:`repro.kernels.plan.BeamformingPlan` pays the float->index conversion
at compile time — the software analogue of the paper's delay table.

The float nearest-sample plan executes Eq. 1 as a sparse matrix product
instead: every focal point is a fixed weighted sum of echo samples, and
:func:`summation_leaves` / :func:`combine_leaf_sums` split that sum into
sequentially summed *leaves* recombined in NumPy's own pairwise order, so
one CSR product per plan reproduces :func:`accumulate` bit for bit.
:class:`LeafLayout` is the ``(leaf, point, j)`` order such a plan stores
its index and weights in; :meth:`GatherIndex.write` rounds delays straight
into it.

Arithmetic runs in the dtype of ``samples`` (see
:class:`repro.kernels.precision.Precision`); delays are always rounded in
``float64``, so echo addressing is precision-independent.

Fixed point is the same datapath with rounding steps: given a
:class:`repro.kernels.quantized.QuantizationSpec`, :func:`coerce_samples`
quantises the echo samples into the sample format, :func:`weigh` rounds
every product into the accumulator format and :func:`total` saturates each
sum to it.  These three helpers are the only code that applies a spec at
execution time; every path (the plan execute loop, tiled plans, the
reference loop, arbitrary-point beamforming) calls them, with ``None`` for
float.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..beamformer.interpolation import InterpolationKind
    from .quantized import QuantizationSpec

# InterpolationKind is a str-valued enum; the kernels compare by value so
# this module stays below repro.beamformer in the import graph (das.py
# imports these kernels).
_NEAREST = "nearest"
_LINEAR = "linear"

__all__ = [
    "GatherIndex",
    "LeafLayout",
    "accumulate",
    "apply_weights",
    "build_gather_index",
    "coerce_samples",
    "combine_leaf_sums",
    "delay_and_sum",
    "gather_interp",
    "gather_padded",
    "pad_samples",
    "summation_leaves",
    "total",
    "weigh",
]

_LANES = 8
"""Interleaved partial sums of NumPy's pairwise base case."""
_PAIRWISE_BLOCK = 128
"""Longest run NumPy sums with its base case (``PW_BLOCKSIZE``)."""


@lru_cache(maxsize=64)
def _summation_tree(n: int) -> tuple[tuple[tuple[int, ...], ...], object]:
    """``(leaves, tree)`` of NumPy's sum of ``n`` contiguous values: the
    element positions of each leaf, left to right, and the order their
    sums are added in, as nested ``(left, right)`` pairs of leaf numbers."""
    if n < 1:
        raise ValueError(f"a sum needs at least one value, got n={n}")
    leaves: list[tuple[int, ...]] = []

    def leaf(positions) -> int:
        leaves.append(tuple(positions))
        return len(leaves) - 1

    def build(lo: int, n: int):
        if n < _LANES:
            return leaf(range(lo, lo + n))
        if n <= _PAIRWISE_BLOCK:
            body = lo + n - n % _LANES
            r = [leaf(range(lo + j, body, _LANES)) for j in range(_LANES)]
            node = (((r[0], r[1]), (r[2], r[3])),
                    ((r[4], r[5]), (r[6], r[7])))
            for i in range(body, lo + n):
                node = (node, leaf((i,)))
            return node
        half = n // 2
        half -= half % _LANES
        return build(lo, half), build(lo + half, n - half)

    tree = build(0, n)
    return tuple(leaves), tree


def summation_leaves(n: int) -> tuple[np.ndarray, ...]:
    """The leaves of NumPy's summation of ``n`` contiguous values.

    The specification is NumPy's pairwise ``add.reduce`` (what
    :func:`accumulate` runs on every contiguous row):

    * fewer than 8 values are added sequentially;
    * 8 to 128 values are added into 8 interleaved partial sums (value
      ``e`` into sum ``e % 8``), combined as
      ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and the ``n % 8`` remainder
      is then added one value at a time;
    * more than 128 values are split at ``n // 2`` rounded down to a
      multiple of 8, each half summed so and the two results added.

    A leaf is a run of that tree summed sequentially from zero — a partial
    sum, or one remainder value.  Returns each leaf's element positions in
    summation order, leaves left to right: ``n = 256`` gives 16 leaves of
    16.  :func:`combine_leaf_sums` adds the leaf sums back in the tree's
    order.  The association is NumPy's implementation, not its documented
    contract; ``tests/test_property_summation.py`` pins it.
    """
    return tuple(np.array(positions, dtype=np.intp)
                 for positions in _summation_tree(int(n))[0])


def combine_leaf_sums(sums: np.ndarray, n: int,
                      slots: "tuple[int, ...] | None" = None) -> np.ndarray:
    """Add the leaf sums of an ``n``-value sum in NumPy's order.

    ``sums[slots[l]]`` holds the sequential sum of leaf ``l`` of
    :func:`summation_leaves` (``slots`` defaults to the identity); any
    trailing axes are batch axes.  The partial sums are added in place into
    ``sums`` — IEEE addition commutes, so ``a += b`` is ``a + b`` bit for
    bit — and the total, a view of ``sums``, is returned.  With sequential
    leaf sums this equals ``np.sum`` over the ``n`` values exactly.
    """
    leaves, tree = _summation_tree(int(n))
    slots = range(len(leaves)) if slots is None else slots
    return sums[_fold(sums, slots, tree)]


def _fold(sums: np.ndarray, slots, node) -> int:
    """Add the sums under ``node`` into its leftmost leaf's slot.  Module
    level, not a recursive closure: that would be a reference cycle
    keeping ``sums`` alive until the cyclic collector runs."""
    if isinstance(node, int):
        return slots[node]
    left = _fold(sums, slots, node[0])
    sums[left] += sums[_fold(sums, slots, node[1])]
    return left


@dataclass(frozen=True, eq=False)
class LeafLayout:
    """The ``(leaf, point, j)`` storage order of a plan's ``(n_points,
    n_elements)`` tensors, for executing them as one CSR product.

    Stored flat, CSR row ``l * n_points + p`` is leaf ``l`` of point ``p``:
    its entries are that leaf's elements in summation order, so SciPy's
    sequential row sum is the leaf sum, and the product reshapes to
    ``(n_leaves, n_points[, n_frames])`` slabs that
    :meth:`combine` adds contiguously.  Leaf-major rows keep adjacent
    points of one leaf — nearby samples of the same elements — adjacent.
    Leaves of equal length are stored together as one ``(n, n_points, k)``
    block (longest first), so writing a block of rows is one strided copy
    per distinct length (at most 16) for any element count.
    """

    n_elements: int
    groups: tuple[np.ndarray, ...]
    """Element positions of each stored ``(n, k)`` block of leaves."""
    slots: tuple[int, ...]
    """Storage slot of each leaf of :func:`summation_leaves`."""

    @classmethod
    @lru_cache(maxsize=64)
    def of(cls, n_elements: int) -> "LeafLayout":
        """The (memoised, shared, read-only) layout for ``n_elements``-term
        sums."""
        leaves = summation_leaves(n_elements)
        order = sorted(range(len(leaves)), key=lambda i: -len(leaves[i]))
        slots = [0] * len(leaves)
        for slot, leaf in enumerate(order):
            slots[leaf] = slot
        lengths = sorted({len(leaf) for leaf in leaves}, reverse=True)
        groups = tuple(np.stack([leaves[i] for i in order
                                 if len(leaves[i]) == k])
                       for k in lengths)
        for positions in groups:
            positions.flags.writeable = False
        return cls(n_elements=int(n_elements), groups=groups,
                   slots=tuple(slots))

    @property
    def n_leaves(self) -> int:
        """Leaves per point: CSR rows per point."""
        return len(self.slots)

    def _blocks(self, stored: np.ndarray, n_points: int
                ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``(n, n_points, k)`` views of ``stored`` with their positions."""
        offset = 0
        for positions in self.groups:
            n, k = positions.shape
            yield (stored[offset:offset + n * n_points * k]
                   .reshape(n, n_points, k), positions)
            offset += n * n_points * k

    def write(self, stored: np.ndarray, n_points: int, rows: slice,
              values: np.ndarray) -> None:
        """Write the natural ``(len(rows), n_elements)`` ``values`` of
        point ``rows`` into the flat ``stored`` tensor of ``n_points``."""
        for block, positions in self._blocks(stored, n_points):
            block[:, rows] = np.moveaxis(np.take(values, positions, axis=1),
                                         1, 0)

    def natural(self, stored: np.ndarray, n_points: int) -> np.ndarray:
        """A natural-order ``(n_points, n_elements)`` copy of ``stored``:
        each point's values gathered in stored element order, then put in
        element order by one ``take`` along the rows (a scatter into
        element columns is ~3.5x slower)."""
        grouped = np.empty((n_points, self.n_elements), dtype=stored.dtype)
        offset = 0
        for block, positions in self._blocks(stored, n_points):
            n, k = positions.shape
            grouped[:, offset:offset + n * k].reshape(n_points, n, k)[...] = \
                np.moveaxis(block, 1, 0)
            offset += n * k
        order = np.concatenate([positions.ravel()
                                for positions in self.groups])
        return np.take(grouped, np.argsort(order), axis=1)

    def indptr(self, n_points: int) -> np.ndarray:
        """The int32 CSR row pointers of ``n_points`` points."""
        shapes = [positions.shape for positions in self.groups]
        lengths = np.repeat([k for _, k in shapes],
                            [n * n_points for n, _ in shapes])
        indptr = np.zeros(lengths.size + 1, dtype=np.int32)
        np.cumsum(lengths, dtype=np.int32, out=indptr[1:])
        return indptr

    def combine(self, sums: np.ndarray) -> np.ndarray:
        """:func:`combine_leaf_sums` over stored-order ``sums``."""
        return combine_leaf_sums(sums, self.n_elements, self.slots)


@dataclass(frozen=True)
class GatherIndex:
    """Precomputed echo-buffer addressing for ``(n_points, n_elements)`` delays.

    ``flat`` (int32) holds ``element * n_samples + sample`` — the nearest
    sample, or the lower neighbour for ``LINEAR`` — into a frame padded by
    :func:`pad_samples`; a fetch outside the echo buffer points at its zero
    pad slot ``n_elements * n_samples`` (a hardware echo buffer addressed
    past its end contributes nothing).  ``LINEAR`` adds the ``upper``
    neighbour and the interpolation ``fraction`` in the execution dtype.

    A ``leaves`` index (nearest only) stores ``flat`` one-dimensional in
    that :class:`LeafLayout`'s ``(leaf, point, j)`` order, beside the int32
    CSR row pointers ``indptr``: the ``indices`` and ``indptr`` of the
    plan's sparse matrix.  :meth:`natural` un-permutes it.
    """

    kind: "InterpolationKind | str"
    n_samples: int
    n_elements: int
    flat: np.ndarray
    upper: np.ndarray | None = None
    fraction: np.ndarray | None = None
    leaves: LeafLayout | None = None
    indptr: np.ndarray | None = None

    @classmethod
    def empty(cls, kind: "InterpolationKind | str", n_points: int,
              n_elements: int, n_samples: int,
              dtype: np.dtype | type = np.float64, *,
              leaf_ordered: bool = False) -> "GatherIndex":
        """An unfilled index of ``n_points`` rows; :meth:`write` fills it.

        ``leaf_ordered`` stores it in :meth:`LeafLayout.of` order.  Its
        sparse matrix holds ``n_points * n_elements`` entries, which must
        fit the int32 row pointers (or SciPy would copy the index into
        int64): a larger range is refused, naming the memory budget that
        splits it into segments.
        """
        int32 = np.iinfo(np.int32).max
        if n_elements * n_samples + 1 > int32:
            raise ValueError(f"a padded {n_elements} x {n_samples}-sample "
                             "echo buffer exceeds the int32 index range")
        kind_value = getattr(kind, "value", kind)
        if kind_value not in (_NEAREST, _LINEAR):
            raise ValueError(f"unknown interpolation kind: {kind!r}")
        shape = (n_points, n_elements)
        if leaf_ordered:
            if kind_value != _NEAREST:
                raise ValueError("only a nearest-sample index is a sparse "
                                 "matrix; a linear one stays natural")
            if n_points * n_elements > int32:
                raise ValueError(
                    f"a plan of {n_points} points x {n_elements} elements "
                    "exceeds the int32 range of its sparse row pointers; "
                    "set a memory budget (memory_budget_bytes) so it "
                    "compiles as smaller tile segments")
            layout = LeafLayout.of(n_elements)
            return cls(kind=kind, n_samples=n_samples, n_elements=n_elements,
                       flat=np.empty(n_points * n_elements, dtype=np.int32),
                       leaves=layout, indptr=layout.indptr(n_points))
        linear = kind_value == _LINEAR
        return cls(kind=kind, n_samples=n_samples, n_elements=n_elements,
                   flat=np.empty(shape, dtype=np.int32),
                   upper=np.empty(shape, dtype=np.int32) if linear else None,
                   fraction=np.empty(shape, dtype=dtype) if linear else None)

    @property
    def n_points(self) -> int:
        """Number of focal points addressed."""
        if self.leaves is not None:
            return self.flat.size // self.n_elements
        return self.flat.shape[0]

    @property
    def nbytes(self) -> int:
        """Memory footprint of the index arrays [bytes]: a leaf-ordered
        index adds one int32 row pointer per (leaf, point) — the leading
        zero of ``indptr`` is not counted, so the footprint is linear in
        the point count."""
        pointers = 0 if self.indptr is None else self.indptr[1:].nbytes
        return pointers + sum(a.nbytes for a in
                              (self.flat, self.upper, self.fraction)
                              if a is not None)

    def natural(self) -> "GatherIndex":
        """This index in natural ``(n_points, n_elements)`` order: itself,
        or an un-permuted copy of a leaf-ordered one."""
        if self.leaves is None:
            return self
        return replace(self, flat=self.leaves.natural(self.flat,
                                                      self.n_points),
                       leaves=None, indptr=None)

    def rows(self, rows: slice) -> "GatherIndex":
        """A view of this (natural-order) index restricted to a contiguous
        point block."""
        if self.leaves is not None:
            raise ValueError("a leaf-ordered index has no contiguous point "
                             "rows; take rows of natural()")

        def cut(array: np.ndarray | None) -> np.ndarray | None:
            return array[rows] if array is not None else None

        return replace(self, flat=self.flat[rows], upper=cut(self.upper),
                       fraction=cut(self.fraction))

    def write(self, rows: slice, delays: np.ndarray) -> None:
        """Round the ``float64`` fractional-sample ``delays`` of ``rows``
        into place — the only place delays are rounded, so nearest/linear
        addressing is defined here once for every execution path."""
        if self.upper is None:
            offsets = self._offsets(np.floor(delays + 0.5))
            if self.leaves is None:
                self.flat[rows] = offsets
            else:
                # Cast while contiguous: the permuting copy then moves int32.
                self.leaves.write(self.flat, self.n_points, rows,
                                  offsets.astype(np.int32))
            return
        lower = np.floor(delays)
        self.flat[rows] = self._offsets(lower)
        self.upper[rows] = self._offsets(lower + 1.0)
        self.fraction[rows] = delays - lower

    def _offsets(self, sample: np.ndarray) -> np.ndarray:
        """Whole-sample positions -> flat offsets (pad slot when outside)."""
        inside = (sample >= 0) & (sample < self.n_samples)
        bases = np.arange(self.n_elements) * self.n_samples
        return np.where(inside, sample + bases,
                        self.n_elements * self.n_samples)


def build_gather_index(delays_samples: np.ndarray, n_samples: int,
                       kind: "InterpolationKind | str" = _NEAREST,
                       dtype: np.dtype | type = np.float64) -> GatherIndex:
    """Round fractional-sample delays into a flat gather index.

    ``delays_samples`` has shape ``(n_points, n_elements)``; ``n_samples``
    is the echo-buffer length the index addresses, and ``dtype`` the
    execution dtype the ``LINEAR`` fraction is stored in.
    """
    delays = np.asarray(delays_samples, dtype=np.float64)
    if delays.ndim != 2:
        raise ValueError("delays must have shape (n_points, n_elements), "
                         f"got {delays.shape}")
    index = GatherIndex.empty(kind, *delays.shape, n_samples, dtype)
    index.write(slice(None), delays)
    return index


def pad_samples(samples: np.ndarray, index: GatherIndex) -> np.ndarray:
    """Ravel each ``(n_elements, n_samples)`` frame and append the zero pad
    slot: ``(E*S + 1,)`` for one frame, ``(E*S + 1, n_frames)`` for a stack
    — frames innermost, so one flat offset fetches every frame's sample
    from one cache line.  One copy per call; every chunk gathers from it.
    """
    samples = np.asarray(samples)
    n = index.n_elements * index.n_samples
    if samples.ndim not in (2, 3) or \
            samples.shape[-2:] != (index.n_elements, index.n_samples):
        raise ValueError(f"samples must be ([n_frames,] {index.n_elements}, "
                         f"{index.n_samples}) for this gather index, got "
                         f"{samples.shape}")
    padded = np.empty((n + 1, *samples.shape[:-2]), dtype=samples.dtype)
    padded[:n] = np.moveaxis(samples.reshape(*samples.shape[:-2], n), -1, 0)
    padded[n] = 0
    return padded


def gather_padded(padded: np.ndarray, index: GatherIndex) -> np.ndarray:
    """Fetch (and, for LINEAR, interpolate) from a :func:`pad_samples`
    buffer: one ``np.take`` per neighbour, no masks.  A stacked buffer gives
    a C-contiguous ``(n_frames, n_points, n_elements)`` result."""
    values = np.take(padded, index.flat, axis=0)
    if index.upper is not None:
        fraction = index.fraction.astype(padded.dtype, copy=False)
        fraction = fraction.reshape(fraction.shape + (1,) * (padded.ndim - 1))
        values = (1.0 - fraction) * values \
            + fraction * np.take(padded, index.upper, axis=0)
    return np.ascontiguousarray(np.moveaxis(values, 2, 0)) \
        if padded.ndim == 2 else values


def gather_interp(samples: np.ndarray, index: GatherIndex) -> np.ndarray:
    """Fetch (and, for LINEAR, interpolate) echo samples via a gather index.

    The result is carried in ``samples.dtype`` — cast the buffer once before
    calling to select the execution precision.
    """
    return gather_padded(pad_samples(samples, index), index)


def apply_weights(samples: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Apodize gathered samples (weights broadcast over any batch axis)."""
    return weights.astype(samples.dtype, copy=False) * samples


def accumulate(weighted: np.ndarray) -> np.ndarray:
    """Sum the weighted samples across the trailing element axis (Eq. 1)."""
    return np.sum(weighted, axis=-1)


def coerce_samples(samples: "np.ndarray | object", dtype: np.dtype | type,
                   quantization: "QuantizationSpec | None" = None
                   ) -> np.ndarray:
    """The raw samples of a frame (a ``ChannelData`` or an array), cast to
    the execution ``dtype`` — or, under ``quantization``, quantised into its
    sample format as the front-end registers deliver them.

    Both coercions are idempotent, so a caller may coerce a frame once and
    hand it to paths that coerce again without changing a bit.
    """
    samples = np.asarray(getattr(samples, "samples", samples), dtype=dtype)
    if quantization is None:
        return samples
    return quantization.quantize_samples(samples)


def weigh(gathered: np.ndarray, weights: np.ndarray,
          quantization: "QuantizationSpec | None" = None) -> np.ndarray:
    """Apodize a *private* gathered buffer in place (the multiply of
    :func:`apply_weights`, without a second ``(..., n_points,
    n_elements)`` array) — and, under ``quantization``, round every product
    into the accumulator format: one hardware rounding stage per element.
    """
    weighted = np.multiply(weights.astype(gathered.dtype, copy=False),
                           gathered, out=gathered)
    if quantization is None:
        return weighted
    return quantization.quantize_accumulator(weighted)


def total(weighted: np.ndarray,
          quantization: "QuantizationSpec | None" = None) -> np.ndarray:
    """:func:`accumulate`, then — under ``quantization`` — saturate each
    sum into the accumulator format.  Quantised products are dyadic
    rationals well inside 53 bits, so the float sum between the two
    rounding stages is exact: the hardware's arithmetic, bit for bit."""
    summed = accumulate(weighted)
    if quantization is None:
        return summed
    return quantization.quantize_accumulator(summed)


def delay_and_sum(samples: np.ndarray, delays_samples: np.ndarray,
                  weights: np.ndarray,
                  kind: "InterpolationKind | str" = _NEAREST,
                  dtype: np.dtype | type = np.float64,
                  quantization: "QuantizationSpec | None" = None
                  ) -> np.ndarray:
    """One-shot gather/weight/accumulate for freshly generated delays.

    The uncompiled entry point: used where delays are produced per call (the
    per-scanline reference loop, arbitrary-point beamforming) and caching an
    index would buy nothing.  Compiled execution goes through
    :class:`repro.kernels.plan.BeamformingPlan` instead.

    ``quantization`` runs the bit-true fixed-point datapath: delays and
    weights are quantised here as a plan quantises them at compile time,
    so the result equals the plan's over the same points bit for bit.
    Inputs already quantised pass through unchanged, which lets callers
    hoist the echo-buffer coercion out of per-scanline loops.
    """
    if quantization is not None:
        quantization.validate_for(dtype, kind)
        delays_samples = quantization.quantize_delays(
            np.asarray(delays_samples, dtype=np.float64))
        weights = quantization.quantize_weights(weights)
    samples = coerce_samples(samples, dtype, quantization)
    index = build_gather_index(delays_samples, samples.shape[-1], kind, dtype)
    return total(weigh(gather_interp(samples, index), weights, quantization),
                 quantization)
