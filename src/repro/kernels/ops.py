"""Low-level beamforming kernels: gather, weight, accumulate.

Every consumer of delays in this codebase — the per-scanline classic loop,
the whole-volume vectorized backend and the batched multi-frame path —
ultimately performs the same three steps:

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
:class:`LeafLayout` is the ``(leaf, point, j)`` order of such a plan's
rows, and :class:`LeafRows` those rows with the zero-weight entries
pruned — a dropped ``(±0.0)·x`` term changes no bit of a sum of finite
samples; :meth:`GatherIndex.write_leaf_group` rounds each leaf's delays
straight into them, for one plan or a firing group's plans in lockstep.

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
from typing import TYPE_CHECKING, Iterable, Iterator, NamedTuple, Sequence

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
    "LeafRows",
    "PaddedFrames",
    "WeightSplit",
    "accumulate",
    "all_finite",
    "apply_weights",
    "build_gather_index",
    "check_samples",
    "coerce_samples",
    "combine_leaf_sums",
    "delay_and_sum",
    "frame_vector",
    "gather_interp",
    "gather_padded",
    "pad_frames",
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
    n_elements)`` entries, for executing them as one CSR product.

    Stored flat, CSR row ``l * n_points + p`` is leaf ``l`` of point ``p``:
    its entries are that leaf's elements in summation order, so SciPy's
    sequential row sum is the leaf sum, and the product reshapes to
    ``(n_leaves, n_points[, n_frames])`` slabs that
    :meth:`combine` adds contiguously.  Leaf-major rows keep adjacent
    points of one leaf — nearby samples of the same elements — adjacent.
    Leaves of equal length are stored together as one ``(n, n_points, k)``
    block (longest first), so permuting a block of rows is one strided
    copy per distinct length (at most 16) for any element count.  A plan
    stores the pruned :class:`LeafRows` of this order.
    """

    n_elements: int
    groups: tuple[np.ndarray, ...]
    """Element positions of each stored ``(n, k)`` block of leaves."""
    slots: tuple[int, ...]
    """Storage slot of each leaf of :func:`summation_leaves`."""
    stored_leaves: tuple[np.ndarray, ...]
    """Element positions of the leaf in each storage slot, in summation
    order: the rows of :attr:`groups`, one after another."""
    offsets: np.ndarray
    """``(3, n_elements)`` int64 ``(slab, column, stride)`` of each
    element: in an ``n_points`` range, element ``e`` of point ``p`` is
    stored at ``n_points * slab[e] + p * stride[e] + column[e]``."""

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
        offsets = np.empty((3, n_elements), dtype=np.int64)
        slab = 0
        for positions in groups:
            n, k = positions.shape
            offsets[0, positions] = slab + k * np.arange(n)[:, None]
            offsets[1, positions] = np.arange(k)
            offsets[2, positions] = k
            slab += n * k
            positions.flags.writeable = False
        offsets.flags.writeable = False
        return cls(n_elements=int(n_elements), groups=groups,
                   slots=tuple(slots),
                   stored_leaves=tuple(leaf for block in groups
                                       for leaf in block),
                   offsets=offsets)

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

    def _rows(self, stored: np.ndarray, n_points: int
              ) -> Iterator[np.ndarray]:
        """The ``(n_points, k)`` view of ``stored`` of every leaf, in
        storage order."""
        for block, _positions in self._blocks(stored, n_points):
            yield from block

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

    def combine(self, sums: np.ndarray) -> np.ndarray:
        """:func:`combine_leaf_sums` over stored-order ``sums``."""
        return combine_leaf_sums(sums, self.n_elements, self.slots)


_COMPRESS_BLOCK = 1 << 16
"""Entries compressed per step of :meth:`LeafRows.build`."""


class WeightSplit(NamedTuple):
    """The receive weights of a block of points, by how each is known:
    :meth:`repro.beamformer.das.DelayAndSumBeamformer.split_weights`.

    An ``inside`` entry weighs its aperture weight (directivity 1), an
    entry listed in ``elements`` / ``points`` weighs the matching
    ``weights`` entry, and every other entry weighs zero.
    """

    inside: np.ndarray
    """``(n_elements, n_points)`` bool, element-major."""
    elements: np.ndarray
    """Element of each exactly computed entry."""
    points: np.ndarray
    """Point (within the block) of each exactly computed entry."""
    weights: np.ndarray
    """float64 weight of each exactly computed entry."""


@dataclass(frozen=True, eq=False)
class LeafRows:
    """The leaf rows of one point range with their structural zeros
    pruned: the CSR row pointers and ``data`` of a float nearest plan.

    Directivity apodization weights an element that cannot see a point
    by exactly zero.  Such a term is ``(±0.0)·x``, which is ±0.0 for a
    finite sample ``x``; SciPy's row sum starts at +0.0, a sum that starts
    at +0.0 never becomes −0.0, and adding ±0.0 to it changes nothing.  So
    a leaf row that skips those terms sums to the same bits, and only the
    ``kept`` entries — the weights non-zero in the execution dtype — are
    stored, gathered and multiplied.  Rows keep the :class:`LeafLayout`
    order (row ``slot * n_points + p``, entries in summation order); their
    lengths vary, so ``indptr`` delimits them.

    Built once per geometry, dtype and point range (:meth:`build`) and
    shared, read-only, by every plan of that range; a plan adds only its
    own gather index, written leaf by leaf through
    :meth:`GatherIndex.write_leaf_group`.
    """

    layout: LeafLayout
    n_points: int
    kept: np.ndarray
    """Which entries are stored: bool, flat in :attr:`layout` order."""
    indptr: np.ndarray
    """int32 CSR row pointers, one row per (leaf, point)."""
    weights: np.ndarray
    """The kept weights in row order: the CSR ``data``."""

    @classmethod
    def build(cls, aperture: np.ndarray, n_points: int,
              splits: Iterable[tuple[slice, WeightSplit]]) -> "LeafRows":
        """The leaf rows of ``n_points`` points from ``splits`` of their
        weights: ``(rows, split)`` pairs covering the points in order,
        ``split`` the :class:`WeightSplit` of points ``rows``, and
        ``aperture`` the ``(n_elements,)`` aperture weights in the
        execution dtype.

        Each split is written straight into leaf order.  An inside entry is
        kept where its aperture weight is non-zero, and stores it: its
        weight is ``1.0 * a``, cast, which is ``a`` cast.  Each leaf's
        inside rows are one row gather of the element-major mask, and its
        weights one copy of the leaf's aperture weights per point.  The
        few exactly computed entries are then cast and scattered to their
        leaf-order offsets (:attr:`LeafLayout.offsets`), kept where
        non-zero in the execution dtype.  The range is then counted row by
        row, and its weights are compressed in place, front to back — a
        kept entry only ever moves left — before the pruned tail is handed
        back: the unpruned weights are the one range-sized buffer the build
        holds beside the mask.  The CSR matrix needs int32 row pointers
        (SciPy would copy the index into int64 otherwise), so a range of
        more than 2^31 - 1 unpruned entries is refused before anything is
        built, naming the memory budget that splits it into segments.
        """
        n_elements = aperture.shape[0]
        if n_points * n_elements > np.iinfo(np.int32).max:
            raise ValueError(
                f"a plan of {n_points} points x {n_elements} elements "
                "exceeds the int32 range of its sparse row pointers; set a "
                "memory budget (memory_budget_bytes) so it compiles as "
                "smaller tile segments")
        layout = LeafLayout.of(n_elements)
        kept = np.empty(n_points * n_elements, dtype=bool)
        weights = np.empty(n_points * n_elements, dtype=aperture.dtype)
        nonzero = (aperture != 0)[:, None]
        slab, column, stride = layout.offsets
        for rows, split in splits:
            inside = split.inside & nonzero
            for (mask, positions), (block, _) in zip(
                    layout._blocks(kept, n_points),
                    layout._blocks(weights, n_points)):
                mask[:, rows] = np.take(inside, positions,
                                        axis=0).transpose(0, 2, 1)
                block[:, rows] = aperture[positions][:, None, :]
            elements = split.elements
            at = (n_points * slab[elements] + column[elements]
                  + (rows.start + split.points) * stride[elements])
            values = split.weights.astype(aperture.dtype, copy=False)
            weights[at] = values
            kept[at] = values != 0
        indptr = np.zeros(layout.n_leaves * n_points + 1, dtype=np.int32)
        row = 0
        for mask, positions in layout._blocks(kept, n_points):
            n, k = positions.shape
            # A leaf has at most 16 entries, so a uint8 sum counts it.
            indptr[row + 1:row + n * n_points + 1] = np.einsum(
                "ij->i", mask.reshape(n * n_points, k).view(np.uint8))
            row += n * n_points
        np.cumsum(indptr, dtype=np.int32, out=indptr)
        end = 0
        for lo in range(0, weights.size, _COMPRESS_BLOCK):
            chunk = weights[lo:lo + _COMPRESS_BLOCK][
                kept[lo:lo + _COMPRESS_BLOCK]]
            weights[end:end + chunk.size] = chunk
            end += chunk.size
        # No view of the buffer is left, so the shrinking realloc (which
        # may move it) is safe.
        weights.resize(end, refcheck=False)
        for array in (kept, indptr, weights):
            array.flags.writeable = False
        return cls(layout=layout, n_points=int(n_points), kept=kept,
                   indptr=indptr, weights=weights)

    @property
    def n_leaves(self) -> int:
        """Leaves per point: CSR rows per point."""
        return self.layout.n_leaves

    @property
    def nnz(self) -> int:
        """Kept entries: the stored length of every tensor of the range."""
        return int(self.indptr[-1])

    def natural(self, stored: np.ndarray, fill) -> np.ndarray:
        """A natural-order ``(n_points, n_elements)`` copy of the kept
        ``stored`` entries, ``fill`` at every pruned position."""
        full = np.full(self.kept.size, fill, dtype=stored.dtype)
        full[self.kept] = stored
        return self.layout.natural(full, self.n_points)


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
    the row order of those :class:`LeafRows`, one offset per kept weight:
    the ``indices`` of the plan's sparse matrix, whose ``indptr`` and
    ``data`` the shared rows hold.  :meth:`natural` un-permutes it.
    """

    kind: "InterpolationKind | str"
    n_samples: int
    n_elements: int
    flat: np.ndarray
    upper: np.ndarray | None = None
    fraction: np.ndarray | None = None
    leaves: LeafRows | None = None

    @classmethod
    def empty(cls, kind: "InterpolationKind | str", n_points: int,
              n_elements: int, n_samples: int,
              dtype: np.dtype | type = np.float64, *,
              leaves: LeafRows | None = None) -> "GatherIndex":
        """An unfilled index of ``n_points`` rows; :meth:`write` fills it,
        or :meth:`write_leaf_group` a leaf-ordered one.

        Given ``leaves`` (the range's :class:`LeafRows`), it stores one
        offset per kept entry in their row order.
        """
        if n_elements * n_samples + 1 > np.iinfo(np.int32).max:
            raise ValueError(f"a padded {n_elements} x {n_samples}-sample "
                             "echo buffer exceeds the int32 index range")
        kind_value = getattr(kind, "value", kind)
        if kind_value not in (_NEAREST, _LINEAR):
            raise ValueError(f"unknown interpolation kind: {kind!r}")
        shape = (n_points, n_elements)
        if leaves is not None:
            if kind_value != _NEAREST:
                raise ValueError("only a nearest-sample index is a sparse "
                                 "matrix; a linear one stays natural")
            if (leaves.n_points, leaves.layout.n_elements) != shape:
                raise ValueError(f"leaf rows of {leaves.n_points} x "
                                 f"{leaves.layout.n_elements} entries do "
                                 f"not fit a {n_points} x {n_elements} "
                                 "index")
            return cls(kind=kind, n_samples=n_samples, n_elements=n_elements,
                       flat=np.empty(leaves.nnz, dtype=np.int32),
                       leaves=leaves)
        linear = kind_value == _LINEAR
        return cls(kind=kind, n_samples=n_samples, n_elements=n_elements,
                   flat=np.empty(shape, dtype=np.int32),
                   upper=np.empty(shape, dtype=np.int32) if linear else None,
                   fraction=np.empty(shape, dtype=dtype) if linear else None)

    @property
    def n_points(self) -> int:
        """Number of focal points addressed."""
        if self.leaves is not None:
            return self.leaves.n_points
        return self.flat.shape[0]

    @property
    def pad_slot(self) -> int:
        """The flat offset of the zero pad slot: every out-of-buffer
        fetch."""
        return self.n_elements * self.n_samples

    @property
    def nbytes(self) -> int:
        """Memory footprint of the index arrays [bytes]: a leaf-ordered
        index adds one int32 row pointer per (leaf, point) — the leading
        zero of ``indptr`` is not counted, so the footprint is linear in
        the point count.  The row pointers are shared by every index of
        the range, like the weights, but counted in each."""
        pointers = 0 if self.leaves is None else self.leaves.indptr[1:].nbytes
        return pointers + sum(a.nbytes for a in
                              (self.flat, self.upper, self.fraction)
                              if a is not None)

    def natural(self) -> "GatherIndex":
        """This index in natural ``(n_points, n_elements)`` order: itself,
        or an un-permuted copy of a leaf-ordered one, pruned entries
        pointing at the pad slot (which a gather reads as zero)."""
        if self.leaves is None:
            return self
        return replace(self, flat=self.leaves.natural(self.flat,
                                                      self.pad_slot),
                       leaves=None)

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
        into place in a natural index.  With :meth:`write_leaf_group` (the
        leaf-ordered index) this is the only place delays are rounded —
        nearest through :func:`_round_nearest`, linear by a floor — and
        both address through :meth:`_offsets`, so nearest/linear
        addressing is defined once for every execution path.  The delays
        must be finite (every delay provider's are)."""
        if self.leaves is not None:
            raise ValueError("a leaf-ordered index is written leaf by leaf "
                             "(write_leaf_group)")
        bases = np.arange(0, self.pad_slot, self.n_samples, dtype=np.int32)
        flat = self.flat[rows]
        if self.upper is None:
            self._offsets(_round_nearest(delays, flat), bases, flat)
            return
        lower = np.floor(delays)
        self.fraction[rows] = delays - lower
        upper = self.upper[rows]
        np.add(_floor_into(lower, flat), 1, out=upper)
        self._offsets(flat, bases, flat)
        self._offsets(upper, bases, upper)

    @staticmethod
    def write_leaf_group(
            indexes: Sequence["GatherIndex"],
            slabs: Iterable[tuple[int, slice,
                                  Sequence[tuple[np.ndarray,
                                                 np.ndarray | None]]]]
    ) -> None:
        """Round several leaf-ordered indexes into place in lockstep, one
        slab at a time.

        The indexes share one :class:`LeafRows` and buffer length, as the
        plans of one range do.  ``slabs`` yields ``(slot, rows, pairs)``,
        one ``(delays, shift)`` pair per index, in order: ``delays`` are
        the finite ``float64`` ``(len(rows), k)`` delays of point ``rows``
        at the elements of the leaf in storage ``slot``
        (:attr:`LeafLayout.stored_leaves`), columns in that order — already
        in summation order, so no natural-order block is ever permuted —
        and ``shift`` is ``None`` or a ``(len(rows),)`` per-point term
        added to every column first: ``delays + shift[:, None]``, the very
        float add a caller would make.  ``delays`` may instead be int32
        sample positions already rounded to nearest — a provider that
        rounds in its own fixed-point datapath (TABLESTEER's
        ``tile_delay_indices``) — which take no shift.  Pairs may share
        one ``delays`` array: a firing group passes its base slab once per
        firing.

        Each float pair is rounded as :meth:`write` rounds a nearest
        index, in scratch buffers reused from slab to slab and index to
        index: add the shift, then :func:`_round_nearest` (add 0.5, floor
        into int32).  Every slab's positions then take one unsigned range
        test, the leaf's element bases and the pad slot where outside
        (:meth:`_offsets`), and are compressed by the leaf's kept mask
        straight into its index's contiguous run of ``flat``, the CSR rows
        ``slot * n_points + rows``.  Every entry is rounded exactly as in
        the natural index, so each result is that index permuted into leaf
        order and pruned, and no index ever holds more than its own
        entries.
        """
        first = indexes[0]
        leaves = first.leaves
        if leaves is None:
            raise ValueError("a natural index is written by write()")
        if any(index.leaves is not leaves
               or index.n_samples != first.n_samples for index in indexes):
            raise ValueError("indexes written in lockstep share one "
                             "LeafRows and one buffer length")
        n_points, layout = leaves.n_points, leaves.layout
        masks = tuple(layout._rows(leaves.kept, n_points))
        scratch = (np.empty(0), np.empty(0, np.int32), np.empty(0, bool))
        for slot, rows, pairs in slabs:
            lo, hi, _ = rows.indices(n_points)
            leaf = layout.stored_leaves[slot]
            shape = (hi - lo, leaf.size)
            if len(pairs) != len(indexes):
                raise ValueError(f"{len(indexes)} indexes take as many "
                                 f"delay slabs, got {len(pairs)}")
            if shape[0] * shape[1] > scratch[0].size:
                scratch = tuple(np.empty(shape[0] * shape[1],
                                         dtype=buffer.dtype)
                                for buffer in scratch)
            sample, offsets, outside = (
                buffer[:shape[0] * shape[1]].reshape(shape)
                for buffer in scratch)
            bases = leaf.astype(np.int32) * first.n_samples
            mask = masks[slot][lo:hi].ravel()
            row = slot * n_points
            run = slice(leaves.indptr[row + lo], leaves.indptr[row + hi])
            for index, (delays, shift) in zip(indexes, pairs):
                delays = np.asarray(delays)
                rounded = delays.dtype == np.int32
                if not rounded:
                    if delays.dtype.kind in "iub":
                        raise ValueError(
                            "rounded sample positions are int32, got "
                            f"{delays.dtype}")
                    delays = delays.astype(np.float64, copy=False)
                if delays.shape != shape:
                    raise ValueError(f"leaf slot {slot} of rows [{lo}, {hi}) "
                                     f"takes {shape} delays, got "
                                     f"{delays.shape}")
                if rounded:
                    if shift is not None:
                        raise ValueError("rounded int32 positions take no "
                                         "shift; shift the float delays")
                    positions = delays
                else:
                    if shift is not None:
                        delays = np.add(delays, shift[:, None], out=sample)
                    positions = _round_nearest(delays, offsets, sample)
                index._offsets(positions, bases, offsets, outside)
                np.compress(mask, offsets.ravel(), out=index.flat[run])

    def _offsets(self, positions: np.ndarray, bases: np.ndarray,
                 out: np.ndarray, outside: np.ndarray | None = None
                 ) -> np.ndarray:
        """int32 sample ``positions`` -> flat offsets into ``out`` (which
        may be ``positions``): ``bases`` (each column's element base) plus
        the position, or the pad slot when outside the echo buffer.

        ``0 <= position < n_samples`` is one unsigned compare (into
        ``outside``, when given): a negative position wraps past
        ``n_samples``, and so does one :func:`_floor_into` cast from
        beyond the int32 range.  Inside the buffer every step is exact, so
        the offsets equal the float sum's.
        """
        outside = np.greater_equal(positions.view(np.uint32),
                                   self.n_samples, out=outside)
        np.add(positions, bases, out=out)
        np.copyto(out, self.pad_slot, where=outside)
        return out


def _floor_into(sample: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Floor float sample positions straight into int32 ``out``.  A
    position beyond the int32 range casts to one outside every echo
    buffer, which :meth:`GatherIndex._offsets` sends to the pad slot."""
    with np.errstate(invalid="ignore"):
        np.floor(sample, out=out, casting="unsafe")
    return out


def _round_nearest(delays: np.ndarray, out: np.ndarray,
                   sample: np.ndarray | None = None) -> np.ndarray:
    """The one nearest rounding of float delays: add 0.5 (into the float
    scratch ``sample`` when given, which may be ``delays``), then floor
    into int32 ``out`` (:func:`_floor_into`)."""
    return _floor_into(np.add(delays, 0.5, out=sample), out)


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


def pad_samples(samples: np.ndarray,
                index: GatherIndex | None = None) -> np.ndarray:
    """Ravel each ``(n_elements, n_samples)`` frame and append the zero pad
    slot: ``(E*S + 1,)`` for one frame, ``(E*S + 1, n_frames)`` for a stack
    — frames innermost, so one flat offset fetches every frame's sample
    from one cache line.  One copy per call; every chunk (and every tile
    segment) gathers from it.  Given an ``index``, the frames must have the
    shape it addresses.
    """
    samples = np.asarray(samples)
    if samples.ndim not in (2, 3) or index is not None and \
            samples.shape[-2:] != (index.n_elements, index.n_samples):
        expected = "n_elements, n_samples" if index is None else \
            f"{index.n_elements}, {index.n_samples}"
        raise ValueError(f"samples must be ([n_frames,] {expected}) for "
                         f"this gather index, got {samples.shape}")
    n = samples.shape[-2] * samples.shape[-1]
    padded = np.empty((n + 1, *samples.shape[:-2]), dtype=samples.dtype)
    padded[:n] = np.moveaxis(samples.reshape(*samples.shape[:-2], n), -1, 0)
    padded[n] = 0
    return padded


def check_samples(compiled: int, n_samples: int) -> None:
    """Refuse a frame of ``n_samples`` samples for plans compiled for
    ``compiled``-sample echo buffers, naming both lengths."""
    if int(n_samples) != int(compiled):
        raise ValueError(
            f"plan was compiled for {int(compiled)}-sample echo buffers; "
            f"got a frame of {int(n_samples)} samples")


# Samples per block of all_finite's scan: its cast and boolean temporaries
# stay a few hundred KiB, in cache, whatever the frame size.
_SCAN_BLOCK = 1 << 16


def all_finite(samples: "np.ndarray | object", dtype: np.dtype | type
               ) -> bool:
    """Whether every sample of a frame (a ``ChannelData`` or an array) is
    finite in the execution ``dtype``.

    One pass over the frame, in blocks of about 65 536 samples
    (whole rows, views of the frame): each block is cast to ``dtype`` and
    tested with ``np.isfinite``, so a float64 sample beyond float32's
    range, which a float32 plan coerces to inf, is caught, and no
    temporary grows with the frame.
    """
    samples = np.atleast_2d(np.asarray(getattr(samples, "samples", samples)))
    step = max(1, _SCAN_BLOCK // max(1, samples[0].size))
    with np.errstate(over="ignore"):
        return all(np.isfinite(samples[start:start + step].astype(
            dtype, copy=False)).all() for start in range(0, len(samples), step))


def frame_vector(samples: np.ndarray, dtype: np.dtype | type
                 ) -> np.ndarray | None:
    """The ``(E*S + 1,)`` padded vector a frame already lies in, or
    ``None``.

    A frame qualifies when it is a C-contiguous view, in the execution
    ``dtype``, at the start of a buffer one element longer whose last
    element is 0: that buffer *is* :func:`pad_samples` of the frame, and is
    read in place.  The echo simulator leaves every trace so
    (:meth:`repro.acoustics.echo.EchoSimulator.simulate_events`).
    """
    base = samples.base
    if (samples.dtype != dtype or not samples.flags.c_contiguous
            or not isinstance(base, np.ndarray) or base.ndim != 1
            or base.dtype != samples.dtype
            or base.size != samples.size + 1
            or base.ctypes.data != samples.ctypes.data):
        return None
    return base if base[-1] == 0 else None


class PaddedFrames:
    """One call's frames as the zero-padded buffers a plan reads
    (:func:`pad_frames`).

    When every frame already lies in its ``(E*S + 1,)`` padded vector
    (:func:`frame_vector`, without ``quantization``), :attr:`vectors` lists
    those vectors and a float nearest (CSR) plan reads them in place, one
    frame at a time.  Otherwise :attr:`vectors` is ``None`` and every plan
    reads :meth:`interleaved`: one ``(E*S + 1, n_frames)`` buffer of
    coerced frames, frames innermost, so one flat offset fetches every
    frame's sample from one cache line.  It is built on the first read and
    kept for the call's later reads (the other tiles of a tiled run), so
    each frame is copied once per call.
    """

    def __init__(self, frames: "Sequence[object]", dtype: np.dtype | type,
                 quantization: "QuantizationSpec | None",
                 shape: tuple[int, int]) -> None:
        self.frames = frames
        self.dtype = np.dtype(dtype)
        self.quantization = quantization
        self.shape = tuple(shape)
        self._interleaved: np.ndarray | None = None
        samples = [np.asarray(getattr(frame, "samples", frame))
                   for frame in frames]
        for got in samples:
            if got.shape != self.shape:
                if got.ndim == 2:
                    check_samples(self.shape[1], got.shape[1])
                raise ValueError(f"a frame must be {self.shape} (n_elements, "
                                 f"n_samples), got {got.shape}")
        vectors = [] if quantization is not None else \
            [frame_vector(frame, self.dtype) for frame in samples]
        self.vectors = vectors if vectors and \
            all(vector is not None for vector in vectors) else None

    def __len__(self) -> int:
        return len(self.frames)

    def interleaved(self) -> np.ndarray:
        """The ``(E*S + 1, n_frames)`` buffer: each frame coerced and
        written straight into its column, without stacking them first."""
        if self._interleaved is None:
            n = self.shape[0] * self.shape[1]
            padded = np.empty((n + 1, len(self.frames)), dtype=self.dtype)
            padded[n] = 0
            for column, frame in enumerate(self.frames):
                padded[:n, column] = coerce_samples(
                    frame, self.dtype, self.quantization).reshape(n)
            self._interleaved = padded
        return self._interleaved


def pad_frames(frames: "Sequence[object]", dtype: np.dtype | type,
               quantization: "QuantizationSpec | None",
               shape: tuple[int, int]) -> PaddedFrames:
    """The :class:`PaddedFrames` of ``frames`` in ``dtype`` (coerced under
    ``quantization``): nothing is copied until a plan reads them.

    Every frame must be ``shape``, ``(n_elements, n_samples)``; a frame of
    another buffer length is refused naming both lengths
    (:func:`check_samples`).  ``frames`` is a non-empty sequence — of
    ``ChannelData``, arrays, or the frames of an ``(n_frames, n_elements,
    n_samples)`` array.
    """
    return PaddedFrames(frames, dtype, quantization, shape)


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
