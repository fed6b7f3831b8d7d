"""Property-based tests (hypothesis) for NumPy's summation order.

The float nearest-sample plan is bit-identical to ``np.sum`` only because
:func:`repro.kernels.ops.summation_leaves` and
:func:`repro.kernels.ops.combine_leaf_sums` copy the association of NumPy's
pairwise ``add.reduce``.  That association is an implementation detail of
NumPy, not a documented contract, so these tests pin it directly:

* sequential per-leaf sums combined by the helper equal ``np.sum`` over
  the last axis for every row length up to 2048 and for the ``paper``
  preset's 10 000 elements, in float64 and float32, for single rows and
  for batched ``(n_frames, n_points, n)`` inputs — a NumPy upgrade that
  changes the association fails here, loudly;
* SciPy's CSR product over pruned :class:`~repro.kernels.ops.LeafRows`
  sums each leaf row sequentially (a SciPy build contracting ``sum += a *
  x`` into a fused multiply-add would fail here);
* pruning the zero-weight entries changes no byte of the product or of
  the combine, against an unpruned matrix built independently;
* the leaves partition the row, and the rows' build, the leaf-ordered
  index writer, natural copies and row pointers are exact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.kernels.ops import GatherIndex, LeafLayout, LeafRows, \
    WeightSplit, build_gather_index, combine_leaf_sums, summation_leaves

row_lengths = st.one_of(st.integers(1, 2048), st.just(10_000))
dtypes = st.sampled_from([np.float64, np.float32])
batch_shapes = st.sampled_from([(), (3, 5)])


def _values(seed: int, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Signed values over six decades, so every association rounds
    differently."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-3, 3, size=shape)
    return (rng.standard_normal(shape) * scale).astype(dtype)


def _sequential(values: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """One leaf summed from zero, one value at a time (SciPy's row loop)."""
    total = np.zeros(values.shape[:-1], dtype=values.dtype)
    for position in positions:
        total += values[..., position]
    return total


@given(n=row_lengths, dtype=dtypes, batch=batch_shapes,
       seed=st.integers(0, 2**32 - 1))
@example(n=7, dtype=np.float64, batch=(), seed=0)
@example(n=8, dtype=np.float64, batch=(), seed=0)
@example(n=128, dtype=np.float32, batch=(3, 5), seed=1)
@example(n=129, dtype=np.float64, batch=(3, 5), seed=2)
@example(n=256, dtype=np.float64, batch=(3, 5), seed=3)
@example(n=1025, dtype=np.float32, batch=(), seed=4)
@example(n=2048, dtype=np.float64, batch=(3, 5), seed=5)
@example(n=10_000, dtype=np.float32, batch=(3, 5), seed=6)
@settings(max_examples=150, deadline=None)
def test_leaf_sums_combine_to_numpy_sum(n, dtype, batch, seed):
    values = _values(seed, (*batch, n), dtype)
    leaves = summation_leaves(n)
    sums = np.stack([_sequential(values, leaf) for leaf in leaves])
    combined = combine_leaf_sums(sums, n)
    expected = np.sum(values, axis=-1)
    assert combined.dtype == expected.dtype
    np.testing.assert_array_equal(combined, expected)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("batch", [(), (2, 3)])
def test_every_row_length_combines_to_numpy_sum(dtype, batch):
    """The same pin, exhaustively over 1..2048 and 10 000: each layout's
    leaves of one length are summed together, position by position, into
    stored-order slots."""
    for n in [*range(1, 2049), 10_000]:
        values = _values(n, (*batch, n), dtype)
        layout = LeafLayout.of(n)
        sums = np.concatenate([
            _sequential(np.moveaxis(values[..., positions], -2, 0),
                        range(positions.shape[1]))
            for positions in layout.groups])
        np.testing.assert_array_equal(layout.combine(sums),
                                      np.sum(values, axis=-1), err_msg=n)


@given(n=st.integers(1, 2048) | st.just(10_000))
@settings(max_examples=100, deadline=None)
def test_leaves_partition_the_row(n):
    """Every position lands in exactly one leaf, each leaf in order."""
    leaves = summation_leaves(n)
    np.testing.assert_array_equal(np.sort(np.concatenate(leaves)),
                                  np.arange(n))
    assert all(np.all(np.diff(leaf) > 0) for leaf in leaves)
    assert max(len(leaf) for leaf in leaves) <= 16


def test_256_elements_are_16_leaves_of_16():
    leaves = summation_leaves(256)
    assert [len(leaf) for leaf in leaves] == [16] * 16
    np.testing.assert_array_equal(leaves[1], np.arange(1, 128, 8))
    np.testing.assert_array_equal(leaves[8], np.arange(128, 256, 8))


def _leaf_rows(weights: np.ndarray, rows_per_block: int | None = None
               ) -> LeafRows:
    """The pruned leaf rows of ``weights``, built in blocks of rows."""
    n_points, n = weights.shape
    step = rows_per_block or n_points
    return LeafRows.build(np.ones(n, dtype=weights.dtype), n_points, [
        (slice(lo, min(lo + step, n_points)), _listed(weights[lo:lo + step]))
        for lo in range(0, n_points, step)])


def _listed(weights: np.ndarray) -> WeightSplit:
    """A split of natural ``weights`` listing every entry explicitly."""
    elements, points = np.indices(weights.shape[::-1]).reshape(2, -1)
    return WeightSplit(np.zeros(weights.shape[::-1], dtype=bool), elements,
                       points, weights.T.ravel())


def _leaf_index(weights: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The kept entries of a natural ``index`` in leaf-row order, built
    independently of :class:`LeafRows`: per storage slot, the leaf's
    columns of every point, less those whose weight is zero."""
    layout = LeafLayout.of(weights.shape[1])
    return np.concatenate([index[:, leaf][weights[:, leaf] != 0]
                           for leaf in layout.stored_leaves]).astype(np.int32)


def _pruned_csr(weights: np.ndarray, index: np.ndarray, n_inputs: int):
    """The plan's CSR matrix: pruned leaf rows plus their index."""
    leaves = _leaf_rows(weights)
    indices = _leaf_index(weights, index)
    assert indices.size == leaves.nnz
    matrix = sparse.csr_array(
        (leaves.weights, indices, leaves.indptr),
        shape=(leaves.n_leaves * weights.shape[0], n_inputs), copy=False)
    if leaves.nnz:
        assert np.shares_memory(matrix.data, leaves.weights)
        assert np.shares_memory(matrix.indices, indices)
    return leaves, matrix


def _unpruned_csr(weights: np.ndarray, index: np.ndarray, n_inputs: int):
    """The same leaf rows with every entry kept, built independently of
    :class:`LeafRows`: row ``slot * n_points + p`` is leaf ``slot`` (in
    storage order) of point ``p``, zero weights included."""
    n_points, n = weights.shape
    leaves = summation_leaves(n)
    stored = np.argsort(LeafLayout.of(n).slots)
    data = np.concatenate([weights[:, leaves[leaf]].ravel()
                           for leaf in stored])
    indices = np.concatenate([index[:, leaves[leaf]].ravel()
                              for leaf in stored]).astype(np.int32)
    lengths = np.repeat([len(leaves[leaf]) for leaf in stored], n_points)
    indptr = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int32)
    return sparse.csr_array((data, indices, indptr),
                            shape=(len(leaves) * n_points, n_inputs))


def _sparse_weights(seed: int, shape: tuple[int, int], dtype,
                    zero_fraction: float) -> np.ndarray:
    """Signed weights with exact zeros (some of them -0.0) and, for the
    first point, one whole leaf zeroed: an empty CSR row."""
    rng = np.random.default_rng(seed)
    weights = _values(seed, shape, dtype)
    zeros = rng.random(shape) < zero_fraction
    weights[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    weights[0, summation_leaves(shape[1])[-1]] = -0.0
    return weights


def _samples(seed: int, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Echo samples with negative values, +0.0 and -0.0 among them."""
    rng = np.random.default_rng(seed)
    samples = _values(seed, shape, dtype)
    zeros = rng.random(shape) < 0.2
    samples[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
    return samples


@given(n=st.integers(1, 300) | st.sampled_from([1024, 1025, 10_000]),
       dtype=dtypes, n_frames=st.sampled_from([1, 3]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_csr_leaf_products_reproduce_numpy_sum(n, dtype, n_frames, seed):
    """One SciPy product over a pruned leaf-ordered CSR matrix, then the
    combine, equals ``np.sum(w * x[index], axis=-1)`` bit for bit."""
    rng = np.random.default_rng(seed)
    n_points, n_inputs = 7, 50
    weights = _sparse_weights(seed, (n_points, n), dtype, 0.3)
    index = rng.integers(0, n_inputs, size=(n_points, n)).astype(np.int32)
    inputs = _values(seed + 1, (n_inputs, n_frames), dtype)
    leaves, matrix = _pruned_csr(weights, index, n_inputs)
    sums = (matrix @ inputs).reshape(-1, n_points, n_frames)
    combined = leaves.layout.combine(sums)
    # Contiguous rows, as the chunked plan gathers them: np.sum associates
    # pairwise only along a contiguous axis.
    gathered = np.ascontiguousarray(np.moveaxis(inputs[index], 2, 0))
    expected = np.sum(gathered * weights, axis=-1)
    assert combined.dtype == expected.dtype
    np.testing.assert_array_equal(combined.T, expected)


@given(n=st.integers(1, 7) | st.integers(8, 128) | st.integers(129, 600),
       dtype=dtypes, batch=st.sampled_from([None, 1, 3]),
       zero_fraction=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
       seed=st.integers(0, 2**32 - 1))
@example(n=256, dtype=np.float64, batch=None, zero_fraction=0.3, seed=0)
@example(n=5, dtype=np.float32, batch=3, zero_fraction=1.0, seed=1)
@example(n=100, dtype=np.float32, batch=None, zero_fraction=0.9, seed=2)
@settings(max_examples=80, deadline=None)
def test_pruned_product_is_the_unpruned_product_byte_for_byte(
        n, dtype, batch, zero_fraction, seed):
    """Dropping the zero-weight entries changes no bit of any leaf sum or
    of their combine: a dropped term is ``(±0.0) * x`` with ``x`` finite,
    and a sum that starts at +0.0 is unchanged by adding ±0.0 — for every
    leaf-tree regime (fewer than 8, 8 to 128, over 128 values), exact and
    negative zeros, negative and zero samples, empty rows, one frame (a
    vector) and a batch."""
    rng = np.random.default_rng(seed)
    n_points, n_inputs = 9, 64
    weights = _sparse_weights(seed, (n_points, n), dtype, zero_fraction)
    index = rng.integers(0, n_inputs, size=(n_points, n)).astype(np.int32)
    shape = (n_inputs,) if batch is None else (n_inputs, batch)
    inputs = _samples(seed + 1, shape, dtype)
    leaves, pruned = _pruned_csr(weights, index, n_inputs)
    unpruned = _unpruned_csr(weights, index, n_inputs)
    assert pruned.nnz == np.count_nonzero(weights) < unpruned.nnz
    pruned_sums, unpruned_sums = pruned @ inputs, unpruned @ inputs
    assert pruned_sums.dtype == unpruned_sums.dtype == dtype
    assert pruned_sums.tobytes() == unpruned_sums.tobytes()
    frames = () if batch is None else (batch,)
    combine = leaves.layout.combine
    assert combine(pruned_sums.reshape(-1, n_points, *frames)).tobytes() \
        == combine(unpruned_sums.reshape(-1, n_points, *frames)).tobytes()


@pytest.mark.parametrize("n", [1, 5, 8, 13, 64, 129, 256, 1000])
def test_layout_write_and_natural_round_trip(n):
    """Block builds of the rows equal one whole build; the leaf-ordered
    index written slab by slab (:meth:`GatherIndex.write_leaf_group`, slots in
    storage order, blocks of rows cutting the range anywhere) is the
    natural index (:meth:`GatherIndex.write`) permuted and pruned, out-of-
    buffer delays at the pad slot included; :meth:`LeafRows.natural`
    inverts the rows (the fill at every pruned entry), and the row pointers
    delimit each (leaf, point) row's kept entries."""
    n_points, n_samples = 11, 40
    values = np.arange(1, n_points * n + 1).reshape(n_points, n)
    values[values % 3 == 0] = 0
    delays = np.random.default_rng(n).uniform(-3, n_samples + 3,
                                              (n_points, n))
    delays[0, :3] = [-0.5, n_samples - 0.5, 1e12][:min(n, 3)]
    whole = _leaf_rows(values)
    blocks = _leaf_rows(values, rows_per_block=4)
    for name in ("kept", "indptr", "weights"):
        np.testing.assert_array_equal(getattr(blocks, name),
                                      getattr(whole, name))
    natural = build_gather_index(delays, n_samples).flat
    index = GatherIndex.empty("nearest", n_points, n, n_samples,
                              leaves=whole)
    GatherIndex.write_leaf_group((index,), (
        (slot, slice(lo, min(lo + step, n_points)),
         ((delays[lo:lo + step, leaf], None),))
        for slot, leaf in enumerate(whole.layout.stored_leaves)
        for step in (3 + slot % 5,) for lo in range(0, n_points, step)))
    flat = index.flat
    np.testing.assert_array_equal(flat, _leaf_index(values, natural))
    np.testing.assert_array_equal(whole.natural(whole.weights, 0), values)
    np.testing.assert_array_equal(whole.natural(flat, -1),
                                  np.where(values != 0, natural, -1))
    indptr = whole.indptr
    assert indptr.dtype == np.int32
    assert indptr.size == whole.n_leaves * n_points + 1
    assert indptr[-1] == whole.nnz == np.count_nonzero(values)
    leaves = summation_leaves(n)
    for leaf, slot in enumerate(whole.layout.slots):
        for point in (0, n_points - 1):
            row = slot * n_points + point
            kept = values[point, leaves[leaf]] != 0
            np.testing.assert_array_equal(
                flat[indptr[row]:indptr[row + 1]],
                natural[point, leaves[leaf]][kept])


def test_leaf_slabs_must_fit_their_rows():
    """A slab of the wrong shape is refused before anything is written,
    and each layout writes through its own writer only."""
    leaves = _leaf_rows(np.ones((4, 20)))    # 8 leaves of 2, 4 of 1
    index = GatherIndex.empty("nearest", 4, 20, 16, leaves=leaves)
    with pytest.raises(ValueError, match=r"takes \(4, 2\) delays"):
        GatherIndex.write_leaf_group(
            (index,), [(0, slice(0, 4), ((np.zeros((4, 20)), None),))])
    with pytest.raises(ValueError, match="leaf by leaf"):
        index.write(slice(0, 4), np.zeros((4, 20)))
    with pytest.raises(ValueError, match="natural index"):
        GatherIndex.write_leaf_group(
            (build_gather_index(np.zeros((4, 20)), 16),), [])
