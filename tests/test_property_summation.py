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
* SciPy's CSR product over a :class:`~repro.kernels.ops.LeafLayout` sums
  each leaf row sequentially (a SciPy build contracting ``sum += a * x``
  into a fused multiply-add would fail here);
* the leaves partition the row, and the layout's write/natural pair and
  row pointers are exact.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.kernels.ops import LeafLayout, combine_leaf_sums, summation_leaves

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


@given(n=st.integers(1, 300) | st.sampled_from([1024, 1025, 10_000]),
       dtype=dtypes, n_frames=st.sampled_from([1, 3]),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_csr_leaf_products_reproduce_numpy_sum(n, dtype, n_frames, seed):
    """One SciPy product over a leaf-ordered CSR matrix, then the combine,
    equals ``np.sum(w * x[index], axis=-1)`` bit for bit."""
    rng = np.random.default_rng(seed)
    n_points, n_inputs = 7, 50
    weights = _values(seed, (n_points, n), dtype)
    index = rng.integers(0, n_inputs, size=(n_points, n)).astype(np.int32)
    inputs = _values(seed + 1, (n_inputs, n_frames), dtype)
    layout = LeafLayout.of(n)
    data = np.empty(n_points * n, dtype=dtype)
    indices = np.empty(n_points * n, dtype=np.int32)
    layout.write(data, n_points, slice(None), weights)
    layout.write(indices, n_points, slice(None), index)
    matrix = sparse.csr_array(
        (data, indices, layout.indptr(n_points)),
        shape=(layout.n_leaves * n_points, n_inputs), copy=False)
    assert np.shares_memory(matrix.data, data)
    assert np.shares_memory(matrix.indices, indices)
    sums = (matrix @ inputs).reshape(-1, n_points, n_frames)
    combined = layout.combine(sums)
    # Contiguous rows, as the chunked plan gathers them: np.sum associates
    # pairwise only along a contiguous axis.
    gathered = np.ascontiguousarray(np.moveaxis(inputs[index], 2, 0))
    expected = np.sum(gathered * weights, axis=-1)
    assert combined.dtype == expected.dtype
    np.testing.assert_array_equal(combined.T, expected)


@pytest.mark.parametrize("n", [1, 5, 8, 13, 64, 129, 256, 1000])
def test_layout_write_and_natural_round_trip(n):
    """Block writes land where one whole write would, :meth:`natural`
    inverts them, and the row pointers delimit each (leaf, point) row."""
    n_points = 11
    values = np.arange(n_points * n).reshape(n_points, n)
    layout = LeafLayout.of(n)
    whole = np.empty(n_points * n, dtype=values.dtype)
    layout.write(whole, n_points, slice(None), values)
    blocks = np.empty_like(whole)
    for lo in range(0, n_points, 4):
        rows = slice(lo, min(lo + 4, n_points))
        layout.write(blocks, n_points, rows, values[rows])
    np.testing.assert_array_equal(blocks, whole)
    np.testing.assert_array_equal(layout.natural(whole, n_points), values)
    indptr = layout.indptr(n_points)
    assert indptr.dtype == np.int32
    assert indptr.size == layout.n_leaves * n_points + 1
    assert indptr[-1] == n_points * n
    leaves = summation_leaves(n)
    for leaf, slot in enumerate(layout.slots):
        for point in (0, n_points - 1):
            row = slot * n_points + point
            np.testing.assert_array_equal(
                whole[indptr[row]:indptr[row + 1]],
                values[point, leaves[leaf]])
