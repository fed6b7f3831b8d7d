"""The float nearest-sample plan as a leaf-ordered CSR matrix.

Pins what the sparse execution promises beyond the conformance matrix:

* its volumes equal the split ``gather_interp`` -> ``apply_weights`` ->
  ``accumulate`` replay over the plan's natural ``gather_index()`` and
  ``weights`` — the sequence ``bench/layers.py`` replays — bit for bit, on
  ``tiny`` and ``small``, float64 and float32, one frame, a batch and
  every segment of a budgeted ``vectorized`` backend;
* linear and quantised plans keep the natural layout and the chunked loop;
* the CSR ``data``/``indices``/``indptr`` are the stored tensors (no copy,
  int32 indices), every nearest float plan of one geometry shares one
  pruned :class:`~repro.kernels.ops.LeafRows` (mask, row pointers and
  weights), a plan stores exactly its kept entries plus the row pointers
  in ``nbytes``, and :func:`plan_storage_bytes` bounds that from above;
* the leaf-major compile writes the natural index permuted and pruned,
  over the whole grid and over tiles that cut scanlines;
* a segment too large for int32 row pointers is refused at compile.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.architectures import ARCHITECTURES
from repro.beamformer.das import DelayAndSumBeamformer
from repro.beamformer.interpolation import InterpolationKind
from repro.kernels import (
    GatherIndex,
    TilePlanner,
    accumulate,
    apply_weights,
    compile_plan,
    gather_interp,
    plan_storage_bytes,
    receive_weights,
)
from repro.kernels.ops import LeafLayout, LeafRows, WeightSplit, \
    gather_padded, pad_samples, total, weigh
from repro.kernels.plan import _group_tensors
from repro.runtime.backends import VectorizedBackend


def _frames(system, n_frames: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n_frames, system.transducer.element_count,
                                system.echo_buffer_samples))


def _replay(plan, samples: np.ndarray) -> np.ndarray:
    """The bench's split re-execution of a float plan."""
    index = plan.gather_index(samples.shape[-1])
    return accumulate(apply_weights(gather_interp(samples, index),
                                    plan.weights))


@pytest.fixture(scope="module", params=["tiny", "small"])
def system(request, tiny, small):
    return {"tiny": tiny, "small": small}[request.param]


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_sparse_plan_equals_the_split_replay(system, precision):
    beamformer = DelayAndSumBeamformer(
        system, ARCHITECTURES.create("tablesteer", system))
    plan = compile_plan(beamformer, precision)
    assert plan.matrix is not None
    frames = _frames(system, 3, seed=5).astype(plan.dtype)
    one = plan.execute(frames[0])
    assert one.dtype == plan.dtype
    np.testing.assert_array_equal(one.reshape(-1), _replay(plan, frames[0]))
    batch = plan.execute_batch(list(frames))
    np.testing.assert_array_equal(batch.reshape(3, -1), _replay(plan, frames))
    np.testing.assert_array_equal(batch[0], one)


@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_budgeted_segments_equal_the_split_replay(system, precision):
    """Every segment of a budgeted engine (as the bench compiles them)
    replays bit for bit, and the tiled volumes are their rows."""
    beamformer = DelayAndSumBeamformer(
        system, ARCHITECTURES.create("exact", system), precision=precision)
    per_point = plan_storage_bytes(1, system.transducer.element_count,
                                   precision)
    planner = TilePlanner.for_beamformer(
        beamformer, per_point * system.volume.focal_point_count // 3)
    assert planner.n_tiles > 1
    frames = _frames(system, 2, seed=7).astype(np.dtype(precision))
    tiled = VectorizedBackend(beamformer, planner).beamform_batch(
        list(frames)).reshape(2, -1)
    for tile in planner.tiles():
        segment = compile_plan(beamformer, precision, tile=tile)
        rows = segment.execute_batch(list(frames)).reshape(2, -1)
        np.testing.assert_array_equal(rows, _replay(segment, frames))
        np.testing.assert_array_equal(tiled[:, tile.rows], rows)


@pytest.mark.parametrize("architecture", ["exact", "tablefree",
                                          "tablesteer"])
@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_leaf_major_index_is_the_natural_index_permuted_and_pruned(
        system, architecture, precision):
    """The leaf-major compile (one provider slab per leaf and run, rounded
    and compressed straight into its CSR run) writes exactly the natural
    index of ``_group_tensors(..., leaf_ordered=False)``, permuted into leaf
    order and pruned of its zero-weight entries — over the whole grid and
    over budgeted tiles that cut scanlines (a granularity not dividing
    ``n_depth``)."""
    beamformer = DelayAndSumBeamformer(
        system, ARCHITECTURES.create(architecture, system))
    dtype = np.dtype(precision)
    n_depth = system.volume.n_depth
    granularity = n_depth // 2 + 3
    assert n_depth % granularity
    per_point = plan_storage_bytes(1, system.transducer.element_count,
                                   precision)
    planner = TilePlanner.for_beamformer(
        beamformer, per_point * system.volume.focal_point_count // 3,
        precision=precision, granularity=granularity)
    assert planner.n_tiles > 1
    assert any(tile.start % n_depth for tile in planner.tiles())
    stored = LeafLayout.of(system.transducer.element_count).stored_leaves
    for start, stop in [(0, system.volume.focal_point_count),
                        *((tile.start, tile.stop)
                          for tile in planner.tiles())]:
        [(index, _)] = _group_tensors([beamformer], start, stop, dtype,
                                      None, True)
        [(natural, weights)] = _group_tensors([beamformer], start, stop,
                                              dtype, None, False)
        expected = np.concatenate([natural.flat[:, leaf][weights[:, leaf]
                                                         != 0]
                                   for leaf in stored])
        assert index.flat.dtype == np.int32
        np.testing.assert_array_equal(index.flat, expected)


def test_linear_and_quantised_plans_stay_chunked(tiny, tiny_channel_data):
    provider = ARCHITECTURES.create("tablesteer", tiny)
    linear = compile_plan(DelayAndSumBeamformer(
        tiny, provider, interpolation=InterpolationKind.LINEAR))
    quantised = compile_plan(DelayAndSumBeamformer(tiny, provider,
                                                   quantization=18))
    for plan in (linear, quantised):
        assert plan.matrix is None and plan.stored_index.leaves is None
        assert plan.weights is plan.stored_weights
        assert plan.gather_index() is plan.stored_index
    samples = tiny_channel_data.samples
    np.testing.assert_array_equal(linear.execute(samples).reshape(-1),
                                  _replay(linear, samples))
    spec = quantised.quantization
    coerced = quantised.coerce_samples(samples)
    expected = total(weigh(gather_padded(
        pad_samples(coerced[np.newaxis], quantised.index), quantised.index),
        quantised.weights, spec), spec)
    np.testing.assert_array_equal(quantised.execute(samples).reshape(-1),
                                  expected[0])


def test_csr_arrays_are_the_stored_tensors(tiny):
    beamformer = DelayAndSumBeamformer(
        tiny, ARCHITECTURES.create("tablefree", tiny))
    plan = compile_plan(beamformer)
    matrix, index, leaves = plan.matrix, plan.stored_index, \
        plan.stored_index.leaves
    assert np.shares_memory(matrix.data, plan.stored_weights)
    assert np.shares_memory(matrix.indices, index.flat)
    assert np.shares_memory(matrix.indptr, leaves.indptr)
    assert matrix.indices.dtype == matrix.indptr.dtype == np.int32
    n_leaves = leaves.n_leaves
    assert matrix.shape == (n_leaves * plan.n_points,
                            plan.n_elements * plan.n_samples + 1)
    # Exactly the entries the natural weights do not zero are kept.
    kept = int(np.count_nonzero(plan.weights))
    assert kept == matrix.nnz == leaves.nnz == int(leaves.kept.sum())
    assert 0 < kept < plan.n_points * plan.n_elements
    assert plan.nbytes == kept * (8 + 4) + 4 * n_leaves * plan.n_points
    assert plan.nbytes <= plan_storage_bytes(plan.n_points, plan.n_elements)


def test_one_leaf_ordered_weight_tensor_per_geometry(tiny):
    """Plans of different architectures share the stored leaf rows; the
    natural accessor un-permutes them to the natural memo's values."""
    plans = [compile_plan(DelayAndSumBeamformer(
        tiny, ARCHITECTURES.create(name, tiny)))
        for name in ("tablesteer", "exact")]
    assert plans[0].stored_index.leaves is plans[1].stored_index.leaves
    assert plans[0].stored_weights is plans[1].stored_weights
    assert plans[0].stored_weights.ndim == 1
    for array in (plans[0].stored_weights, plans[0].stored_index.leaves.kept,
                  plans[0].stored_index.leaves.indptr):
        assert not array.flags.writeable
    natural = plans[0].weights
    assert not natural.flags.writeable
    assert natural is plans[0].weights   # shared while held
    beamformer = DelayAndSumBeamformer(
        tiny, ARCHITECTURES.create("exact", tiny))
    np.testing.assert_array_equal(
        natural, receive_weights(beamformer, 0, plans[0].n_points,
                                 np.float64))


def test_oversized_segment_is_refused_with_the_budget_named():
    n_elements = 64
    n_points = np.iinfo(np.int32).max // n_elements + 1
    with pytest.raises(ValueError, match="set a memory budget"):
        LeafRows.build(np.ones(n_elements), n_points, iter(()))
    none = np.empty(0, dtype=np.intp)
    leaves = LeafRows.build(np.ones(n_elements), 4, [(slice(0, 4), WeightSplit(
        np.ones((n_elements, 4), dtype=bool), none, none, np.empty(0)))])
    with pytest.raises(ValueError, match="linear one stays natural"):
        GatherIndex.empty("linear", 4, n_elements, 128, leaves=leaves)
