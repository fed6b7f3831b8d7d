"""Property-based tests (hypothesis) for memory-budgeted tiling.

These pin the invariants the tiled execution engine leans on:

* :meth:`TilePlanner.tiles` is an *exact partition* of the flat focal-point
  axis for any grid shape, budget and granularity — no overlap, no gap,
  full coverage, in order — and no segment exceeds the budget;
* :func:`parse_memory_budget` honours the binary suffix table and rejects
  garbage loudly;
* degenerate budgets change nothing but the tiling: single-voxel tiles
  (``granularity=1``) and a budget big enough for the whole grid both
  reproduce the untiled plan bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.architectures import ARCHITECTURES
from repro.beamformer.das import DelayAndSumBeamformer
from repro.kernels import (
    TilePlanner,
    compile_plan,
    compile_plans,
    parse_memory_budget,
    plan_storage_bytes,
)
from repro.runtime import backends
from repro.runtime.backends import VectorizedBackend

grid_shapes = st.tuples(st.integers(1, 6), st.integers(1, 6),
                        st.integers(1, 12))
element_counts = st.integers(min_value=1, max_value=32)
interpolations = st.sampled_from(["nearest", "linear"])


@st.composite
def planners(draw):
    """A valid planner: the budget always holds at least one unit."""
    shape = draw(grid_shapes)
    n_elements = draw(element_counts)
    interpolation = draw(interpolations)
    granularity = draw(st.one_of(st.none(), st.integers(1, 16)))
    per_point = plan_storage_bytes(1, n_elements, None, interpolation)
    unit = granularity if granularity is not None else shape[2]
    # From exactly one unit up to several times the whole grid, plus a
    # ragged offset so budgets rarely divide evenly.
    n_points = shape[0] * shape[1] * shape[2]
    floor = per_point * unit  # whatever the grid size
    budget = draw(st.integers(floor, max(floor, 4 * per_point * n_points))) \
        + draw(st.integers(0, per_point - 1))
    return TilePlanner(shape, n_elements, budget,
                       interpolation=interpolation, granularity=granularity)


@given(planner=planners())
@settings(max_examples=200, deadline=None)
def test_tiles_exactly_partition_the_grid(planner):
    """No overlap, no gap, full coverage, in order — for any budget."""
    tiles = planner.tiles()
    assert len(tiles) == planner.n_tiles >= 1
    assert tiles[0].start == 0
    assert tiles[-1].stop == planner.n_points
    for i, tile in enumerate(tiles):
        assert tile.index == i
        assert tile.n_points > 0
    for previous, current in zip(tiles, tiles[1:]):
        assert current.start == previous.stop  # adjacent: no overlap, no gap


@given(planner=planners())
@settings(max_examples=200, deadline=None)
def test_every_tile_fits_the_budget(planner):
    """No segment can ever be sized over the budget, a tile holds whole
    granularity units, and the planner's predicted cost matches the
    storage model exactly."""
    for tile in planner.tiles():
        cost = planner.tile_nbytes(tile)
        assert cost <= planner.memory_budget_bytes
        assert cost == plan_storage_bytes(tile.n_points, planner.n_elements,
                                          planner.precision,
                                          planner.interpolation)
    assert planner.tile_bytes <= planner.memory_budget_bytes
    assert planner.tile_points % planner.granularity == 0 \
        or planner.n_tiles == 1


@given(n=st.integers(1, 10**6),
       suffix=st.sampled_from(["K", "M", "G", "T"]),
       trailing_b=st.booleans())
@settings(max_examples=100, deadline=None)
def test_parse_memory_budget_suffix_scaling(n, suffix, trailing_b):
    scale = {"K": 2**10, "M": 2**20, "G": 2**30, "T": 2**40}[suffix]
    text = f"{n}{suffix}" + ("B" if trailing_b else "")
    assert parse_memory_budget(text) == n * scale
    assert parse_memory_budget(text.lower()) == n * scale
    assert parse_memory_budget(n) == n


@pytest.mark.parametrize("bad", [0, -1, "0", "-2G", "eight gigs", "G",
                                 None, 1.5, True, "inf", "1e400", "nan"])
def test_parse_memory_budget_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_memory_budget(bad)


# ------------------------------------------------- degenerate-budget pins
@pytest.fixture(scope="module")
def tiled_substrate(tiny):
    """A beamformer, its untiled oracle volume, and one simulated frame."""
    from repro.acoustics.echo import EchoSimulator
    from repro.acoustics.phantom import point_target

    beamformer = DelayAndSumBeamformer(
        tiny, ARCHITECTURES.create("exact", tiny))
    frame = EchoSimulator.from_config(tiny).simulate(
        point_target(depth=0.04), seed=11)
    oracle = compile_plan(beamformer).execute(frame)
    return beamformer, frame, oracle


@pytest.mark.parametrize("granularity", [1, 3, None])
def test_degenerate_granularities_bit_identical(tiled_substrate, granularity):
    """Single-voxel tiles, ragged 3-point tiles and whole scanlines all
    reproduce the untiled plan bit for bit."""
    beamformer, frame, oracle = tiled_substrate
    per_point = plan_storage_bytes(
        1, beamformer.transducer.element_count, None,
        beamformer.interpolation)
    unit = granularity if granularity is not None else 16
    planner = TilePlanner.for_beamformer(
        beamformer, per_point * unit * 5, granularity=granularity)
    assert planner.n_tiles > 1
    volume = VectorizedBackend(beamformer, planner).beamform_volume(frame)
    np.testing.assert_array_equal(volume, oracle)


def test_oversized_budget_is_one_tile_and_bit_identical(tiled_substrate):
    """A budget larger than the whole grid degenerates to one tile whose
    output is the untiled volume, bit for bit."""
    beamformer, frame, oracle = tiled_substrate
    planner = TilePlanner.for_beamformer(beamformer, "1G")
    assert planner.n_tiles == 1
    assert planner.tile_points == planner.n_points
    volume = VectorizedBackend(beamformer, planner).beamform_volume(frame)
    np.testing.assert_array_equal(volume, oracle)


def test_an_evicted_segment_is_freed_before_the_next_is_built(
        tiled_substrate, monkeypatch):
    """With room for one segment, each tile's segment is built after the
    previous one is freed: the backend holds no segment the cache
    evicted.  The second call runs the one held tile first, so it
    compiles every tile but that one."""
    import weakref

    beamformer, frame, oracle = tiled_substrate
    per_scanline = plan_storage_bytes(
        16, beamformer.transducer.element_count, None,
        beamformer.interpolation)
    planner = TilePlanner.for_beamformer(beamformer, per_scanline * 16)
    assert planner.n_tiles > 1
    built, live_at_build = [], []

    def compile_and_track(*args, **kwargs):
        live_at_build.append(sum(ref() is not None for ref in built))
        plans = compile_plans(*args, **kwargs)
        built.extend(weakref.ref(plan) for plan in plans)
        return plans

    monkeypatch.setattr(backends, "compile_plans", compile_and_track)
    backend = VectorizedBackend(beamformer, planner)
    np.testing.assert_array_equal(backend.beamform_volume(frame), oracle)
    np.testing.assert_array_equal(backend.beamform_batch([frame])[0],
                                  oracle)
    assert backend.cache.stats.size == 1
    assert live_at_build == [0] * (2 * planner.n_tiles - 1)


def test_a_single_frame_is_padded_once_for_every_tile(tiled_substrate,
                                                     monkeypatch):
    """A budgeted call hands its frames to the segments once, not once
    per tile: every segment reads the one ``PaddedFrames`` of the call,
    made after the first segment's compile so no compile holds a padded
    copy before it is needed.  A simulated frame is read in place; a frame
    in a buffer of its own is copied once per call, whatever the number
    of tiles."""
    from repro.acoustics.echo import ChannelData
    from repro.kernels import ops, plan as plan_module

    beamformer, frame, oracle = tiled_substrate
    per_scanline = plan_storage_bytes(
        16, beamformer.transducer.element_count, None,
        beamformer.interpolation)
    planner = TilePlanner.for_beamformer(beamformer, per_scanline * 16)
    assert planner.n_tiles > 1
    events, copies = [], []

    def recording(event, function):
        def wrapper(*args, **kwargs):
            events.append(event)
            return function(*args, **kwargs)
        return wrapper

    def copying(samples, *args, coerce=ops.coerce_samples):
        copies.append(id(samples))
        return coerce(samples, *args)

    for module in (backends, plan_module):
        monkeypatch.setattr(module, "pad_frames",
                            recording("pad", module.pad_frames))
    monkeypatch.setattr(backends, "compile_plans",
                        recording("compile", compile_plans))
    monkeypatch.setattr(ops, "coerce_samples", copying)
    backend = VectorizedBackend(beamformer, planner)
    volume = backend.beamform_volume(frame)
    assert events == ["compile", "pad"] + ["compile"] * (planner.n_tiles - 1)
    assert volume.tobytes() == oracle.tobytes()
    assert copies == []
    user = ChannelData(np.array(frame.samples), frame.sampling_frequency)
    assert backend.beamform_volume(user).tobytes() == oracle.tobytes()
    assert copies == [id(user)]
    copies.clear()
    batch = backend.beamform_batch([user, frame])
    assert batch.tobytes() == np.stack([oracle, oracle]).tobytes()
    assert copies == [id(user), id(frame)]


@given(budget_units=st.integers(1, 64))
@settings(max_examples=20, deadline=None)
def test_any_scanline_budget_bit_identical(tiled_substrate, budget_units):
    """Whatever the budget (one scanline up to the whole grid), the tiled
    volume equals the untiled volume bit for bit."""
    beamformer, frame, oracle = tiled_substrate
    per_scanline = plan_storage_bytes(
        16, beamformer.transducer.element_count, None,
        beamformer.interpolation)
    planner = TilePlanner.for_beamformer(beamformer,
                                         per_scanline * budget_units)
    backend = VectorizedBackend(beamformer, planner)
    np.testing.assert_array_equal(backend.beamform_volume(frame), oracle)
