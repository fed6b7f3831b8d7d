"""TABLESTEER rounds its gather index in its own fixed-point datapath.

Pins what :meth:`TableSteerDelayGenerator.tile_delay_indices` and the
plan compile that uses it promise:

* at 13, 14 and 18 bits the int32 positions (code sums shifted right by
  the reference's fraction bits) are ``floor(tile_delays_samples + 0.5)``
  bit for bit — over ranges that cut scanlines and arbitrary element
  subsets — and the Fig. 4 model's rounded sum at every grid point;
* a float nearest plan of a fixed-point TABLESTEER engine asks the
  integer source for its slabs, and its index is the one the float round
  builds; the float mode, a shifted firing group, and quantized and
  linear plans never ask it;
* :meth:`GatherIndex.write_leaf_group` takes int32 positions without a
  shift only, of the slab's shape.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.architectures import ARCHITECTURES
from repro.beamformer.das import DelayAndSumBeamformer
from repro.beamformer.interpolation import InterpolationKind
from repro.core.tablesteer import TableSteerConfig, TableSteerDelayGenerator
from repro.kernels import QuantizationSpec, TilePlanner, compile_plan, \
    compile_plans, plan_storage_bytes
from repro.kernels.ops import GatherIndex, LeafRows, WeightSplit
from repro.scenarios import SchemeEngine, resolve_scheme

BITS = [13, 14, 18]


def _generator(system, bits):
    return TableSteerDelayGenerator.from_config(system,
                                                TableSteerConfig(bits))


def _ranges(n_points, n_depth, rng):
    """The whole grid, single points, ranges cut inside their first and
    last scanlines, and random ranges."""
    yield 0, n_points
    yield 0, 1
    yield n_points - 1, n_points
    yield 3, n_depth - 2
    yield n_depth // 2, 3 * n_depth + n_depth // 3
    for _ in range(6):
        start, stop = sorted(rng.choice(n_points + 1, 2, replace=False))
        yield int(start), int(stop)


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("preset", ["tiny", "small"])
def test_positions_are_the_float_delays_rounded(request, preset, bits):
    system = request.getfixturevalue(preset)
    generator = _generator(system, bits)
    assert generator.integer_datapath
    n_points = generator.grid.point_count
    n_elements = generator.transducer.element_count
    rng = np.random.default_rng(bits)
    for start, stop in _ranges(n_points, generator.grid.shape[-1], rng):
        for elements in (None, rng.permutation(n_elements)[:5],
                         np.sort(rng.choice(n_elements, 16, replace=False))):
            positions = generator.tile_delay_indices(start, stop, elements)
            delays = generator.tile_delays_samples(start, stop, elements)
            assert positions.dtype == np.int32
            assert positions.shape == delays.shape
            np.testing.assert_array_equal(positions,
                                          np.floor(delays + 0.5))


@pytest.mark.parametrize("bits", BITS)
def test_positions_are_the_datapath_model_rounded(tiny, bits):
    """Every tiny grid point rounds as the bit-aligned Fig. 4 sum does."""
    generator = _generator(tiny, bits)
    n_theta, n_phi, n_depth = generator.grid.shape
    positions = generator.tile_delay_indices(
        0, generator.grid.point_count).reshape(n_theta, n_phi, n_depth, -1)
    for i_theta in range(n_theta):
        for i_phi in range(n_phi):
            for i_depth in range(n_depth):
                model = generator.fixed_point_datapath(i_theta, i_phi,
                                                       i_depth)
                np.testing.assert_array_equal(
                    positions[i_theta, i_phi, i_depth],
                    model.round_to_integer())


def test_the_float_mode_has_no_integer_datapath(tiny):
    generator = TableSteerDelayGenerator.from_config(
        tiny, TableSteerConfig(total_bits=None))
    assert not generator.integer_datapath
    with pytest.raises(ValueError, match="no integer datapath"):
        generator.tile_delay_indices(0, 4)


@pytest.fixture
def integer_calls(monkeypatch):
    """Counts calls of every generator's integer source."""
    calls = []
    source = TableSteerDelayGenerator.tile_delay_indices

    def counted(self, *args):
        calls.append(args)
        return source(self, *args)

    monkeypatch.setattr(TableSteerDelayGenerator, "tile_delay_indices",
                        counted)
    return calls


def _cutting_tile(beamformer):
    """A tile whose ends cut scanlines."""
    planner = TilePlanner.for_beamformer(
        beamformer, plan_storage_bytes(21, beamformer.transducer
                                       .element_count, beamformer.precision,
                                       beamformer.interpolation),
        precision=beamformer.precision, granularity=7)
    tile = planner.tile(1)
    n_depth = beamformer.grid.shape[-1]
    assert tile.start % n_depth and tile.stop % n_depth
    return tile


@pytest.mark.parametrize("bits", BITS)
@pytest.mark.parametrize("whole", [True, False], ids=["grid", "tile"])
def test_a_fixed_point_plan_rounds_in_its_datapath(tiny, monkeypatch,
                                                   integer_calls, bits,
                                                   whole):
    """The CSR plan asks the integer source for every slab, and its index
    is the index the float round builds (the source switched off)."""
    beamformer = DelayAndSumBeamformer(tiny, _generator(tiny, bits))
    tile = None if whole else _cutting_tile(beamformer)
    plan = compile_plan(beamformer, tile=tile)
    assert integer_calls
    monkeypatch.setattr(TableSteerDelayGenerator, "integer_datapath",
                        property(lambda self: False))
    integer_calls.clear()
    rounded_in_float = compile_plan(beamformer, tile=tile)
    assert not integer_calls
    assert plan.key == rounded_in_float.key
    np.testing.assert_array_equal(plan.stored_index.flat,
                                  rounded_in_float.stored_index.flat)


def test_float_shifted_quantized_and_linear_plans_round_floats(
        tiny, integer_calls):
    tablesteer = ARCHITECTURES.create("tablesteer", tiny)
    compile_plan(DelayAndSumBeamformer(
        tiny, ARCHITECTURES.create("tablesteer_float", tiny)))
    engine = SchemeEngine(DelayAndSumBeamformer(tiny, tablesteer),
                          resolve_scheme(tiny, "planewave", {"n_angles": 3}))
    firings = [backend.beamformer for backend in engine.backends]
    assert len(firings) == 3
    compile_plans(firings)
    compile_plan(DelayAndSumBeamformer(
        tiny, tablesteer, quantization=QuantizationSpec.from_total_bits(18)))
    compile_plan(DelayAndSumBeamformer(
        tiny, tablesteer, interpolation=InterpolationKind.LINEAR))
    assert integer_calls == []
    compile_plan(DelayAndSumBeamformer(tiny, tablesteer))
    assert integer_calls


def _one_leaf_index(n_points=4, n_elements=20, n_samples=16):
    none = np.empty(0, dtype=np.intp)
    leaves = LeafRows.build(np.ones(n_elements), n_points, [(
        slice(0, n_points), WeightSplit(
            np.ones((n_elements, n_points), dtype=bool), none, none,
            np.empty(0)))])
    return GatherIndex.empty("nearest", n_points, n_elements, n_samples,
                             leaves=leaves)


def test_write_leaf_group_takes_rounded_positions():
    """int32 positions write the index their float delays write."""
    delays = np.random.default_rng(0).uniform(-3, 19, (4, 20))
    by_float, by_position = _one_leaf_index(), _one_leaf_index()
    stored = by_float.leaves.layout.stored_leaves
    for index, slab in ((by_float, delays),
                        (by_position, np.floor(delays + 0.5)
                         .astype(np.int32))):
        GatherIndex.write_leaf_group((index,), (
            (slot, slice(0, 4), ((slab[:, leaf], None),))
            for slot, leaf in enumerate(stored)))
    np.testing.assert_array_equal(by_position.flat, by_float.flat)


def test_write_leaf_group_refuses_misfit_positions():
    index = _one_leaf_index()     # 8 leaves of 2, 4 of 1
    positions = np.zeros((4, 2), dtype=np.int32)
    with pytest.raises(ValueError, match="take no shift"):
        GatherIndex.write_leaf_group(
            (index,), [(0, slice(0, 4), ((positions, np.zeros(4)),))])
    with pytest.raises(ValueError, match=r"takes \(4, 2\) delays"):
        GatherIndex.write_leaf_group(
            (index,), [(0, slice(0, 4),
                        ((np.zeros((4, 3), dtype=np.int32), None),))])
    with pytest.raises(ValueError, match="are int32, got int64"):
        GatherIndex.write_leaf_group(
            (index,), [(0, slice(0, 4),
                        ((positions.astype(np.int64), None),))])
