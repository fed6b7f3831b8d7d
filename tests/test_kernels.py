"""Tests for repro.kernels: ops, precision policy and compiled plans.

This is the layer every execution path funnels through, so the pins here
are the strongest in the suite: the compiled plan must reproduce the
classic per-scanline math bit-for-bit at float64, float32 must stay inside
the documented tolerance, and batched execution must be frame-for-frame
identical to per-frame execution.
"""

from __future__ import annotations

import gc
import hashlib
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.acoustics.phantom import point_target
from repro.api import EngineSpec, Session
from repro.architectures import ARCHITECTURES
from repro.beamformer.das import ApodizationSettings, DelayAndSumBeamformer
from repro.beamformer.interpolation import InterpolationKind, fetch_samples
from repro.kernels import (
    TOLERANCES,
    BeamformingPlan,
    Precision,
    accumulate,
    apply_weights,
    build_gather_index,
    compile_plan,
    delay_and_sum,
    gather_interp,
    plan_key,
    plan_storage_bytes,
    receive_weights,
    resolve_precision,
)
from repro.kernels import plan as plan_module
from repro.kernels.compiled import numba_available
from repro.kernels.tiling import Tile
from repro.scenarios import TransmitAdjustedProvider, TransmitEvent


@pytest.fixture(scope="module")
def exact_beamformer(tiny):
    return DelayAndSumBeamformer(tiny, ARCHITECTURES.create("exact", tiny))


@pytest.fixture(scope="module")
def plan(exact_beamformer):
    return compile_plan(exact_beamformer)


class TestPrecision:
    def test_resolve_accepts_many_spellings(self):
        assert resolve_precision(None) is Precision.FLOAT64
        assert resolve_precision("float32") is Precision.FLOAT32
        assert resolve_precision(Precision.FLOAT32) is Precision.FLOAT32
        assert resolve_precision(np.float32) is Precision.FLOAT32
        assert resolve_precision(np.dtype("float64")) is Precision.FLOAT64

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValueError, match="float32"):
            resolve_precision("float16")
        with pytest.raises(ValueError, match="precision"):
            resolve_precision(42)

    def test_dtype_and_tolerance_table(self):
        assert Precision.FLOAT64.dtype == np.float64
        assert Precision.FLOAT32.dtype == np.float32
        assert TOLERANCES[Precision.FLOAT64].atol <= 1e-9
        assert Precision.FLOAT32.tolerance.rtol > 0

    def test_tolerance_scales_atol_by_peak(self):
        reference = np.array([0.0, 100.0])
        # 100x the peak-relative atol on a peak-100 signal: passes.
        ok = reference + np.array([1e-3, 0.0])
        Precision.FLOAT32.tolerance.assert_allclose(ok, reference)
        with pytest.raises(AssertionError):
            bad = reference + np.array([1.0, 0.0])
            Precision.FLOAT32.tolerance.assert_allclose(bad, reference)


class TestGatherIndex:
    def test_nearest_matches_legacy_fetch(self, tiny_channel_data, rng):
        delays = rng.uniform(-5, tiny_channel_data.sample_count + 5,
                             size=(30, tiny_channel_data.element_count))
        index = build_gather_index(delays, tiny_channel_data.sample_count,
                                   InterpolationKind.NEAREST)
        gathered = gather_interp(tiny_channel_data.samples, index)
        legacy = fetch_samples(
            tiny_channel_data,
            np.broadcast_to(np.arange(delays.shape[1]), delays.shape),
            delays, kind=InterpolationKind.NEAREST)
        np.testing.assert_array_equal(gathered, legacy)

    def test_linear_matches_legacy_fetch(self, tiny_channel_data, rng):
        delays = rng.uniform(-5, tiny_channel_data.sample_count + 5,
                             size=(30, tiny_channel_data.element_count))
        index = build_gather_index(delays, tiny_channel_data.sample_count,
                                   InterpolationKind.LINEAR)
        gathered = gather_interp(tiny_channel_data.samples, index)
        legacy = fetch_samples(
            tiny_channel_data,
            np.broadcast_to(np.arange(delays.shape[1]), delays.shape),
            delays, kind=InterpolationKind.LINEAR)
        np.testing.assert_array_equal(gathered, legacy)

    def test_out_of_range_rows_are_zero(self, tiny_channel_data):
        n_elements = tiny_channel_data.element_count
        delays = np.full((4, n_elements), -100.0)
        delays[2:] = tiny_channel_data.sample_count + 100.0
        for kind in InterpolationKind:
            index = build_gather_index(delays,
                                       tiny_channel_data.sample_count, kind)
            gathered = gather_interp(tiny_channel_data.samples, index)
            np.testing.assert_array_equal(gathered, 0.0)

    def test_rows_view_matches_full(self, tiny_channel_data, rng):
        delays = rng.uniform(0, tiny_channel_data.sample_count,
                             size=(40, tiny_channel_data.element_count))
        index = build_gather_index(delays, tiny_channel_data.sample_count)
        block = index.rows(slice(10, 25))
        assert block.n_points == 15
        np.testing.assert_array_equal(
            gather_interp(tiny_channel_data.samples, block),
            gather_interp(tiny_channel_data.samples, index)[10:25])

    def test_bad_inputs_rejected(self, tiny_channel_data):
        with pytest.raises(ValueError, match="n_points, n_elements"):
            build_gather_index(np.zeros(5), 100)
        with pytest.raises(ValueError, match="interpolation"):
            build_gather_index(np.zeros((2, 2)), 100, kind="cubic")
        index = build_gather_index(
            np.zeros((2, tiny_channel_data.element_count)),
            tiny_channel_data.sample_count + 1)
        with pytest.raises(ValueError, match="sample"):
            gather_interp(tiny_channel_data.samples, index)
        with pytest.raises(ValueError, match="samples must be"):
            gather_interp(np.zeros(7), index)

    def test_flat_index_must_fit_int32(self):
        """The pad slot ``n_elements * n_samples`` must be addressable by
        an int32 index; the paper preset (~8.0e7 entries) fits."""
        with pytest.raises(ValueError, match="int32"):
            build_gather_index(np.zeros((1, 2)), 2**30)
        paper = build_gather_index(np.full((1, 10_000), 9000.0), 8001)
        assert paper.flat.dtype == np.int32
        np.testing.assert_array_equal(paper.flat, 10_000 * 8001)


class TestKernelComposition:
    def test_delay_and_sum_matches_manual_composition(self, tiny_channel_data,
                                                      rng):
        n_elements = tiny_channel_data.element_count
        delays = rng.uniform(0, tiny_channel_data.sample_count,
                             size=(25, n_elements))
        weights = rng.uniform(0.0, 1.0, size=(25, n_elements))
        manual = accumulate(apply_weights(
            gather_interp(tiny_channel_data.samples,
                          build_gather_index(
                              delays, tiny_channel_data.sample_count)),
            weights))
        np.testing.assert_array_equal(
            delay_and_sum(tiny_channel_data.samples, delays, weights), manual)

    def test_apply_weights_keeps_sample_dtype(self, rng):
        samples = rng.normal(size=(3, 4)).astype(np.float32)
        weights = rng.uniform(size=(3, 4))   # float64 weights
        assert apply_weights(samples, weights).dtype == np.float32

    def test_accumulate_sums_element_axis(self, rng):
        weighted = rng.normal(size=(2, 5, 3))
        np.testing.assert_array_equal(accumulate(weighted),
                                      weighted.sum(axis=-1))


class TestPlanCompile:
    def test_plan_shapes_and_metadata(self, tiny, exact_beamformer, plan):
        n_points = tiny.volume.focal_point_count
        n_elements = tiny.transducer.element_count
        assert plan.index.flat.shape == (n_points, n_elements)
        assert plan.weights.shape == (n_points, n_elements)
        assert plan.grid_shape == exact_beamformer.grid.shape
        assert plan.n_points == n_points and plan.n_elements == n_elements
        assert plan.precision is Precision.FLOAT64
        assert plan.dtype == np.float64
        assert plan.n_samples == tiny.echo_buffer_samples
        assert plan.nbytes == plan.stored_weights.nbytes \
            + plan.stored_index.nbytes

    def test_compile_precompiles_gather_index(self, plan):
        assert plan.gather_index() is plan.gather_index(plan.n_samples)

    def test_foreign_buffer_length_is_rejected(self, plan, tiny_channel_data):
        """A plan addresses only its compile-time buffer length: a frame of
        any other length is refused, naming both lengths."""
        longer = np.pad(tiny_channel_data.samples, ((0, 0), (0, 7)))
        message = f"{plan.n_samples}-sample.*{plan.n_samples + 7} samples"
        with pytest.raises(ValueError, match=message):
            plan.gather_index(plan.n_samples + 7)
        with pytest.raises(ValueError, match=message):
            plan.execute(longer)
        with pytest.raises(ValueError, match=message):
            plan.execute_batch([longer])

    def test_float32_plan_casts_weights_only(self, exact_beamformer, plan):
        plan32 = compile_plan(exact_beamformer, "float32")
        assert plan32.weights.dtype == np.float32
        # Addressing stays exact: the same index as the float64 plan.
        np.testing.assert_array_equal(plan32.index.flat, plan.index.flat)

    @pytest.mark.parametrize("family, precision, kind", [
        *((family, precision, kind) for family in ("float", "compiled")
          for precision in ("float64", "float32")
          for kind in ("nearest", "linear")),
        ("quantized", "float64", "nearest")])
    def test_nbytes_matches_storage_prediction(self, tiny, exact_beamformer,
                                               monkeypatch, family, precision,
                                               kind):
        """Every chunked plan family holds exactly the predicted weights +
        index; the pruned CSR plan (float nearest) holds one weight and one
        index entry per kept entry plus a row pointer per (leaf, point),
        which the prediction bounds from above."""
        if family == "compiled" and not numba_available():
            # The un-jitted kernel bodies stand in for numba's.
            from repro.kernels import compiled
            monkeypatch.setattr(compiled, "NUMBA_AVAILABLE", True)
            monkeypatch.setitem(compiled._JITTED, False,
                                compiled._KERNEL_BODIES)
        beamformer = DelayAndSumBeamformer(
            tiny, exact_beamformer.delays,
            interpolation=InterpolationKind(kind),
            quantization=18 if family == "quantized" else None)
        variant = "compiled" if family == "compiled" else None
        built = compile_plan(beamformer, precision, tile=Tile(0, 16, 48),
                             variant=variant)
        predicted = plan_storage_bytes(
            32, 64, precision, kind, quantization=beamformer.quantization,
            variant=variant)
        leaves = built.stored_index.leaves
        if leaves is None:
            assert built.nbytes == predicted
            return
        itemsize = np.dtype(precision).itemsize
        kept = int(np.count_nonzero(leaves.kept))
        assert 0 < kept < 32 * 64
        assert built.nbytes == kept * (itemsize + 4) \
            + 4 * leaves.n_leaves * 32
        assert built.nbytes <= predicted

    def test_key_includes_interpolation_and_dtype(self, tiny,
                                                  exact_beamformer):
        linear = DelayAndSumBeamformer(
            tiny, exact_beamformer.delays,
            interpolation=InterpolationKind.LINEAR)
        keys = {plan_key(exact_beamformer),
                plan_key(exact_beamformer, "float32"),
                plan_key(linear),
                plan_key(linear, Precision.FLOAT32)}
        assert len(keys) == 4
        assert compile_plan(exact_beamformer).key == \
            plan_key(exact_beamformer)

    def test_key_includes_quantization_spec(self, tiny, exact_beamformer):
        from repro.kernels import QuantizationSpec
        quantized = DelayAndSumBeamformer(tiny, exact_beamformer.delays,
                                          quantization=18)
        assert plan_key(exact_beamformer) != plan_key(quantized)
        # Explicit spec argument overrides/augments the beamformer's own.
        assert plan_key(exact_beamformer,
                        quantization=QuantizationSpec.from_total_bits(18)) \
            == plan_key(quantized)
        assert compile_plan(quantized).key == plan_key(quantized)


@pytest.mark.parametrize("datapath", ["float64", "float32", "quantized"])
@pytest.mark.parametrize("firing", ["focused", "planewave"])
@pytest.mark.parametrize("architecture", ["exact", "tablefree", "tablesteer"])
def test_whole_grid_plan_is_its_one_tile(tiny, architecture, firing,
                                          datapath):
    """One tensor builder: the whole-grid plan equals its one-tile segment
    and the bulk ``volume_delays_samples`` tensor, bit for bit — at the
    entries a pruned CSR plan keeps; the ones it drops read the pad
    slot."""
    provider = ARCHITECTURES.create(architecture, tiny)
    if firing == "planewave":
        provider = TransmitAdjustedProvider.from_provider(
            provider, TransmitEvent.plane_wave(0.2), tiny)
    quantized = datapath == "quantized"
    beamformer = DelayAndSumBeamformer(
        tiny, provider, quantization=18 if quantized else None)
    precision = None if quantized else datapath
    whole = compile_plan(beamformer, precision)
    one = compile_plan(beamformer, precision,
                       tile=Tile(0, 0, whole.n_points))
    assert whole.grid_shape == beamformer.grid.shape
    assert whole.key == plan_key(beamformer, precision)
    assert one.key == whole.key + (("tile", 0, whole.n_points),)
    bulk = np.asarray(provider.volume_delays_samples(), dtype=np.float64) \
        .reshape(whole.weights.shape)
    if quantized:
        bulk = beamformer.quantization.quantize_delays(bulk)
    expected = build_gather_index(bulk, whole.n_samples,
                                  beamformer.interpolation)
    kept = whole.weights != 0 if whole.stored_index.leaves is not None \
        else np.ones(whole.weights.shape, dtype=bool)
    np.testing.assert_array_equal(whole.index.flat[kept], expected.flat[kept])
    assert np.all(whole.index.flat[~kept] == whole.index.pad_slot)
    for a, b in ((one.index.flat, whole.index.flat),
                 (one.weights, whole.weights)):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


class TestPlanExecution:
    def test_execute_matches_scanline_loop_exactly(self, exact_beamformer,
                                                   plan, tiny_channel_data):
        volume = plan.execute(tiny_channel_data)
        n_theta, n_phi, _ = plan.grid_shape
        for i_theta in range(0, n_theta, 3):
            for i_phi in range(0, n_phi, 3):
                np.testing.assert_array_equal(
                    volume[i_theta, i_phi],
                    exact_beamformer.beamform_scanline(tiny_channel_data,
                                                       i_theta, i_phi))

    def test_execute_accepts_raw_arrays(self, plan, tiny_channel_data):
        np.testing.assert_array_equal(plan.execute(tiny_channel_data.samples),
                                      plan.execute(tiny_channel_data))

    def test_execute_batch_matches_per_frame(self, tiny, plan,
                                             tiny_channel_data):
        from repro.acoustics.echo import EchoSimulator
        from repro.acoustics.phantom import point_target
        simulator = EchoSimulator.from_config(tiny)
        frames = [tiny_channel_data,
                  simulator.simulate(point_target(depth=0.04), seed=5)]
        batch = plan.execute_batch(frames)
        assert batch.shape == (2, *plan.grid_shape)
        for i, frame in enumerate(frames):
            np.testing.assert_array_equal(batch[i], plan.execute(frame))

    def test_execute_batch_empty(self, plan):
        assert plan.execute_batch([]).shape == (0, *plan.grid_shape)

    def test_float32_execution_within_tolerance(self, exact_beamformer,
                                                plan, tiny_channel_data):
        plan32 = compile_plan(exact_beamformer, Precision.FLOAT32)
        reference = plan.execute(tiny_channel_data)
        fast = plan32.execute(tiny_channel_data)
        assert fast.dtype == np.float32
        Precision.FLOAT32.tolerance.assert_allclose(fast, reference)
        batch = plan32.execute_batch([tiny_channel_data])
        np.testing.assert_array_equal(batch[0], fast)

    def test_plans_are_shareable_artifacts(self, plan):
        assert isinstance(plan, BeamformingPlan)
        with pytest.raises(AttributeError):
            plan.precision = Precision.FLOAT32   # frozen


# ------------------------------------------------- shared receive weights
def _segments(service) -> list:
    """Every segment plan of a service's engine (compiling on first use),
    firing by firing."""
    plans = []
    for backend in service.engine.backends:
        plans += [backend.segment(tile) for tile in backend.planner.tiles()]
    return plans


def _digest(array: np.ndarray) -> str:
    return hashlib.sha256(array.tobytes()).hexdigest()


class TestSharedReceiveWeights:
    def test_architectures_and_firings_share_one_tensor(self, tiny):
        spec = EngineSpec(system=tiny, backend="vectorized",
                          scheme="planewave", scheme_options={"n_angles": 2})
        with Session(spec) as session:
            plans = [plan for architecture in ("exact", "tablesteer")
                     for plan in _segments(
                         session.service(architecture=architecture))]
        assert len({plan.key for plan in plans}) == 4
        assert all(plan.stored_weights is plans[0].stored_weights
                   for plan in plans)
        assert plans[0].stored_index.leaves is not None
        assert not plans[0].stored_weights.flags.writeable

    def test_evicted_segments_recompile_without_rebuilding_weights(
            self, small, monkeypatch):
        """Under the 32M budget every frame evicts and recompiles the
        segment the cache does not hold (the held one runs first and
        hits); the beamformer's hold on its tensors keeps the memo warm,
        so the weights builder runs for the first frame only."""
        calls = []
        build = DelayAndSumBeamformer.split_weights

        def counting(self, points):
            calls.append(len(points))
            return build(self, points)

        monkeypatch.setattr(DelayAndSumBeamformer, "split_weights",
                            counting)
        # An apodization no other test compiles with: a cold memo.
        spec = EngineSpec(system=small, architecture="tablesteer",
                          backend="vectorized", memory_budget_bytes="32M",
                          apodization=ApodizationSettings(
                              directivity_rolloff=0.11))
        with Session(spec) as session:
            service = session.service()
            target = point_target(depth=float(session.grid.depths[20]))
            service.submit_frame(target)
            built, before = sum(calls), session.cache.stats
            for _ in range(2):
                service.submit_frame(target)
            after = session.cache.stats
        assert built == small.volume.focal_point_count
        assert after.misses - before.misses == 2
        assert after.hits - before.hits == 2
        assert after.evictions > before.evictions
        assert sum(calls) == built

    def test_memo_entries_die_with_their_engines(self, tiny):
        """Bounded state: once every engine and cache holding a tensor is
        dropped, its weak memo entry is gone."""
        apodization = ApodizationSettings(directivity_rolloff=0.07)
        before = set(plan_module._WEIGHTS.keys())
        session = Session(EngineSpec(system=tiny, backend="vectorized",
                                     apodization=apodization,
                                     scheme="planewave",
                                     scheme_options={"n_angles": 2}))
        for architecture in ("exact", "tablefree"):
            _segments(session.service(architecture=architecture))
        ours = set(plan_module._WEIGHTS.keys()) - before
        assert ours and all(repr(apodization) in key for key in ours)
        session.close()
        del session
        gc.collect()
        assert not set(plan_module._WEIGHTS.keys()) - before

    @pytest.mark.parametrize("family", ["float", "quantized", "compiled"])
    def test_execution_leaves_the_shared_tensor_untouched(
            self, tiny, tiny_channel_data, monkeypatch, family):
        if family == "compiled" and not numba_available():
            # The un-jitted kernel bodies stand in for numba's.
            from repro.kernels import compiled
            monkeypatch.setattr(compiled, "NUMBA_AVAILABLE", True)
            monkeypatch.setitem(compiled._JITTED, False,
                                compiled._KERNEL_BODIES)
        beamformer = DelayAndSumBeamformer(
            tiny, ARCHITECTURES.create("tablesteer", tiny),
            quantization=18 if family == "quantized" else None)
        plan = compile_plan(beamformer, tile=Tile(0, 16, 48),
                            variant="compiled" if family == "compiled"
                            else None)
        digest = _digest(plan.weights)
        plan.execute(tiny_channel_data)
        plan.execute_batch([tiny_channel_data, tiny_channel_data.samples])
        assert _digest(plan.weights) == digest


def test_plan_builder_makes_no_scanline_calls():
    source = Path(plan_module.__file__).read_text()
    for method in ("scanline_delays_samples", "weights_for_scanline"):
        assert not re.search(rf"\b{method}\s*\(", source), method


@pytest.mark.parametrize("architecture", ["exact", "tablefree", "tablesteer"])
def test_compile_transients_stay_block_sized(small, architecture):
    """Compiling a one-tile ``small`` plan holds the plan plus block-sized
    transients only — no whole-tile delay or weight temporary."""
    beamformer = DelayAndSumBeamformer(
        small, ARCHITECTURES.create(architecture, small),
        # A cold weights memo, so the tensor is built under the trace.
        apodization=ApodizationSettings(
            directivity_rolloff=0.2 + 0.01 * len(architecture)))
    tracemalloc.start()
    try:
        plan = compile_plan(beamformer, tile=Tile(0, 0, small.volume
                                                  .focal_point_count))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - plan.nbytes < 16 * 2**20


def test_racing_builds_share_one_tensor(tiny):
    """Threads (more than cores) racing to build the same ranges all get
    the one stored tensor: a lost update would hand out two arrays."""
    apodization = ApodizationSettings(directivity_rolloff=0.05)
    provider = ARCHITECTURES.create("exact", tiny)
    beamformers = [DelayAndSumBeamformer(tiny, provider,
                                         apodization=apodization)
                   for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(beamformers)) as pool:
            for stop in (16, 48, 160, 1024):
                barrier = threading.Barrier(len(beamformers))

                def build(beamformer, stop=stop, barrier=barrier):
                    barrier.wait(timeout=30)
                    return receive_weights(beamformer, 0, stop, np.float64)

                tensors = list(pool.map(build, beamformers, timeout=60))
                assert all(tensor is tensors[0] for tensor in tensors)
    finally:
        sys.setswitchinterval(interval)
