"""Tests for repro.kernels.compiled — the fused Numba-jitted datapath.

The kernel bodies are plain Python functions jitted lazily, so most of
this file runs on numba-free hosts too: it executes the bodies un-jitted
and pins their numerics against the NumPy :class:`BeamformingPlan` on the
tiny preset (64 elements — where the scalar pairwise reduction is
bit-identical to ``np.sum``).  There is one body per interpolation, over a
stack of frames; one frame runs as a batch of one.  The last class needs a
real numba and covers the jitted :class:`CompiledPlan` end to end.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.architectures import ARCHITECTURES
from repro.beamformer.das import DelayAndSumBeamformer
from repro.beamformer.interpolation import InterpolationKind
from repro.kernels import (
    TOLERANCES,
    BackendUnavailable,
    CompiledOptions,
    CompiledPlan,
    Precision,
    build_gather_index,
    compile_plan,
)
from repro.kernels import compiled
from repro.kernels.compiled import (
    _fused_linear_batch,
    _fused_nearest_batch,
    numba_available,
)
from repro.kernels.ops import pad_frames, pad_samples
from repro.observability import Tracer

requires_numba = pytest.mark.skipif(
    not numba_available(),
    reason="numba not installed (compiled backend unavailable)")


def _beamformer(system, interpolation=InterpolationKind.NEAREST):
    return DelayAndSumBeamformer(system, ARCHITECTURES.create("exact", system),
                                 interpolation=interpolation)


def _run_batch_body(plan, frames, block_size=1024):
    """Execute the un-jitted batch kernel body over a full plan."""
    stacked = np.stack([plan.coerce_samples(frame) for frame in frames])
    index = plan.gather_index(stacked.shape[-1])
    padded = pad_samples(stacked, index)
    out = np.empty((len(frames), plan.n_points), dtype=plan.dtype)
    if plan.interpolation is InterpolationKind.NEAREST:
        _fused_nearest_batch(padded, index.flat, plan.weights, out,
                             block_size)
    else:
        _fused_linear_batch(padded, index.flat, index.upper, index.fraction,
                            plan.weights, out, block_size)
    return out.reshape((len(frames), *plan.grid_shape))


def _run_frame_body(plan, samples, block_size=1024):
    """Execute the un-jitted batch kernel body on one frame: a batch of
    one, the frame's samples in the padded buffer's one column."""
    return _run_batch_body(plan, [samples], block_size)[0]


def _one_column(samples, index):
    """One frame padded as the batch bodies read it: ``(E*S + 1, 1)``."""
    return pad_samples(samples[None], index)


class TestKernelBodyNumerics:
    """The un-jitted kernel bodies against the NumPy plan (runs anywhere).

    The tiny preset has 64 elements, inside the 128-element window where
    the scalar pairwise reduction reproduces ``np.sum`` *bitwise* — so
    these are exact-equality pins, not tolerance checks.
    """

    @pytest.mark.parametrize("precision", [Precision.FLOAT64,
                                           Precision.FLOAT32])
    @pytest.mark.parametrize("kind", [InterpolationKind.NEAREST,
                                      InterpolationKind.LINEAR])
    def test_frame_body_bit_identical_to_numpy_plan(self, tiny,
                                                    tiny_channel_data,
                                                    kind, precision):
        plan = compile_plan(_beamformer(tiny, kind), precision)
        expected = plan.execute(tiny_channel_data)
        fused = _run_frame_body(plan, tiny_channel_data)
        assert fused.dtype == expected.dtype
        np.testing.assert_array_equal(fused, expected)

    @pytest.mark.parametrize("kind", [InterpolationKind.NEAREST,
                                      InterpolationKind.LINEAR])
    def test_batch_body_bit_identical_to_frame_body(self, tiny,
                                                    tiny_channel_data, kind):
        plan = compile_plan(_beamformer(tiny, kind))
        frames = [np.roll(tiny_channel_data.samples, 5 * i, axis=-1)
                  for i in range(3)]
        batch = _run_batch_body(plan, frames)
        assert batch.shape == (3, *plan.grid_shape)
        for i, frame in enumerate(frames):
            np.testing.assert_array_equal(batch[i],
                                          _run_frame_body(plan, frame))

    @pytest.mark.parametrize("kind", [InterpolationKind.NEAREST,
                                      InterpolationKind.LINEAR])
    def test_compiled_plan_runs_unjitted_bodies_bit_identically(
            self, tiny, tiny_channel_data, monkeypatch, kind):
        """CompiledPlan's own plumbing — warm-up signatures, padding,
        kernel launch — driven through the un-jitted bodies in place of
        the numba kernel set."""
        monkeypatch.setattr("repro.kernels.compiled.NUMBA_AVAILABLE", True)
        monkeypatch.setitem(compiled._JITTED, False, compiled._KERNEL_BODIES)
        beamformer = _beamformer(tiny, kind)
        plan = compile_plan(beamformer, variant="compiled")
        expected = compile_plan(beamformer).execute(tiny_channel_data)
        tracer = Tracer()
        np.testing.assert_array_equal(
            plan.execute(tiny_channel_data, tracer), expected)
        batch = plan.execute_batch([tiny_channel_data.samples[::-1],
                                    tiny_channel_data], tracer)
        np.testing.assert_array_equal(batch[1], expected)
        # One launch per call, a frame being a batch of one.
        assert [span.attributes["frames"]
                for span in tracer.find("fused")] == [1, 2]

    def test_block_size_never_changes_bits(self, tiny, tiny_channel_data):
        """The block decomposition is pure scheduling: any block size must
        produce the same bits (each point's reduction is self-contained)."""
        plan = compile_plan(_beamformer(tiny))
        baseline = _run_frame_body(plan, tiny_channel_data, block_size=1024)
        for block_size in (1, 7, 64):
            np.testing.assert_array_equal(
                _run_frame_body(plan, tiny_channel_data,
                                block_size=block_size), baseline)

    def test_small_element_count_tail_path(self):
        """n_elements < 8 takes the plain sequential branch; pin it against
        a hand-computed weighted sum with out-of-buffer fetches zeroed."""
        rng = np.random.default_rng(7)
        n_points, n_elements, n_samples = 5, 3, 11
        samples = rng.normal(size=(n_elements, n_samples))
        delays = rng.uniform(-4, n_samples + 4, size=(n_points, n_elements))
        index = build_gather_index(delays, n_samples)
        weights = rng.normal(size=(n_points, n_elements))
        out = np.empty((1, n_points))
        _fused_nearest_batch(_one_column(samples, index), index.flat,
                             weights, out, 2)
        nearest = np.floor(delays + 0.5).astype(int)
        inside = (nearest >= 0) & (nearest < n_samples)
        gathered = np.where(inside, samples[np.arange(n_elements)[None, :],
                                            np.clip(nearest, 0,
                                                    n_samples - 1)], 0.0)
        np.testing.assert_allclose(out[0], (weights * gathered).sum(axis=1),
                                   rtol=0, atol=1e-15)

    def test_all_invalid_fetches_give_zero(self):
        samples = np.ones((16, 4))
        index = build_gather_index(np.full((3, 16), -1.0), 4)
        weights = np.ones((3, 16))
        out = np.full((1, 3), np.nan)
        _fused_nearest_batch(_one_column(samples, index), index.flat,
                             weights, out, 1024)
        np.testing.assert_array_equal(out, np.zeros((1, 3)))

    def test_float32_stays_float32(self):
        """Typed constants keep the arithmetic in the execution dtype — a
        float64 literal would silently promote every product."""
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(16, 8)).astype(np.float32)
        delays = rng.uniform(0, 7, size=(4, 16))
        index = build_gather_index(delays, 8, "linear", np.float32)
        assert index.fraction.dtype == np.float32
        weights = rng.normal(size=(4, 16)).astype(np.float32)
        out = np.empty((1, 4), dtype=np.float32)
        _fused_linear_batch(_one_column(samples, index), index.flat,
                            index.upper, index.fraction, weights, out, 1024)
        lower = np.floor(delays).astype(int)
        below = samples[np.arange(16)[None, :], lower]
        above = samples[np.arange(16)[None, :], lower + 1]
        fraction = index.fraction
        expected = (weights * ((np.float32(1.0) - fraction) * below
                               + fraction * above))
        assert out.dtype == np.float32
        np.testing.assert_allclose(
            out[0], expected.sum(axis=1, dtype=np.float32), rtol=2e-6,
            atol=0)


class TestVariantDispatch:
    """compile_plan's variant hook (runs anywhere; availability pinned)."""

    def test_unknown_variant_rejected(self, tiny):
        with pytest.raises(ValueError, match="unknown plan variant"):
            compile_plan(_beamformer(tiny), variant="gpu")

    def test_compiled_variant_requires_numba(self, tiny, monkeypatch):
        monkeypatch.setattr("repro.kernels.compiled.NUMBA_AVAILABLE", False)
        with pytest.raises(BackendUnavailable, match="numba"):
            compile_plan(_beamformer(tiny), variant="compiled")

    def test_quantized_variant_rejected(self, tiny, monkeypatch):
        monkeypatch.setattr("repro.kernels.compiled.NUMBA_AVAILABLE", False)
        beamformer = DelayAndSumBeamformer(
            tiny, ARCHITECTURES.create("exact", tiny), quantization=18)
        with pytest.raises(ValueError, match="quantized"):
            compile_plan(beamformer, variant="compiled")


@requires_numba
class TestCompiledPlanJitted:
    """End-to-end CompiledPlan coverage (numba hosts only)."""

    @pytest.fixture(scope="class")
    def plans(self, tiny):
        beamformer = _beamformer(tiny)
        return (compile_plan(beamformer, variant="compiled"),
                compile_plan(beamformer))

    def test_execute_within_pinned_float64_row(self, plans,
                                               tiny_channel_data):
        compiled, numpy_plan = plans
        expected = numpy_plan.execute(tiny_channel_data)
        volume = compiled.execute(tiny_channel_data)
        assert volume.shape == expected.shape
        assert volume.dtype == expected.dtype
        TOLERANCES[Precision.FLOAT64].assert_allclose(volume, expected)

    def test_batch_bit_identical_to_per_frame(self, plans,
                                              tiny_channel_data):
        compiled, _ = plans
        single = compiled.execute(tiny_channel_data)
        batch = compiled.execute_batch([tiny_channel_data] * 2)
        assert batch.shape == (2, *single.shape)
        np.testing.assert_array_equal(batch[0], single)
        np.testing.assert_array_equal(batch[1], single)

    def test_empty_batch(self, plans):
        compiled, _ = plans
        assert compiled.execute_batch([]).shape \
            == (0, *compiled.grid_shape)

    def test_options_respected(self, plans, tiny_channel_data):
        """Launch options reach the kernel through ``execute_padded``, the
        entry a backend launches with its own options."""
        compiled, _ = plans
        padded = pad_frames([tiny_channel_data], compiled.dtype, None,
                            (compiled.n_elements, compiled.n_samples))
        baseline = compiled.execute_padded(padded)
        tweaked = compiled.execute_padded(
            padded, options=CompiledOptions(threads=1, block_size=16))
        np.testing.assert_array_equal(tweaked, baseline)

    def test_jit_warmup_lands_in_compile_span(self, tiny, tiny_channel_data):
        """Traces attribute JIT warm-up to compile time, and execution runs
        under a single ``fused`` span (no gather/weights/accumulate
        stages — fusing them away is the point)."""
        from repro.kernels import TilePlanner
        from repro.runtime import CompiledBackend
        beamformer = _beamformer(tiny)
        tracer = Tracer()
        backend = CompiledBackend(
            beamformer, TilePlanner.for_beamformer(beamformer, None,
                                                   variant="compiled"),
            tracer=tracer)
        volume = backend.beamform_volume(tiny_channel_data)
        (tile,) = backend.planner.tiles()
        assert isinstance(backend.segment(tile), CompiledPlan)
        assert volume.shape == beamformer.grid.shape
        assert tracer.find("compile")
        assert tracer.find("fused")
        for stage in ("gather", "weights", "accumulate"):
            assert not tracer.find(stage)
