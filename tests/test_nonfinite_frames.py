"""Frames holding a NaN or infinite echo sample are refused at the boundary.

The float nearest plan skips the terms a zero weight switches off, which
leaves every sum's bits unchanged only for finite samples (see
``docs/kernels.md``, "Structural zeros"): with a NaN sample the
``reference`` backend gives a NaN voxel where the pruned product gives a
finite one.  So the service and the pipeline check each frame once, before
any backend sees it, and every path refuses it with the same
:class:`ValueError`, naming the frame.  These tests inject NaN, +inf and
-inf into the ``reference``, ``vectorized``, budgeted and served paths,
and check that a refused frame leaves the engine serving the next finite
frame unchanged.

A CSR plan also refuses such samples itself, once per padded buffer in the
execution dtype, so the precondition holds on the public entry points
below the service: ``compile_plan(...).execute``/``execute_batch`` and
the ``vectorized`` backend used directly, tiled or not.
The chunked (linear) plans skip no term and give the reference's NaN.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acoustics.echo import ChannelData
from repro.api import EngineSpec, Session
from repro.architectures import ARCHITECTURES
from repro.beamformer.das import DelayAndSumBeamformer
from repro.beamformer.interpolation import InterpolationKind
from repro.kernels import TilePlanner, compile_plan, plan_storage_bytes
from repro.runtime import FrameRequest
from repro.runtime.backends import VectorizedBackend
from repro.server import BeamformingServer, ServerSpec

POISONS = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}

#: Four tiles of the tiny grid's CSR plan.
TILE_BUDGET = plan_storage_bytes(8 * 8 * 16, 64, "float64") // 4

PATHS = {
    "reference": {"backend": "reference"},
    "vectorized": {"backend": "vectorized"},
    "budgeted": {"backend": "vectorized", "memory_budget_bytes": TILE_BUDGET},
}


def _poisoned(frame: ChannelData, value: float) -> ChannelData:
    samples = frame.samples.copy()
    samples[3, 17] = value
    return ChannelData(samples=samples,
                       sampling_frequency=frame.sampling_frequency)


@pytest.mark.parametrize("poison", sorted(POISONS))
@pytest.mark.parametrize("path", sorted(PATHS))
def test_service_refuses_the_frame_by_id(tiny_channel_data, path, poison):
    bad = _poisoned(tiny_channel_data, POISONS[poison])
    with Session(EngineSpec(system="tiny", **PATHS[path])) as session:
        service = session.service()
        expected = service.submit_frame(tiny_channel_data).rf
        with pytest.raises(ValueError, match="frame 7 holds non-finite"):
            service.submit_frame(FrameRequest(frame_id=7, channel_data=bad))
        with pytest.raises(ValueError, match="frame 12 holds non-finite"):
            service.submit_batch([
                FrameRequest(frame_id=11, channel_data=tiny_channel_data),
                FrameRequest(frame_id=12, channel_data=bad)])
        np.testing.assert_array_equal(
            service.submit_frame(tiny_channel_data).rf, expected)
        assert service.stats().frames == 2


@pytest.mark.parametrize("path", sorted(PATHS))
def test_pipeline_refuses_the_frame(tiny_channel_data, path):
    bad = _poisoned(tiny_channel_data, np.nan)
    with Session(EngineSpec(system="tiny", **PATHS[path])) as session:
        pipeline = session.pipeline()
        with pytest.raises(ValueError, match="non-finite echo samples"):
            pipeline.image_volume(bad)
        with pytest.raises(ValueError, match="frame 1 holds non-finite"):
            pipeline.compound_batch([[tiny_channel_data], [bad]])
        assert np.isfinite(pipeline.image_volume(tiny_channel_data).rf).all()


def test_pipeline_plane_refuses_the_frame(tiny_channel_data):
    with Session(EngineSpec(system="tiny")) as session:
        with pytest.raises(ValueError, match="non-finite echo samples"):
            session.pipeline().image_plane(
                _poisoned(tiny_channel_data, np.inf))


@pytest.mark.parametrize("poison", sorted(POISONS))
def test_server_fails_only_the_poisoned_ticket(tiny_channel_data, poison):
    server = BeamformingServer(ServerSpec(
        engine=EngineSpec(system="tiny", backend="vectorized"), workers=1))
    try:
        session = server.open_session()
        expected = session.submit(tiny_channel_data).result(timeout=60).rf
        error = session.submit(_poisoned(
            tiny_channel_data, POISONS[poison])).exception(timeout=60)
        assert isinstance(error, ValueError)
        assert "non-finite echo samples" in str(error)
        np.testing.assert_array_equal(
            session.submit(tiny_channel_data).result(timeout=60).rf,
            expected)
    finally:
        server.close()


def _beamformer(system, **options) -> DelayAndSumBeamformer:
    return DelayAndSumBeamformer(
        system, ARCHITECTURES.create("tablesteer", system), **options)


@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("poison", sorted(POISONS))
def test_csr_plan_refuses_non_finite_samples(tiny, tiny_channel_data,
                                             precision, poison):
    plan = compile_plan(_beamformer(tiny), precision)
    assert plan.matrix is not None
    bad = _poisoned(tiny_channel_data, POISONS[poison])
    with pytest.raises(ValueError, match="non-finite echo samples"):
        plan.execute(bad)
    with pytest.raises(ValueError, match="non-finite echo samples"):
        plan.execute_batch([tiny_channel_data, bad])
    assert np.isfinite(plan.execute(tiny_channel_data)).all()


def test_csr_plan_checks_in_the_execution_dtype(tiny, tiny_channel_data):
    """A float64 sample beyond float32's range is infinite once a float32
    plan coerces it."""
    huge = _poisoned(tiny_channel_data, 1e300)
    assert np.isfinite(compile_plan(_beamformer(tiny)).execute(huge)).all()
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="non-finite echo samples"):
        compile_plan(_beamformer(tiny), "float32").execute(huge)


@pytest.mark.parametrize("poison", sorted(POISONS))
def test_tiled_plan_refuses_non_finite_samples(tiny, tiny_channel_data,
                                               poison):
    """A backend over more than one tile refuses them, single and batched."""
    beamformer = _beamformer(tiny)
    planner = TilePlanner.for_beamformer(beamformer, TILE_BUDGET)
    assert planner.n_tiles > 1
    tiled = VectorizedBackend(beamformer, planner)
    bad = _poisoned(tiny_channel_data, POISONS[poison])
    with pytest.raises(ValueError, match="non-finite echo samples"):
        tiled.beamform_volume(bad)
    with pytest.raises(ValueError, match="non-finite echo samples"):
        tiled.beamform_batch([tiny_channel_data, bad])


@pytest.mark.parametrize("budget", [None, TILE_BUDGET])
@pytest.mark.parametrize("backend_type", [VectorizedBackend])
def test_backends_used_directly_refuse_non_finite_samples(
        tiny, tiny_channel_data, backend_type, budget):
    bad = _poisoned(tiny_channel_data, np.nan)
    beamformer = _beamformer(tiny)
    backend = backend_type(beamformer,
                           TilePlanner.for_beamformer(beamformer, budget))
    with pytest.raises(ValueError, match="non-finite echo samples"):
        backend.beamform_volume(bad)
    with pytest.raises(ValueError, match="non-finite echo samples"):
        backend.beamform_batch([tiny_channel_data, bad])
    assert np.isfinite(backend.beamform_volume(tiny_channel_data)).all()


def test_linear_plan_propagates_nan_like_the_reference(tiny,
                                                       tiny_channel_data):
    plan = compile_plan(_beamformer(
        tiny, interpolation=InterpolationKind.LINEAR))
    assert plan.matrix is None
    samples = tiny_channel_data.samples.copy()
    samples[3] = np.nan
    assert np.isnan(plan.execute(samples)).any()
