"""Tests for repro.runtime.scheduler and repro.runtime.service.

Covers the streaming contract of the acceptance criteria: a >= 8-frame cine
sequence flows through every backend, per-frame latency and aggregate
throughput are recorded, and the cache statistics prove that repeated
frames of an unchanged probe geometry never regenerate delay tables.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acoustics.phantom import point_target
from repro.api import EngineSpec, Session
from repro.kernels import Precision
from repro.runtime import (
    FrameRequest,
    PlanCache,
    moving_point_cine,
    static_cine,
)

N_FRAMES = 8


def session_for(system, **fields) -> Session:
    """A session over ``system``; the backend defaults to ``vectorized``."""
    fields.setdefault("backend", "vectorized")
    return Session(EngineSpec(system=system, **fields))


def service_for(system, cache=None, **fields):
    """A streaming service built from ``EngineSpec(system=system, ...)``."""
    return session_for(system, **fields).service(cache=cache)


class TestFrameRequest:
    def test_requires_exactly_one_payload(self, tiny, tiny_channel_data):
        phantom = point_target(depth=0.01)
        with pytest.raises(ValueError):
            FrameRequest(frame_id=0)
        with pytest.raises(ValueError):
            FrameRequest(frame_id=0, phantom=phantom,
                         channel_data=tiny_channel_data)
        assert FrameRequest(frame_id=0, phantom=phantom).phantom is phantom


class TestCineScenarios:
    def test_moving_point_cine_moves(self, tiny):
        frames = moving_point_cine(tiny, n_frames=N_FRAMES)
        assert len(frames) == N_FRAMES
        depths = [float(np.linalg.norm(f.phantom.positions)) for f in frames]
        assert depths == sorted(depths)
        assert depths[0] < depths[-1]

    def test_static_cine_replays_same_frame(self, tiny_channel_data):
        frames = static_cine(tiny_channel_data, n_frames=4)
        assert len(frames) == 4
        assert all(f.channel_data is tiny_channel_data for f in frames)

    def test_frame_counts_validated(self, tiny, tiny_channel_data):
        with pytest.raises(ValueError):
            moving_point_cine(tiny, n_frames=0)
        with pytest.raises(ValueError):
            static_cine(tiny_channel_data, n_frames=0)


class TestBeamformingService:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_streams_cine_through_backend(self, tiny, backend):
        service = service_for(tiny, architecture="tablesteer",
                                     backend=backend)
        results = service.stream_all(moving_point_cine(tiny, n_frames=N_FRAMES))
        assert len(results) == N_FRAMES
        shape = (tiny.volume.n_theta, tiny.volume.n_phi, tiny.volume.n_depth)
        for i, result in enumerate(results):
            assert result.frame_id == i
            assert result.rf.shape == shape
            assert result.backend == backend
            assert result.latency_seconds > 0
            assert result.voxel_count == tiny.volume.focal_point_count
        # The target moves between frames, so the volumes must differ.
        assert not np.allclose(results[0].rf, results[-1].rf)

    def test_backends_agree_on_streamed_frames(self, tiny):
        cine = moving_point_cine(tiny, n_frames=N_FRAMES)
        volumes = {}
        for backend in ("reference", "vectorized"):
            service = service_for(tiny, backend=backend)
            volumes[backend] = service.stream_all(cine)
        for got, want in zip(volumes["vectorized"], volumes["reference"]):
            np.testing.assert_allclose(got.rf, want.rf, rtol=0, atol=1e-9)

    def test_cached_frames_skip_delay_regeneration(self, tiny):
        cache = PlanCache()
        service = service_for(tiny, backend="vectorized", cache=cache)
        service.stream_all(moving_point_cine(tiny, n_frames=N_FRAMES))
        stats = service.stats()
        assert stats.cache.misses == 1
        assert stats.cache.hits == N_FRAMES - 1
        assert stats.cache.evictions == 0

    def test_stats_aggregate_counts(self, tiny, tiny_channel_data):
        service = service_for(tiny, backend="vectorized")
        service.stream_all(static_cine(tiny_channel_data, n_frames=4))
        stats = service.stats()
        assert stats.frames == 4
        assert stats.voxels == 4 * tiny.volume.focal_point_count
        assert stats.acquire_seconds == 0.0
        assert stats.beamform_seconds > 0
        assert stats.frames_per_second > 0
        assert stats.voxels_per_second > 0
        assert stats.total_seconds == pytest.approx(
            stats.acquire_seconds + stats.beamform_seconds)
        assert stats.max_latency_seconds >= stats.mean_latency_seconds

    def test_submit_accepts_raw_payloads(self, tiny, tiny_channel_data):
        service = service_for(tiny, backend="vectorized")
        from_data = service.submit_frame(tiny_channel_data)
        assert from_data.acquire_seconds == 0.0
        from_phantom = service.submit_frame(point_target(depth=0.01))
        assert from_phantom.acquire_seconds > 0
        assert service.stats().frames == 2

    def test_frame_ids_stay_monotonic_across_reset(self, tiny,
                                                   tiny_channel_data):
        service = service_for(tiny, backend="vectorized")
        first = service.submit_frame(tiny_channel_data)
        second = service.submit_frame(tiny_channel_data)
        assert (first.frame_id, second.frame_id) == (0, 1)
        service.reset_stats()
        third = service.submit_frame(tiny_channel_data)
        assert third.frame_id == 2  # ids never repeat after a stats reset
        assert service.stats().frames == 1  # but the stats did reset

    def test_auto_ids_continue_above_explicit_requests(self, tiny,
                                                       tiny_channel_data):
        service = service_for(tiny, backend="vectorized")
        service.submit_frame(FrameRequest(frame_id=7,
                                          channel_data=tiny_channel_data))
        auto = service.submit_frame(tiny_channel_data)
        assert auto.frame_id == 8

    def test_architecture_options_accepted(self, tiny, tiny_channel_data):
        from repro.core.tablesteer import TableSteerConfig
        service = service_for(
            tiny, architecture="tablesteer",
            architecture_options=TableSteerConfig(total_bits=13))
        assert service.beamformer.delays.design.total_bits == 13
        as_dict = service_for(
            tiny, architecture="tablesteer",
            architecture_options={"total_bits": 13})
        assert as_dict.beamformer.delays.design.total_bits == 13

    def test_reset_stats_keeps_cache(self, tiny, tiny_channel_data):
        cache = PlanCache()
        service = service_for(tiny, backend="vectorized", cache=cache)
        service.submit_frame(tiny_channel_data)
        service.reset_stats()
        assert service.stats().frames == 0
        service.submit_frame(tiny_channel_data)
        assert cache.stats.misses == 1  # tables survived the reset
        assert cache.stats.hits == 1

    def test_backend_name_exposed(self, tiny):
        service = service_for(tiny, backend="reference")
        assert service.backend_name == "reference"


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("build", [Session.service, Session.pipeline],
                         ids=["service", "pipeline"])
def test_memory_budget_reads_back_parsed(tiny, build, backend):
    """A suffixed budget reads back as the int it was parsed to, on every
    backend and on both facades."""
    session = session_for(tiny, backend=backend)
    engine = build(session, memory_budget_bytes="64K")
    assert engine.memory_budget_bytes == 64 * 1024


class TestPrecisionPolicy:
    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_float32_stream_within_tolerance(self, tiny, backend):
        cine = moving_point_cine(tiny, n_frames=3)
        exact = service_for(tiny, backend=backend).stream_all(cine)
        fast = service_for(tiny, backend=backend,
                                  precision="float32").stream_all(cine)
        for got, want in zip(fast, exact):
            assert got.rf.dtype == np.float32
            Precision.FLOAT32.tolerance.assert_allclose(got.rf, want.rf)

    def test_stats_report_precision(self, tiny, tiny_channel_data):
        service = service_for(tiny, precision="float32")
        service.submit_frame(tiny_channel_data)
        assert service.stats().precision == "float32"
        assert service_for(tiny).stats().precision == "float64"

    def test_unknown_precision_rejected(self, tiny):
        with pytest.raises(ValueError, match="precision|float32"):
            service_for(tiny, precision="float16")

    def test_precisions_never_share_plans(self, tiny, tiny_channel_data):
        cache = PlanCache()
        for precision in ("float64", "float32"):
            service = service_for(tiny, backend="vectorized",
                                         cache=cache, precision=precision)
            service.submit_frame(tiny_channel_data)
            service.submit_frame(tiny_channel_data)
        assert cache.stats.misses == 2   # one compiled plan per precision
        assert cache.stats.hits == 2


class TestBatchedSubmission:
    def test_submit_batch_matches_per_frame(self, tiny):
        cine = moving_point_cine(tiny, n_frames=4)
        per_frame = service_for(tiny, backend="vectorized")
        batched = service_for(tiny, backend="vectorized")
        singles = per_frame.stream_all(cine)
        results = batched.submit_batch(cine)
        assert [r.frame_id for r in results] == [r.frame_id for r in singles]
        for got, want in zip(results, singles):
            np.testing.assert_array_equal(got.rf, want.rf)
        stats = batched.stats()
        assert stats.frames == 4
        assert stats.beamform_seconds > 0

    def test_stream_with_batch_size_preserves_order(self, tiny):
        cine = moving_point_cine(tiny, n_frames=5)
        service = service_for(tiny, backend="vectorized")
        results = service.stream_all(cine, batch_size=2)  # 2 + 2 + 1 frames
        assert [r.frame_id for r in results] == [0, 1, 2, 3, 4]
        assert service.stats().frames == 5

    def test_batched_stream_matches_per_frame_volumes(self, tiny):
        cine = moving_point_cine(tiny, n_frames=4)
        per_frame = service_for(tiny, backend="vectorized")
        batched = service_for(tiny, backend="vectorized")
        singles = per_frame.stream_all(cine)
        results = batched.stream_all(cine, batch_size=4)
        for got, want in zip(results, singles):
            np.testing.assert_array_equal(got.rf, want.rf)

    def test_batch_accepts_raw_payloads(self, tiny, tiny_channel_data):
        service = service_for(tiny, backend="vectorized")
        results = service.submit_batch(
            [tiny_channel_data, point_target(depth=0.01)])
        assert [r.frame_id for r in results] == [0, 1]
        assert results[0].acquire_seconds == 0.0
        assert results[1].acquire_seconds > 0

    def test_empty_batch_is_a_noop(self, tiny):
        service = service_for(tiny, backend="vectorized")
        assert service.submit_batch([]) == []
        assert service.stats().frames == 0

    def test_bad_batch_size_rejected(self, tiny, tiny_channel_data):
        service = service_for(tiny, backend="vectorized")
        with pytest.raises(ValueError, match="batch_size"):
            service.stream_all(static_cine(tiny_channel_data, 2),
                               batch_size=0)
