"""Tests for repro.pipeline: the high-level imaging pipeline and the
multi-insonification bookkeeping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.acoustics.phantom import point_target
from repro.api import EngineSpec, Session
from repro.config import tiny_system
from repro.core.multi_origin import OriginSchedule
from repro.pipeline.compounding import InsonificationPlan, acquisition_summary


@pytest.fixture(scope="module")
def system():
    return tiny_system()


def pipeline_for(system, cache=None, **fields):
    """An imaging pipeline built from ``EngineSpec(system=system, ...)``."""
    return Session(EngineSpec(system=system, **fields)).pipeline(cache=cache)


@pytest.fixture(scope="module")
def centred_target(system):
    from repro.geometry.volume import FocalGrid
    grid = FocalGrid.from_config(system)
    return point_target(depth=float(grid.depths[len(grid.depths) // 2]))


class TestImagingPipeline:
    def test_image_phantom_roundtrip(self, system, centred_target):
        pipeline = pipeline_for(system, architecture="exact")
        image = pipeline.image_phantom(centred_target)
        assert image.shape == (system.volume.n_theta, system.volume.n_depth)
        assert image.max() > 0

    def test_log_compressed_output_range(self, system, centred_target):
        pipeline = pipeline_for(system, architecture="exact")
        data = pipeline.acquire(centred_target)
        db_image = pipeline.image_plane(data, dynamic_range_db=50.0)
        assert db_image.max() == pytest.approx(0.0)
        assert db_image.min() >= -50.0

    def test_volume_orders_agree(self, system, centred_target):
        pipeline = pipeline_for(system, architecture="tablesteer")
        data = pipeline.acquire(centred_target)
        nappe = pipeline.image_volume(data, order="nappe")
        scanline = pipeline.image_volume(data, order="scanline")
        np.testing.assert_allclose(nappe.rf, scanline.rf)

    def test_bad_order_rejected(self, system, centred_target):
        pipeline = pipeline_for(system)
        data = pipeline.acquire(centred_target)
        with pytest.raises(ValueError):
            pipeline.image_volume(data, order="diagonal")

    def test_architecture_accessible(self, system):
        pipeline = pipeline_for(system, architecture="tablefree")
        from repro.core.tablefree import TableFreeDelayGenerator
        assert isinstance(pipeline.delay_provider, TableFreeDelayGenerator)

    def test_noise_changes_image(self, system, centred_target):
        pipeline = pipeline_for(system)
        clean = pipeline.image_phantom(centred_target, noise_std=0.0)
        noisy = pipeline.image_phantom(centred_target, noise_std=0.5, seed=3)
        assert not np.allclose(clean, noisy)


class TestPipelineBackends:
    @pytest.mark.parametrize("backend", ["vectorized"])
    def test_runtime_backend_matches_reference(self, system, centred_target,
                                               backend):
        reference = pipeline_for(system, architecture="tablefree")
        data = reference.acquire(centred_target)
        want = reference.image_volume(data, order="scanline")
        batched = pipeline_for(system, architecture="tablefree",
                                  backend=backend)
        got = batched.image_volume(data)
        assert got.order == backend
        np.testing.assert_allclose(got.rf, want.rf, rtol=0, atol=1e-9)

    def test_backend_shares_cache(self, system, centred_target):
        from repro.runtime import PlanCache
        cache = PlanCache()
        pipeline = pipeline_for(system, backend="vectorized", cache=cache)
        data = pipeline.acquire(centred_target)
        pipeline.image_volume(data)
        pipeline.image_volume(data)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_unknown_backend_rejected(self, system):
        with pytest.raises(ValueError):
            pipeline_for(system, backend="quantum")

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_precision_respected_by_every_backend(self, system,
                                                  centred_target, backend):
        from repro.kernels import Precision
        pipeline = pipeline_for(system, backend=backend,
                                   precision="float32")
        data = pipeline.acquire(centred_target)
        volume = pipeline.image_volume(data)
        assert volume.rf.dtype == np.float32
        exact = pipeline_for(system, backend=backend)
        Precision.FLOAT32.tolerance.assert_allclose(
            volume.rf, exact.image_volume(data).rf)

    def test_shared_objects_are_reused(self):
        session = Session(EngineSpec(system="tiny", backend="vectorized"))
        assert session.transducer is session.simulator.transducer
        for facade in (session.service(), session.pipeline()):
            assert facade.beamformer.transducer is session.transducer
            assert facade.beamformer.grid is session.grid

    @pytest.mark.parametrize("backend", ["reference", "vectorized"])
    def test_compounding_scheme_refuses_image_volume(self, system,
                                                     centred_target, backend):
        pipeline = pipeline_for(system, backend=backend, scheme="planewave")
        data = pipeline.acquire(centred_target)
        with pytest.raises(ValueError, match="compound_volume"):
            pipeline.image_volume(data)


class TestRegistryIntegration:
    def test_architecture_options_override_legacy_knobs(self, system):
        from repro.core.tablesteer import TableSteerConfig
        pipeline = pipeline_for(
            system, architecture="tablesteer",
            architecture_options=TableSteerConfig(total_bits=13))
        assert pipeline.delay_provider.design.total_bits == 13
        as_dict = pipeline_for(system, architecture="tablesteer",
                                  architecture_options={"total_bits": 13})
        assert as_dict.delay_provider.design.total_bits == 13


class TestInsonificationPlan:
    def test_default_plan_covers_all_scanlines(self, system):
        plan = InsonificationPlan.from_system(system)
        covered = np.concatenate(plan.scanline_groups)
        assert len(covered) == system.volume.scanline_count
        assert len(np.unique(covered)) == system.volume.scanline_count

    def test_insonification_count_capped_by_scanlines(self, system):
        plan = InsonificationPlan.from_system(system, insonifications=10_000)
        assert plan.insonification_count <= system.volume.scanline_count

    @pytest.mark.parametrize("insonifications", [0, -3])
    def test_fewer_than_one_insonification_rejected(self, system,
                                                    insonifications):
        with pytest.raises(ValueError, match="insonifications must be >= 1"):
            InsonificationPlan.from_system(system,
                                           insonifications=insonifications)

    def test_origin_cycling(self, system):
        schedule = OriginSchedule.translated_subapertures(system, count=2)
        plan = InsonificationPlan.from_system(system, schedule=schedule,
                                              insonifications=4)
        np.testing.assert_allclose(plan.origin_for(0), plan.origin_for(2))
        assert not np.allclose(plan.origin_for(0), plan.origin_for(1))

    def test_scanlines_per_insonification(self, system):
        plan = InsonificationPlan.from_system(system, insonifications=4)
        assert plan.scanlines_per_insonification() == pytest.approx(
            system.volume.scanline_count / 4)

    def test_acquisition_summary_paper_arithmetic(self):
        from repro.config import paper_system
        system = paper_system()
        plan = InsonificationPlan.from_system(system)
        summary = acquisition_summary(system, plan)
        assert summary["insonifications_per_second"] == pytest.approx(960.0)
        assert summary["scanlines_per_insonification"] == pytest.approx(256.0)
        assert summary["delay_values_per_second"] == pytest.approx(2.46e12,
                                                                   rel=0.01)
