"""Tests for repro.api.session — and the registry extension acceptance test.

The load-bearing claims: a Session builds shared substrates once, its
pipelines image every architecture from one shared acquisition, and a
brand new delay architecture registered via
``@ARCHITECTURES.register(...)`` plus an options dataclass runs through
``Session.pipeline()`` and ``Session.service()`` without modifying any
repro module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.acoustics.phantom import point_target
from repro.api import ARCHITECTURES, EngineSpec, ScanSpec, Session, SweepSpec
from repro.beamformer import reconstruct_nappe_order, reconstruct_scanline_order
from repro.core import DelayProvider, ExactDelayEngine
from repro.geometry.volume import FocalGrid
from repro.kernels import Precision, plan_storage_bytes
from repro.runtime import PlanCache


@pytest.fixture(scope="module")
def tiny_session():
    from repro.config import tiny_system
    return Session(EngineSpec(system=tiny_system()))


@pytest.fixture(scope="module")
def centred_target(tiny_session):
    depths = tiny_session.grid.depths
    return point_target(depth=float(depths[len(depths) // 2]))


class TestSessionConstruction:
    def test_spec_defaults(self):
        session = Session()
        assert session.spec == EngineSpec()
        assert session.system.name == "small"

    def test_mapping_spec_accepted(self):
        session = Session({"system": "tiny", "architecture": "tablefree"})
        assert session.spec.architecture == "tablefree"
        assert session.system.name == "tiny"

    def test_shared_substrates_are_reused(self, tiny_session):
        pipeline = tiny_session.pipeline(architecture="tablesteer")
        service = tiny_session.service(backend="vectorized")
        assert pipeline.engine.simulator is tiny_session.simulator
        assert pipeline.beamformer.transducer is tiny_session.transducer
        assert pipeline.beamformer.grid is tiny_session.grid
        assert service.engine.simulator is tiny_session.simulator
        assert service.cache is tiny_session.cache
        assert pipeline.cache is tiny_session.cache

    def test_cache_capacity_from_spec(self):
        session = Session(EngineSpec(system="tiny", cache_capacity=2))
        assert session.cache.capacity == 2

    def test_spec_options_flow_to_vended_engines(self):
        spec = EngineSpec(system="tiny", architecture="tablesteer",
                          architecture_options={"total_bits": 13})
        session = Session(spec)
        assert session.pipeline().delay_provider.design.total_bits == 13
        # Overriding the architecture drops the spec's options (they belong
        # to the spec architecture, not the override).
        provider = session.pipeline(architecture="tablefree").delay_provider
        assert provider.design.delta == 0.25

    def test_unknown_names_rejected_at_spec_time(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            Session({"architecture": "magic"})

    def test_spec_precision_flows_to_vended_engines(self):
        session = Session(EngineSpec(system="tiny", precision="float32"))
        assert session.pipeline().precision is Precision.FLOAT32
        assert session.service().precision is Precision.FLOAT32
        # Per-call override wins without touching the spec default.
        assert session.service(precision="float64").precision \
            is Precision.FLOAT64
        assert session.spec.precision is Precision.FLOAT32


class TestSessionAcquireFirings:
    def test_acquiring_a_scheme_needs_no_plan_budget(self, centred_target):
        """A budget of one tiny scanline (12 800 B) cannot beamform a
        five-firing plane wave, but simulating its firings needs no plan:
        they match an unbudgeted session's bit for bit."""
        budgeted = Session(EngineSpec(system="tiny",
                                      memory_budget_bytes=12_800))
        firings = budgeted.acquire_firings(centred_target,
                                           scheme="planewave", seed=3)
        expected = Session(EngineSpec(system="tiny")).acquire_firings(
            centred_target, scheme="planewave", seed=3)
        assert len(firings) == len(expected) == 5
        for got, want in zip(firings, expected):
            assert np.array_equal(got.samples, want.samples)
        # Beamforming them still needs the budget to hold them.
        with pytest.raises(ValueError, match="scanline per firing"):
            budgeted.pipeline(scheme="planewave")

    def test_scheme_overrides_resolve_as_for_a_pipeline(self,
                                                        centred_target):
        """Options alone re-derive the spec's scheme, and a new scheme
        drops the spec's options."""
        session = Session(EngineSpec(system="tiny", scheme="planewave",
                                     scheme_options={"n_angles": 3}))
        assert len(session.acquire_firings(centred_target)) == 3
        assert len(session.acquire_firings(
            centred_target, scheme_options={"n_angles": 2})) == 2
        assert len(session.acquire_firings(
            centred_target, scheme="diverging")) == len(
            session.pipeline(scheme="diverging").scheme.events)


class TestSessionStreaming:
    def test_stream_scan_spec(self, tiny_session):
        results = tiny_session.stream(ScanSpec(frames=3),
                                      backend="vectorized")
        assert [r.frame_id for r in results] == [0, 1, 2]
        shape = tiny_session.grid.shape
        assert all(r.rf.shape == shape for r in results)

    def test_stream_accepts_mapping(self, tiny_session):
        results = tiny_session.stream({"scenario": "static_point",
                                       "frames": 2}, backend="vectorized")
        assert len(results) == 2

    def test_batched_stream_matches_per_frame(self, tiny_session):
        scan = ScanSpec(frames=4)
        singles = tiny_session.stream(scan, backend="vectorized")
        batched = tiny_session.stream(scan, batch_size=2,
                                      backend="vectorized")
        assert [r.frame_id for r in batched] == [0, 1, 2, 3]
        for got, want in zip(batched, singles):
            np.testing.assert_array_equal(got.rf, want.rf)


def _images(session, channel_data, architectures):
    """Centre-plane image of one acquisition under each architecture."""
    return {name: session.pipeline(architecture=name)
            .image_plane(channel_data) for name in architectures}


class TestSweep:
    def test_images_similar_across_architectures(self, tiny_session,
                                                 centred_target):
        """Every architecture's image peaks within one lateral sample of
        the exact engine's."""
        images = _images(tiny_session, tiny_session.acquire(centred_target),
                         ("exact", "tablefree", "tablesteer"))
        assert set(images) == {"exact", "tablefree", "tablesteer"}
        reference = images["exact"]
        peak_ref = np.unravel_index(np.argmax(reference), reference.shape)
        for name, image in images.items():
            assert image.shape == reference.shape
            peak_img = np.unravel_index(np.argmax(image), image.shape)
            assert abs(peak_ref[1] - peak_img[1]) <= 1, name

    def test_sweep_backends_returns_identical_volumes(self, tiny_session,
                                                      centred_target):
        channel_data = tiny_session.acquire(centred_target)
        volumes = {}
        provider = None
        for backend in ("reference", "vectorized"):
            pipeline = tiny_session.pipeline(architecture="tablefree",
                                             backend=backend,
                                             provider=provider)
            provider = pipeline.delay_provider
            volumes[backend] = pipeline.image_volume(channel_data).rf
        np.testing.assert_allclose(volumes["vectorized"],
                                   volumes["reference"], rtol=0, atol=1e-9)

    def test_sweep_takes_only_a_sweep_spec(self, tiny_session,
                                           centred_target):
        """Session.sweep takes only a SweepSpec: a phantom is refused by
        the SweepSpec coercion, and no per-call keyword exists."""
        with pytest.raises(ValueError, match="sweep spec must be a "
                           "SweepSpec or its dict form, got Phantom"):
            tiny_session.sweep(centred_target)
        grid = SweepSpec(scenarios=("static_point",), schemes=("focused",),
                         architectures=("exact",))
        with pytest.raises(TypeError):
            tiny_session.sweep(spec=grid, architectures=("exact",))

    def test_prebuilt_provider_is_reused(self, tiny_session):
        first = tiny_session.pipeline(architecture="tablesteer")
        second = tiny_session.pipeline(architecture="tablesteer",
                                       backend="vectorized",
                                       provider=first.delay_provider)
        assert second.delay_provider is first.delay_provider


# --------------------------------------------------- acceptance: extension
@dataclass(frozen=True)
class _ToyOptions:
    offset_samples: float = 0.0


class _ToyProvider(DelayProvider):
    """Exact delays plus a constant offset: a minimal DelayProvider, its
    ``grid`` and ``delays_samples`` only."""

    def __init__(self, inner: ExactDelayEngine, offset: float) -> None:
        self.inner = inner
        self.grid = inner.grid
        self.offset = offset

    def delays_samples(self, points):
        return self.inner.delays_samples(points) + self.offset


@pytest.fixture()
def toy_architecture():
    """Register a toy architecture for one test, then clean up."""

    @ARCHITECTURES.register("toy_offset", options=_ToyOptions,
                            description="exact + constant offset (test only)")
    def _build(system, options):
        return _ToyProvider(ExactDelayEngine.from_config(system),
                            options.offset_samples)

    try:
        yield "toy_offset"
    finally:
        ARCHITECTURES.unregister("toy_offset")


class TestCustomArchitectureEndToEnd:
    def test_runs_through_pipeline_service_and_spec(self, tiny, centred_target,
                                                    toy_architecture):
        spec = EngineSpec(system=tiny, architecture=toy_architecture,
                          architecture_options={"offset_samples": 0.0})
        # The spec document round-trips with the plugin in place.
        rebuilt = EngineSpec.from_json(spec.to_json())
        assert rebuilt.architecture == toy_architecture

        session = Session(rebuilt)
        # Through the imaging pipeline...
        pipeline = session.pipeline()
        image = pipeline.image_phantom(centred_target)
        baseline = session.pipeline(architecture="exact") \
            .image_phantom(centred_target)
        np.testing.assert_allclose(image, baseline)

        # ...and through the streaming service, on a batched backend.
        service = Session(rebuilt.with_updates(backend="vectorized")) \
            .service(cache=PlanCache())
        result = service.submit_frame(centred_target)
        assert result.rf.shape == FocalGrid.from_config(tiny).shape
        assert isinstance(service.beamformer.delays, _ToyProvider)

        # Both reference drivers (Algorithm 1's two loop nests) read the
        # derived scanline and nappe accessors and agree bit for bit.
        channel_data = session.acquire(centred_target)
        scanline = reconstruct_scanline_order(pipeline.beamformer,
                                              channel_data)
        nappe = reconstruct_nappe_order(pipeline.beamformer, channel_data)
        np.testing.assert_array_equal(nappe.rf, scanline.rf)

        # A budgeted vectorized engine compiles its tiles from the derived
        # tile_delays_samples and reproduces the reference bit for bit.
        budget = plan_storage_bytes(FocalGrid.from_config(tiny).point_count,
                                    tiny.transducer.element_count,
                                    "float64") // 4
        budgeted = Session(rebuilt.with_updates(
            backend="vectorized", memory_budget_bytes=budget)) \
            .service(cache=PlanCache())
        volume = session.service(cache=PlanCache()) \
            .submit_frame(channel_data).rf
        np.testing.assert_array_equal(volume, scanline.rf)
        np.testing.assert_array_equal(
            budgeted.submit_frame(channel_data).rf, volume)
        assert 0 < budgeted.cache.stats.peak_bytes <= budget

    def test_nonzero_offset_changes_the_image(self, tiny, centred_target,
                                              toy_architecture):
        session = Session(EngineSpec(system=tiny))
        channel_data = session.acquire(centred_target)
        images = _images(session, channel_data, ("exact", toy_architecture))
        np.testing.assert_array_equal(images[toy_architecture],
                                      images["exact"])
        offset_pipeline = session.pipeline(
            architecture=toy_architecture,
            architecture_options={"offset_samples": 40.0})
        shifted = offset_pipeline.image_plane(channel_data)
        assert not np.allclose(shifted, images["exact"])

    def test_unregistered_name_gone_again(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            Session({"architecture": "toy_offset"})
