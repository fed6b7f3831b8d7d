"""Unit tests for repro.scenarios: schemes, events, delay split, scoring,
scan registry and the spec/CLI threading."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro import tiny_system
from repro.acoustics.echo import EchoSimulator
from repro.acoustics.phantom import point_target
from repro.api import EngineSpec, ScanSpec, Session, SweepSpec
from repro.architectures import ARCHITECTURES
from repro.geometry.volume import FocalGrid
from repro.kernels import plan_key
from repro.registry import RegistryError
from repro.beamformer.das import DelayAndSumBeamformer
from repro.scenarios import (
    SCENARIOS,
    SCHEMES,
    SCORE_KEYS,
    SchemeEngine,
    TransmitAdjustedProvider,
    TransmitEvent,
    TransmitScheme,
    Wavefront,
    acquire_firings,
    resolve_scheme,
    score_volume,
)


@pytest.fixture(scope="module")
def grid(tiny):
    return FocalGrid.from_config(tiny)


@pytest.fixture(scope="module")
def simulator(tiny):
    return EchoSimulator.from_config(tiny)


@pytest.fixture(scope="module")
def phantom(tiny, grid):
    return point_target(depth=float(grid.depths[len(grid.depths) // 2]))


class TestTransmitEvent:
    def test_focused_event_is_centred(self):
        event = TransmitEvent.focused()
        assert event.is_centred_focused()
        assert event.wavefront is Wavefront.SPHERICAL

    def test_plane_wave_direction_is_unit(self):
        event = TransmitEvent.plane_wave(0.3, 0.1)
        assert np.isclose(np.linalg.norm(event.direction), 1.0)
        assert not event.is_centred_focused()

    def test_spherical_distance_matches_norm(self):
        event = TransmitEvent.focused(origin=np.array([0.001, 0.0, -0.002]))
        point = np.array([0.0, 0.01, 0.03])
        assert event.transmit_distance(point) == pytest.approx(
            np.linalg.norm(point - event.origin))
        np.testing.assert_allclose(
            event.transmit_distances(np.stack([point, point]))[0],
            event.transmit_distance(point))

    def test_plane_distance_is_projection(self):
        event = TransmitEvent.plane_wave(0.0)      # broadside: direction +z
        assert event.transmit_distance(np.array([0.005, 0.0, 0.03])) == \
            pytest.approx(0.03)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            TransmitEvent(origin=np.array([np.nan, 0, 0]))
        with pytest.raises(ValueError):
            TransmitEvent(wavefront=Wavefront.PLANE,
                          direction=np.zeros(3))

    def test_scheme_needs_events(self):
        with pytest.raises(ValueError):
            TransmitScheme(name="empty", events=())

    def test_events_and_schemes_are_comparable_and_hashable(self):
        # Regression: the generated dataclass __eq__/__hash__ raised on
        # the ndarray fields.
        a, b = TransmitEvent.focused(), TransmitEvent.focused(label="other")
        assert a == b          # labels are cosmetic
        assert hash(a) == hash(b)
        assert a != TransmitEvent.plane_wave(0.1)
        scheme_a = TransmitScheme(name="s", events=(a,))
        scheme_b = TransmitScheme(name="s", events=(b,))
        assert scheme_a == scheme_b and len({scheme_a, scheme_b}) == 1
        assert scheme_a != TransmitScheme(
            name="s", events=(TransmitEvent.plane_wave(0.1),))


class TestSchemeRegistry:
    def test_builtin_schemes_registered(self, tiny):
        assert set(SCHEMES.names()) >= {"focused", "planewave",
                                        "synthetic_aperture", "diverging"}
        for name in SCHEMES.names():
            scheme = SCHEMES.create(name, tiny)
            assert scheme.firing_count >= 1

    def test_focused_is_trivial_others_are_not(self, tiny):
        assert resolve_scheme(tiny, None).is_trivial()
        assert resolve_scheme(tiny, "focused").is_trivial()
        assert not resolve_scheme(tiny, "planewave").is_trivial()
        assert not resolve_scheme(
            tiny, "focused", {"origin": (0.0, 0.0, -0.01)}).is_trivial()

    def test_planewave_options_control_firing_count(self, tiny):
        assert resolve_scheme(tiny, "planewave",
                              {"n_angles": 3}).firing_count == 3

    def test_synthetic_aperture_stride(self, tiny):
        scheme = resolve_scheme(tiny, "synthetic_aperture", {"every": 16})
        assert scheme.firing_count == 4    # 64 elements / 16
        origins = np.stack([event.origin for event in scheme.events])
        assert not np.allclose(origins, origins[0])

    def test_prebuilt_scheme_passes_through(self, tiny):
        scheme = TransmitScheme(name="custom",
                                events=(TransmitEvent.focused(),))
        assert resolve_scheme(tiny, scheme) is scheme
        with pytest.raises(ValueError):
            resolve_scheme(tiny, scheme, options={"n_angles": 2})

    def test_unknown_scheme_lists_available(self, tiny):
        with pytest.raises(RegistryError, match="focused"):
            resolve_scheme(tiny, "nope")


class TestDelaySplit:
    def test_plan_keys_differ_per_event(self, tiny, grid):
        base = ARCHITECTURES.create("exact", tiny)
        events = resolve_scheme(tiny, "planewave", {"n_angles": 3}).events
        keys = set()
        for event in events:
            provider = TransmitAdjustedProvider.from_provider(
                base, event, tiny, grid=grid)
            keys.add(plan_key(DelayAndSumBeamformer(tiny, provider)))
        keys.add(plan_key(DelayAndSumBeamformer(tiny, base)))
        assert len(keys) == len(events) + 1

    def test_volume_matches_scanline_assembly(self, tiny, grid):
        base = ARCHITECTURES.create("tablefree", tiny)
        event = TransmitEvent.plane_wave(0.2)
        provider = TransmitAdjustedProvider.from_provider(base, event, tiny,
                                                          grid=grid)
        volume = provider.volume_delays_samples()
        np.testing.assert_allclose(volume[2, 3],
                                   provider.scanline_delays_samples(2, 3),
                                   rtol=0, atol=1e-9)
        nappe = provider.nappe_delays_samples(5)
        np.testing.assert_allclose(volume[:, :, 5], nappe, rtol=0,
                                   atol=1e-9)


class TestSimulateEvent:
    def test_focused_event_reproduces_simulate(self, simulator, phantom,
                                               tiny):
        legacy = simulator.simulate(phantom)
        event = resolve_scheme(tiny, "focused").events[0]
        np.testing.assert_array_equal(
            simulator.simulate_event(phantom, event).samples, legacy.samples)

    def test_broadside_plane_wave_matches_focused_on_axis(self, simulator,
                                                          phantom):
        # For an on-axis point the plane-wave projection equals the
        # spherical distance, so the echoes coincide — a useful sanity
        # check of both transmit models.
        legacy = simulator.simulate(phantom)
        planar = simulator.simulate_event(phantom,
                                          TransmitEvent.plane_wave(0.0))
        np.testing.assert_array_equal(planar.samples, legacy.samples)

    def test_steered_plane_wave_changes_echoes(self, simulator, phantom,
                                               tiny):
        legacy = simulator.simulate(phantom)
        event = TransmitEvent.plane_wave(0.5 * tiny.volume.theta_max)
        planar = simulator.simulate_event(phantom, event)
        assert not np.array_equal(planar.samples, legacy.samples)
        assert np.any(planar.samples != 0)


class TestSchemeEngine:
    def test_firing_count_is_enforced(self, tiny, simulator, phantom):
        scheme = resolve_scheme(tiny, "planewave", {"n_angles": 3})
        engine = SchemeEngine(
            DelayAndSumBeamformer(tiny, ARCHITECTURES.create("exact", tiny)),
            scheme)
        firings = acquire_firings(simulator, scheme, phantom)
        with pytest.raises(ValueError, match="3 firing"):
            engine.beamform_volume(firings[:2])
        with pytest.raises(ValueError, match="3 firing"):
            engine.beamform_batch([firings, firings[:1]])

    def test_per_firing_noise_decorrelated_from_frame_seeds(self, tiny,
                                                            simulator,
                                                            phantom):
        # Regression: per-firing seeds used to be seed + index, colliding
        # with the consecutive per-frame seeds the cine scenarios hand
        # out — two identical events isolate the noise realisation.
        scheme = TransmitScheme(name="twice",
                                events=(TransmitEvent.focused(),
                                        TransmitEvent.focused()))
        frame0 = acquire_firings(simulator, scheme, phantom,
                                 noise_std=0.1, seed=0)
        frame1 = acquire_firings(simulator, scheme, phantom,
                                 noise_std=0.1, seed=1)
        assert not np.array_equal(frame0[1].samples, frame1[0].samples)
        # Firing 0 still reproduces the legacy acquisition seed-for-seed.
        np.testing.assert_array_equal(
            frame0[0].samples,
            simulator.simulate(phantom, noise_std=0.1, seed=0).samples)

    def test_empty_batch_shape(self, tiny):
        scheme = resolve_scheme(tiny, "planewave", {"n_angles": 2})
        engine = SchemeEngine(
            DelayAndSumBeamformer(tiny, ARCHITECTURES.create("exact", tiny)),
            scheme)
        assert engine.beamform_batch([]).shape == (0, 8, 8, 16)

    def test_the_beamformer_sets_the_precision(self, tiny, simulator,
                                               phantom):
        """An engine runs in its beamformer's precision, empty batch and
        real batch alike."""
        scheme = resolve_scheme(tiny, "planewave", {"n_angles": 3})
        engine = SchemeEngine(DelayAndSumBeamformer(
            tiny, ARCHITECTURES.create("exact", tiny), precision="float32"),
            scheme)
        firings = acquire_firings(simulator, scheme, phantom)
        assert engine.precision.value == "float32"
        assert engine.beamform_batch([]).dtype == np.float32
        assert engine.beamform_batch([firings]).dtype == np.float32
        assert all(backend.precision is engine.precision
                   for backend in engine.backends)

    def test_a_cacheless_engine_holds_its_budget(self, tiny, simulator,
                                                 phantom):
        """Without a cache, the engine keeps one private cache for all its
        firings, so its budget bounds the engine, not each firing."""
        budget = 51_200                       # four tiny scanlines
        scheme = resolve_scheme(tiny, "planewave", {"n_angles": 3})
        engine = SchemeEngine(DelayAndSumBeamformer(
            tiny, ARCHITECTURES.create("tablesteer", tiny)), scheme,
            memory_budget_bytes=budget)
        firings = acquire_firings(simulator, scheme, phantom)
        engine.beamform_batch([firings, firings])
        assert all(backend.cache is engine.cache
                   for backend in engine.backends)
        stats = engine.cache.stats
        assert 0 < stats.bytes <= stats.peak_bytes <= budget

    def test_trivial_scheme_runs_the_bare_beamformer(self, tiny):
        # No transmit wrap: the focused engine keeps the architecture's own
        # plan keys, so it shares plans with every other focused engine.
        beamformer = DelayAndSumBeamformer(
            tiny, ARCHITECTURES.create("tablesteer", tiny))
        (backend,) = SchemeEngine(beamformer, resolve_scheme(tiny)).backends
        assert backend.beamformer is beamformer
        (tile,) = backend.planner.tiles()
        assert backend.segment(tile).key == plan_key(beamformer, None,
                                                     tile=tile)


def test_only_the_scheme_engine_assembles_backends():
    """SchemeEngine is the one place that builds and budgets backends.

    The service and the pipeline execute through it; a second assembly
    path would let the two drift apart in tracer, budget or cache wiring.
    """
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    assembly = re.compile(r"BACKENDS\.create\(|\.set_memory_budget\(")
    offenders = [
        f"{path.relative_to(src)}:{lineno}: {line.strip()}"
        for path in src.rglob("*.py")
        if path.relative_to(src).as_posix() != "scenarios/engine.py"
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if assembly.search(line)]
    assert not offenders, (
        "backend assembly outside repro/scenarios/engine.py:\n"
        + "\n".join(offenders))


def test_only_tiled_plans_compile_above_the_kernels():
    """Above the kernel layer every plan is a backend's tile segment: no
    module in these packages calls ``compile_plan(`` and opens a second
    path."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    offenders = [
        f"{path.relative_to(src)}:{lineno}: {line.strip()}"
        for package in ("runtime", "scenarios", "api", "pipeline", "server",
                        "sweep")
        for path in (src / package).rglob("*.py")
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "compile_plan(" in line]
    assert not offenders, "direct plan compiles:\n" + "\n".join(offenders)


def test_the_kernels_import_nothing_above_them():
    """The kernel layer sits below the runtime: no module under
    ``repro/kernels/`` imports from the packages built on it."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    above = re.compile(r"^\s*(from|import)\s+(repro\.|\.\.)"
                       r"(runtime|scenarios|api|server|sweep)\b")
    offenders = [
        f"{path.relative_to(src)}:{lineno}: {line.strip()}"
        for path in (src / "kernels").rglob("*.py")
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if above.search(line)]
    assert not offenders, "kernel imports from above:\n" + "\n".join(
        offenders)


def test_nothing_in_src_starts_a_process():
    """One level of parallelism: the library runs on threads only, so no
    module under ``repro/`` imports ``multiprocessing`` or starts a
    process pool or a fork."""
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    process = re.compile(r"^\s*(from|import)\s+multiprocessing\b"
                         r"|ProcessPoolExecutor|os\.fork\(")
    offenders = [
        f"{path.relative_to(src)}:{lineno}: {line.strip()}"
        for path in src.rglob("*.py")
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if process.search(line)]
    assert not offenders, "process-parallel code:\n" + "\n".join(offenders)


class TestScoring:
    def test_score_volume_always_reports_every_key(self, tiny):
        volume = np.zeros((8, 8, 16))
        volume[4, 4, 8] = 1.0
        scores = score_volume(tiny, volume, scenario="static_point")
        assert set(scores) == set(SCORE_KEYS)
        assert np.isfinite(scores["fwhm_axial"])
        assert np.isnan(scores["cnr"])

    def test_unknown_scenario_falls_back_to_point_scorer(self, tiny):
        volume = np.zeros((8, 8, 16))
        volume[4, 4, 8] = 1.0
        scores = score_volume(tiny, volume, scenario="does_not_exist")
        assert np.isfinite(scores["fwhm_axial"])

    def test_contrast_scorer_on_cyst_scenario(self, tiny):
        session = Session(EngineSpec(system="tiny"))
        frame = ScanSpec(scenario="cyst",
                         frames=1).build_frames(session.system)[0]
        volume = session.pipeline().image_scheme(frame.phantom).rf
        scores = score_volume(tiny, volume, scenario="cyst",
                              options=SCENARIOS.get("cyst")
                              .make_options(None))
        assert np.isfinite(scores["gcnr"]) and 0 <= scores["gcnr"] <= 1
        assert np.isfinite(scores["cnr"])


class TestScanScenarios:
    @pytest.mark.parametrize("scenario", ["cyst", "wire_grid", "multi_cyst",
                                          "moving_scatterers"])
    def test_new_scenarios_build_frames(self, tiny, scenario):
        frames = ScanSpec(scenario=scenario, frames=3).build_frames(tiny)
        assert len(frames) == 3
        assert all(frame.phantom is not None for frame in frames)

    def test_moving_scatterers_actually_move(self, tiny):
        frames = ScanSpec(scenario="moving_scatterers",
                          frames=3).build_frames(tiny)
        assert not np.allclose(frames[0].phantom.positions,
                               frames[2].phantom.positions)
        np.testing.assert_allclose(frames[0].phantom.amplitudes,
                                   frames[2].phantom.amplitudes)


class TestSpecThreading:
    def test_engine_spec_validates_scheme(self):
        with pytest.raises(RegistryError):
            EngineSpec(system="tiny", scheme="warp_drive")
        with pytest.raises(ValueError, match="registered scheme name"):
            EngineSpec(system="tiny",
                       scheme=TransmitScheme(
                           name="x", events=(TransmitEvent.focused(),)))

    def test_engine_spec_scheme_round_trip(self):
        spec = EngineSpec(system="tiny", scheme="synthetic_aperture",
                          scheme_options={"every": 16})
        rebuilt = EngineSpec.from_json(spec.to_json())
        assert rebuilt.scheme == "synthetic_aperture"
        assert rebuilt.scheme_options.every == 16

    def test_sweep_spec_round_trip_and_validation(self):
        spec = SweepSpec(scenarios=("cyst",), schemes=("planewave",),
                         architectures=("exact",), backends=None)
        rebuilt = SweepSpec.from_json(spec.to_json())
        assert rebuilt == spec
        with pytest.raises(RegistryError):
            SweepSpec(schemes=("nope",))
        with pytest.raises(ValueError):
            SweepSpec(scenarios=())
        with pytest.raises(ValueError):
            SweepSpec.from_dict({"bogus": 1})

    def test_sweep_spec_rejects_bare_strings(self):
        # A hand-written {"scenarios": "cyst"} would otherwise iterate
        # character by character into "unknown scenario 'c'".
        with pytest.raises(ValueError, match="list of names"):
            SweepSpec(scenarios="cyst")
        with pytest.raises(ValueError, match="list of names"):
            SweepSpec(architectures="exact")

    def test_sweep_grid_reuses_plans_across_cells(self):
        # Regression: the grid used to reserve only one scheme's firing
        # count, evicting and recompiling plans on every scenario cell.
        # Plan-major, each plan compiles once and the second scenario
        # reuses it before the next architecture's plans evict it.
        session = Session(EngineSpec(system="tiny", backend="vectorized"))
        session.sweep(spec={"scenarios": ["static_point", "wire_grid"],
                            "schemes": ["planewave"],
                            "architectures": ["exact", "tablesteer"]})
        stats = session.cache.stats
        # One entry per architecture holds its 5 firings' plans.
        assert stats.misses == 2          # architectures, once
        assert stats.hits == 2            # second scenario reuses them all

    def test_spec_driven_sweep_rejects_per_call_arguments(self):
        # Session.sweep takes only the spec: every other parameter lives
        # in the SweepSpec document.
        session = Session(EngineSpec(system="tiny"))
        with pytest.raises(TypeError):
            session.sweep(spec={"scenarios": ["static_point"]},
                          architectures=("exact",))
        with pytest.raises(TypeError):
            session.sweep(spec={"scenarios": ["static_point"]},
                          noise_std=0.1)

    def test_session_scheme_override_uses_registered_defaults(self):
        session = Session(EngineSpec(system="tiny", scheme="planewave",
                                     scheme_options={"n_angles": 3}))
        assert session.scheme.firing_count == 3
        # Same name, no options -> inherit the spec's resolved scheme.
        assert session.pipeline().scheme is session.scheme
        # Different name -> that scheme's registered defaults.
        assert session.pipeline(scheme="diverging").scheme.firing_count == 4

    def test_session_cache_grows_to_firing_count(self, phantom):
        # The 8 firings' plans are one entry: on a 4-plan session cache it
        # is kept alone, and the second frame compiles nothing.
        session = Session(EngineSpec(
            system="tiny", backend="vectorized", scheme="synthetic_aperture",
            scheme_options={"every": 8}, cache_capacity=4))
        assert session.scheme.firing_count == 8
        service = session.service()
        for _ in range(2):
            service.submit_frame(phantom)
        stats = session.cache.stats
        assert (stats.misses, stats.hits, stats.evictions) == (1, 1, 0)

    def test_scheme_options_only_override_applies_to_spec_scheme(self):
        # Regression: an options-only override used to be dropped
        # silently (returning the spec's 5-firing default).
        session = Session(EngineSpec(system="tiny", scheme="planewave"))
        pipeline = session.pipeline(scheme_options={"n_angles": 3})
        assert pipeline.scheme.firing_count == 3

    def test_per_call_scheme_override_reserves_cache_slots(self, phantom):
        # Regression: an overridden multi-firing scheme used to thrash its
        # event bank on the 4-plan session cache.
        session = Session(EngineSpec(system="tiny", backend="vectorized",
                                     cache_capacity=4))
        service = session.service(scheme="synthetic_aperture",
                                  scheme_options={"every": 8})
        for _ in range(2):
            service.submit_frame(phantom)
        stats = session.cache.stats
        assert (stats.misses, stats.hits, stats.evictions) == (1, 1, 0)


class TestServiceScheme:
    def test_prerecorded_firings_stream(self, tiny, simulator, phantom):
        session = Session(EngineSpec(system="tiny", scheme="planewave",
                                     scheme_options={"n_angles": 2}))
        firings = session.acquire_firings(phantom)
        service = session.service()
        result = service.submit_frame(tuple(firings))
        np.testing.assert_array_equal(
            result.rf, session.pipeline(backend="vectorized")
            .compound_volume(firings).rf)
        assert service.stats().scheme == "planewave (2 firings)"

    def test_wrong_firing_count_rejected(self, phantom):
        session = Session(EngineSpec(system="tiny", scheme="planewave",
                                     scheme_options={"n_angles": 2}))
        firings = session.acquire_firings(phantom)
        with pytest.raises(ValueError, match="expects 2 firing"):
            session.service().submit_frame(firings[0])

    def test_focused_service_keeps_legacy_stats(self, phantom):
        service = Session(EngineSpec(system="tiny")).service()
        service.submit_frame(phantom)
        assert service.stats().scheme is None

    def test_focused_service_accepts_single_firing_sequence(self, tiny,
                                                            simulator,
                                                            phantom):
        # A one-element firing tuple is a valid frame for the one-firing
        # baseline; scheme-generic callers need no special case.
        channel_data = simulator.simulate(phantom)
        service = Session(EngineSpec(system="tiny")).service(
            backend="vectorized")
        result = service.submit_frame((channel_data,))
        np.testing.assert_array_equal(
            result.rf, service.submit_frame(channel_data).rf)
        with pytest.raises(ValueError, match="expects 1 firing"):
            service.submit_frame((channel_data, channel_data))

    def test_direct_service_reserves_cache_for_firings(self, tiny, phantom):
        # Regression: a directly-constructed service with a multi-firing
        # scheme used to thrash its 4-slot private cache (5 plan keys),
        # recompiling the whole event bank every frame.  The 5 firings'
        # plans are one entry, kept alone.
        from repro.runtime.service import BeamformingService
        service = BeamformingService(EngineSpec(
            system=tiny, backend="vectorized",
            scheme="planewave").build_engine())
        for _ in range(2):
            service.submit_frame(phantom)
        stats = service.stats().cache
        assert (stats.misses, stats.hits, stats.evictions) == (1, 1, 0)
        assert stats.size == 1



class TestCliScheme:
    def test_spec_command_emits_scheme(self, capsys):
        from repro.cli import main
        assert main(["spec", "--system", "tiny", "--scheme", "planewave",
                     "--set", "scheme_options.n_angles=3"]) == 0
        out = capsys.readouterr().out
        assert '"scheme": "planewave"' in out
        assert '"n_angles": 3' in out

    def test_stream_command_accepts_scheme(self, capsys):
        from repro.cli import main
        assert main(["stream", "--system", "tiny", "--scheme", "diverging",
                     "--frames", "2"]) == 0
        out = capsys.readouterr().out
        assert "scheme=diverging (4 firings)" in out

    def test_unknown_scheme_fails_with_listing(self, capsys):
        from repro.cli import main
        assert main(["spec", "--system", "tiny",
                     "--scheme", "warp_drive"]) == 2
        assert "focused" in capsys.readouterr().err
