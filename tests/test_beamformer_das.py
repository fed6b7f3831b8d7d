"""Tests for repro.beamformer.das: the delay-and-sum core."""

from __future__ import annotations

import numpy as np
import pytest

import repro.beamformer
import repro.core
from repro.acoustics.echo import ChannelData, EchoSimulator
from repro.acoustics.phantom import point_target
from repro.beamformer.das import ApodizationSettings, DelayAndSumBeamformer, DelayProvider
from repro.architectures import ARCHITECTURES
from repro.core.exact import ExactDelayEngine
from repro.core.recursive import RecursiveDelayGenerator
from repro.geometry.apodization import WindowType
from repro.scenarios import SCHEMES, TransmitAdjustedProvider


@pytest.fixture(scope="module")
def tiny_setup():
    from repro.config import tiny_system
    system = tiny_system()
    exact = ExactDelayEngine.from_config(system)
    depth = float(exact.grid.depths[len(exact.grid.depths) // 2])
    channel_data = EchoSimulator.from_config(system).simulate(
        point_target(depth=depth))
    beamformer = DelayAndSumBeamformer(system, exact)
    return system, exact, beamformer, channel_data, depth


class TestProtocol:
    def test_all_generators_satisfy_delay_provider(self, tiny):
        firing = SCHEMES.create("planewave", tiny).events[0]
        providers = [ARCHITECTURES.create(name, tiny)
                     for name in ARCHITECTURES.names()]
        providers += [RecursiveDelayGenerator.from_config(tiny),
                      TransmitAdjustedProvider.from_provider(
                          providers[0], firing, tiny)]
        for provider in providers:
            assert isinstance(provider, DelayProvider)
            for accessor in ("delays_samples", "scanline_delays_samples",
                             "nappe_delays_samples", "tile_delays_samples",
                             "volume_delays_samples", "delay_indices"):
                assert callable(getattr(provider, accessor))

    def test_one_contract(self):
        """The beamformer's DelayProvider is the core base class."""
        assert DelayProvider is repro.core.DelayProvider
        assert DelayProvider is repro.beamformer.DelayProvider


class TestWeights:
    def test_scanline_weights_cached_and_correct(self, tiny_setup):
        system, exact, _beamformer, _data, _depth = tiny_setup
        beamformer = DelayAndSumBeamformer(system, exact)
        assert not beamformer._scanline_weights
        first = beamformer.weights_for_scanline(1, 2)
        np.testing.assert_array_equal(
            first, beamformer.weights_for_points(
                exact.grid.scanline_points(1, 2)))
        # The second call must hand back the very same cached array.
        assert beamformer.weights_for_scanline(1, 2) is first
        assert set(beamformer._scanline_weights) == {(1, 2)}

    def test_beamform_scanline_populates_weight_cache(self, tiny_setup):
        system, exact, _beamformer, data, _depth = tiny_setup
        beamformer = DelayAndSumBeamformer(system, exact)
        beamformer.beamform_scanline(data, 0, 3)
        beamformer.beamform_scanline(data, 0, 3)
        assert set(beamformer._scanline_weights) == {(0, 3)}

    def test_weights_shape(self, tiny_setup):
        system, exact, beamformer, _data, _depth = tiny_setup
        points = exact.grid.scanline_points(0, 0)[:7]
        weights = beamformer.weights_for_points(points)
        assert weights.shape == (7, system.transducer.element_count)

    def test_weights_nonnegative_and_bounded(self, tiny_setup):
        _system, exact, beamformer, _data, _depth = tiny_setup
        points = exact.grid.scanline_points(2, 2)
        weights = beamformer.weights_for_points(points)
        assert np.all(weights >= 0)
        assert np.all(weights <= 1.0 + 1e-12)

    def test_directivity_disabled_keeps_aperture_only(self, tiny_setup):
        system, exact, _beamformer, _data, _depth = tiny_setup
        no_directivity = DelayAndSumBeamformer(
            system, exact,
            ApodizationSettings(window=WindowType.HANN, use_directivity=False))
        points = exact.grid.scanline_points(0, 0)[:3]
        weights = no_directivity.weights_for_points(points)
        # Without directivity every point gets identical aperture weights.
        np.testing.assert_allclose(weights[0], weights[1])
        np.testing.assert_allclose(weights[0], weights[2])

    def test_rectangular_window_gives_unit_weights(self, tiny_setup):
        system, exact, _beamformer, _data, _depth = tiny_setup
        uniform = DelayAndSumBeamformer(
            system, exact,
            ApodizationSettings(window=WindowType.RECTANGULAR,
                                use_directivity=False))
        point = np.array([[0.0, 0.0, 0.01]])
        np.testing.assert_allclose(uniform.weights_for_points(point), 1.0)


class TestBeamforming:
    def test_peak_at_target_depth(self, tiny_setup):
        """The beamformed scanline through the target peaks at the target."""
        system, exact, beamformer, channel_data, depth = tiny_setup
        # Broadside-most scanline (grid has no exact theta=0 for even counts).
        i_theta = system.volume.n_theta // 2
        i_phi = system.volume.n_phi // 2
        rf = beamformer.beamform_scanline(channel_data, i_theta, i_phi)
        peak_depth = exact.grid.depths[int(np.argmax(np.abs(rf)))]
        assert abs(peak_depth - depth) < 3 * (exact.grid.depths[1]
                                              - exact.grid.depths[0])

    def test_beamform_points_matches_scanline(self, tiny_setup):
        _system, exact, beamformer, channel_data, _depth = tiny_setup
        i_theta, i_phi = 3, 2
        scanline_rf = beamformer.beamform_scanline(channel_data, i_theta, i_phi)
        points_rf = beamformer.beamform_points(
            channel_data, exact.grid.scanline_points(i_theta, i_phi))
        np.testing.assert_allclose(points_rf, scanline_rf)

    def test_beamform_nappe_matches_pointwise(self, tiny_setup):
        _system, exact, beamformer, channel_data, _depth = tiny_setup
        i_depth = len(exact.grid.depths) // 2
        nappe_rf = beamformer.beamform_nappe(channel_data, i_depth)
        assert nappe_rf.shape == (len(exact.grid.thetas), len(exact.grid.phis))
        # Spot-check one (theta, phi) against the point API.
        point = exact.grid.point(1, 2, i_depth).reshape(1, 3)
        single = beamformer.beamform_points(channel_data, point)[0]
        assert nappe_rf[1, 2] == pytest.approx(single)

    def test_silence_in_gives_zero_out(self, tiny_setup):
        system, exact, beamformer, _data, _depth = tiny_setup
        silent = ChannelData(
            samples=np.zeros((system.transducer.element_count,
                              system.echo_buffer_samples)),
            sampling_frequency=system.acoustic.sampling_frequency)
        rf = beamformer.beamform_scanline(silent, 0, 0)
        np.testing.assert_allclose(rf, 0.0)

    def test_linear_in_channel_data(self, tiny_setup):
        _system, exact, beamformer, channel_data, _depth = tiny_setup
        doubled = ChannelData(samples=2.0 * channel_data.samples,
                              sampling_frequency=channel_data.sampling_frequency)
        rf = beamformer.beamform_scanline(channel_data, 4, 4)
        rf_doubled = beamformer.beamform_scanline(doubled, 4, 4)
        np.testing.assert_allclose(rf_doubled, 2.0 * rf, atol=1e-12)

    def test_coherent_gain_exceeds_single_element(self, tiny_setup):
        """Summing in phase across elements must beat any single element's
        amplitude at the focus — the whole point of beamforming."""
        system, exact, beamformer, channel_data, depth = tiny_setup
        i_theta = system.volume.n_theta // 2
        i_phi = system.volume.n_phi // 2
        rf = beamformer.beamform_scanline(channel_data, i_theta, i_phi)
        focus_amplitude = np.max(np.abs(rf))
        best_single = np.max(np.abs(channel_data.samples))
        assert focus_amplitude > 2.0 * best_single
