"""Tests for repro.beamformer.image: envelope, compression and metrics."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.signal import hilbert

from repro.beamformer.image import (
    contrast_ratio_db,
    envelope,
    log_compress,
    normalized_rms_difference,
    point_spread_metrics,
)


class TestEnvelope:
    def test_envelope_of_modulated_tone_is_smooth(self):
        t = np.arange(512) / 32e6
        carrier = np.cos(2 * np.pi * 4e6 * t)
        window = np.exp(-0.5 * ((t - t.mean()) / 2e-6) ** 2)
        rf = window * carrier
        env = envelope(rf)
        # The envelope should track the Gaussian window, not the carrier.
        np.testing.assert_allclose(env[100:-100], window[100:-100], atol=0.05)

    def test_envelope_nonnegative(self, rng):
        rf = rng.normal(size=256)
        assert np.all(envelope(rf) >= 0)

    def test_short_trace_falls_back_to_abs(self):
        rf = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(envelope(rf), np.abs(rf))

    def test_axis_argument(self, rng):
        rf = rng.normal(size=(4, 128))
        env_rows = envelope(rf, axis=1)
        for i in range(4):
            np.testing.assert_allclose(env_rows[i], envelope(rf[i]))


class TestEnvelopeIsHilbertsBitForBit:
    """``envelope`` runs ``hilbert``'s own steps on ``scipy.fft``, so it
    equals ``np.abs(scipy.signal.hilbert(rf, axis=axis))`` bit for bit."""

    @staticmethod
    def _hilbert_envelope(rf, axis):
        return np.abs(hilbert(np.asarray(rf, dtype=np.float64), axis=axis))

    @pytest.mark.parametrize("n", [8, 9, 64, 65, 1601])
    def test_every_length(self, rng, n):
        rf = rng.normal(size=n)
        assert np.array_equal(envelope(rf), self._hilbert_envelope(rf, -1))

    @pytest.mark.parametrize("axis", [0, 1, 2, -1, -2, -3])
    def test_every_axis_of_a_volume(self, rng, axis):
        rf = rng.normal(size=(9, 12, 65))
        assert np.array_equal(envelope(rf, axis=axis),
                              self._hilbert_envelope(rf, axis))

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_non_contiguous_view(self, rng, axis):
        rf = rng.normal(size=(20, 13, 130))[::2, :, ::-2]
        assert not rf.flags.c_contiguous and not rf.flags.f_contiguous
        assert np.array_equal(envelope(rf, axis=axis),
                              self._hilbert_envelope(rf, axis))

    def test_float32_input(self, rng):
        rf = rng.normal(size=(6, 64)).astype(np.float32)
        assert np.array_equal(envelope(rf, axis=1),
                              self._hilbert_envelope(rf, 1))

    def test_integer_input(self, rng):
        rf = rng.integers(-2000, 2000, size=(5, 65))
        assert np.array_equal(envelope(rf, axis=1),
                              self._hilbert_envelope(rf, 1))

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_short_axis_is_the_magnitude(self, rng, n):
        rf = rng.normal(size=(4, n, 16))
        out = envelope(rf, axis=1)
        assert out.dtype == np.float64
        assert np.array_equal(out, np.abs(rf))


class TestLogCompress:
    def test_peak_maps_to_zero_db(self, rng):
        env = np.abs(rng.normal(size=100)) + 0.1
        db = log_compress(env)
        assert db.max() == pytest.approx(0.0)

    def test_range_clipped_to_dynamic_range(self, rng):
        env = np.concatenate([[1.0], np.full(9, 1e-9)])
        db = log_compress(env, dynamic_range_db=40.0)
        assert db.min() == pytest.approx(-40.0)

    def test_all_zero_image(self):
        db = log_compress(np.zeros(16), dynamic_range_db=50.0)
        np.testing.assert_allclose(db, -50.0)

    def test_factor_of_ten_is_twenty_db(self):
        db = log_compress(np.array([1.0, 0.1]))
        assert db[0] - db[1] == pytest.approx(20.0)


class TestPointSpreadMetrics:
    def test_ideal_gaussian_profile(self):
        x = np.arange(200)
        sigma = 5.0
        profile = np.exp(-0.5 * ((x - 100) / sigma) ** 2)
        metrics = point_spread_metrics(profile)
        assert metrics.peak_index == 100
        assert metrics.peak_value == pytest.approx(1.0)
        expected_fwhm = 2 * np.sqrt(2 * np.log(2)) * sigma
        assert metrics.fwhm_samples == pytest.approx(expected_fwhm, rel=0.05)

    def test_narrower_profile_has_smaller_fwhm(self):
        x = np.arange(200)
        narrow = np.exp(-0.5 * ((x - 100) / 3.0) ** 2)
        wide = np.exp(-0.5 * ((x - 100) / 9.0) ** 2)
        assert point_spread_metrics(narrow).fwhm_samples < \
            point_spread_metrics(wide).fwhm_samples

    def test_sidelobe_level(self):
        x = np.arange(300)
        main = np.exp(-0.5 * ((x - 100) / 4.0) ** 2)
        sidelobe = 0.1 * np.exp(-0.5 * ((x - 200) / 4.0) ** 2)
        metrics = point_spread_metrics(main + sidelobe)
        assert metrics.peak_to_sidelobe_db == pytest.approx(20.0, abs=1.0)

    def test_profile_without_sidelobes(self):
        profile = np.zeros(50)
        profile[25] = 1.0
        metrics = point_spread_metrics(profile)
        assert metrics.peak_to_sidelobe_db > 60

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            point_spread_metrics(np.array([]))

    def test_all_zero_profile(self):
        metrics = point_spread_metrics(np.zeros(10))
        assert metrics.peak_value == 0.0


class TestContrastRatio:
    def test_anechoic_region_gives_positive_contrast(self, rng):
        image = np.abs(rng.normal(1.0, 0.1, (32, 32)))
        inside = np.zeros_like(image, dtype=bool)
        inside[12:20, 12:20] = True
        image[inside] *= 0.1
        contrast = contrast_ratio_db(image, inside, ~inside)
        assert contrast == pytest.approx(20.0, abs=2.0)

    def test_identical_regions_give_zero(self, rng):
        image = np.ones((16, 16))
        inside = np.zeros_like(image, dtype=bool)
        inside[:8] = True
        assert contrast_ratio_db(image, inside, ~inside) == pytest.approx(0.0)

    def test_empty_mask_rejected(self):
        image = np.ones((4, 4))
        with pytest.raises(ValueError):
            contrast_ratio_db(image, np.zeros_like(image, dtype=bool),
                              np.ones_like(image, dtype=bool))


class TestNrms:
    def test_identical_images_give_zero(self, rng):
        image = rng.normal(size=(8, 8))
        assert normalized_rms_difference(image, image) == 0.0

    def test_scaling_relationship(self, rng):
        image = rng.normal(size=(16, 16))
        assert normalized_rms_difference(image, 2 * image) == pytest.approx(1.0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            normalized_rms_difference(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_zero_reference(self):
        assert normalized_rms_difference(np.zeros(4), np.zeros(4)) == 0.0
        assert normalized_rms_difference(np.zeros(4), np.ones(4)) == np.inf
