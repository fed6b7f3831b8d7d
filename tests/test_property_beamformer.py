"""Property-based tests (hypothesis) for the beamforming and acoustics substrate."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acoustics.echo import ChannelData, EchoSimulator
from repro.acoustics.phantom import Phantom, point_target
from repro.beamformer.das import DelayAndSumBeamformer
from repro.beamformer.image import envelope, log_compress, normalized_rms_difference
from repro.beamformer.interpolation import (
    InterpolationKind,
    fetch_linear,
    fetch_nearest,
    fetch_samples,
)
from repro.config import tiny_system
from repro.core.exact import ExactDelayEngine
from repro.kernels import build_gather_index, gather_interp

SYSTEM = tiny_system()
EXACT = ExactDelayEngine.from_config(SYSTEM)
SIMULATOR = EchoSimulator.from_config(SYSTEM)
BEAMFORMER = DelayAndSumBeamformer(SYSTEM, EXACT)

depth_strategy = st.floats(min_value=float(EXACT.grid.depths[2]),
                           max_value=float(EXACT.grid.depths[-3]),
                           allow_nan=False)
amplitude_strategy = st.floats(min_value=0.1, max_value=10.0, allow_nan=False)


class TestAcquisitionProperties:
    @given(depth=depth_strategy, amplitude=amplitude_strategy)
    @settings(max_examples=20, deadline=None)
    def test_channel_data_linear_in_amplitude(self, depth, amplitude):
        unit = SIMULATOR.simulate(point_target(depth=depth, amplitude=1.0))
        scaled = SIMULATOR.simulate(point_target(depth=depth, amplitude=amplitude))
        np.testing.assert_allclose(scaled.samples, amplitude * unit.samples,
                                   atol=1e-10)

    @given(depth=depth_strategy)
    @settings(max_examples=20, deadline=None)
    def test_echo_energy_is_finite_and_nonzero(self, depth):
        data = SIMULATOR.simulate(point_target(depth=depth))
        energy = float(np.sum(data.samples ** 2))
        assert np.isfinite(energy)
        assert energy > 0

    @given(depth=depth_strategy, amplitude=amplitude_strategy)
    @settings(max_examples=15, deadline=None)
    def test_beamformed_output_linear_in_scatterer_amplitude(self, depth, amplitude):
        i_mid = SYSTEM.volume.n_theta // 2
        unit = SIMULATOR.simulate(point_target(depth=depth, amplitude=1.0))
        scaled = SIMULATOR.simulate(point_target(depth=depth, amplitude=amplitude))
        rf_unit = BEAMFORMER.beamform_scanline(unit, i_mid, i_mid)
        rf_scaled = BEAMFORMER.beamform_scanline(scaled, i_mid, i_mid)
        np.testing.assert_allclose(rf_scaled, amplitude * rf_unit, atol=1e-9)

    @given(i_depth=st.integers(min_value=2, max_value=SYSTEM.volume.n_depth - 3),
           offset=st.floats(min_value=-0.25, max_value=0.25, allow_nan=False))
    @settings(max_examples=15, deadline=None)
    def test_beamformed_peak_near_target_depth(self, i_depth, offset):
        """For a target close to any focal-grid depth, the beamformed scanline
        through it peaks within a couple of depth cells of the target.  (The
        tiny test grid samples depth much more coarsely than the pulse length,
        so targets exactly between nodes can legitimately be missed — that is
        a property of the coarse grid, not of the beamformer.)"""
        spacing = float(EXACT.grid.depths[1] - EXACT.grid.depths[0])
        depth = float(EXACT.grid.depths[i_depth]) + offset * spacing
        data = SIMULATOR.simulate(point_target(depth=depth))
        i_mid = SYSTEM.volume.n_theta // 2
        rf = BEAMFORMER.beamform_scanline(data, i_mid, i_mid)
        peak_depth = float(EXACT.grid.depths[int(np.argmax(np.abs(rf)))])
        assert abs(peak_depth - depth) <= 2.5 * spacing


class TestImageFormationProperties:
    @given(scale=st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_log_compression_scale_invariant(self, scale, seed):
        rng = np.random.default_rng(seed)
        image = np.abs(rng.normal(size=(8, 8))) + 1e-3
        np.testing.assert_allclose(log_compress(image),
                                   log_compress(scale * image), atol=1e-9)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_envelope_bounds_signal_magnitude(self, seed):
        rng = np.random.default_rng(seed)
        t = np.arange(128)
        rf = np.cos(2 * np.pi * 0.12 * t) * rng.uniform(0.5, 2.0)
        env = envelope(rf)
        # The analytic-signal envelope can undershoot slightly at the edges
        # but must dominate the rectified signal away from them.
        assert np.all(env[8:-8] >= np.abs(rf[8:-8]) - 1e-6)

    @given(seed=st.integers(min_value=0, max_value=10_000),
           scale=st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_nrms_scale_relationship(self, seed, scale):
        """Scaling an image by ``s`` gives an NRMS of exactly ``|1 - s|``."""
        rng = np.random.default_rng(seed)
        image = np.abs(rng.normal(size=(6, 6))) + 0.1
        np.testing.assert_allclose(
            normalized_rms_difference(image, scale * image),
            abs(1.0 - scale), rtol=1e-9)


class TestInterpolationProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_linear_interpolation_bounded_by_neighbouring_samples(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=(1, 64))
        data = ChannelData(samples=samples, sampling_frequency=32e6)
        delays = rng.uniform(1.0, 62.0, 20)
        elements = np.zeros(20, dtype=int)
        values = fetch_linear(data, elements, delays)
        lower = samples[0, np.floor(delays).astype(int)]
        upper = samples[0, np.floor(delays).astype(int) + 1]
        low = np.minimum(lower, upper) - 1e-12
        high = np.maximum(lower, upper) + 1e-12
        assert np.all(values >= low) and np.all(values <= high)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_nearest_returns_actual_stored_samples(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=(2, 32))
        data = ChannelData(samples=samples, sampling_frequency=32e6)
        delays = rng.uniform(0.0, 31.0, 16)
        elements = rng.integers(0, 2, 16)
        values = fetch_nearest(data, elements, delays)
        for value, element in zip(values, elements):
            assert value in samples[element]

    @given(n_points=st.integers(min_value=1, max_value=12),
           n_elements=st.integers(min_value=1, max_value=6),
           n_samples=st.integers(min_value=1, max_value=40),
           kind=st.sampled_from(list(InterpolationKind)),
           dtype=st.sampled_from([np.float64, np.float32]),
           n_frames=st.sampled_from([None, 1, 3]),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=200, deadline=None)
    def test_flat_gather_matches_legacy_fetch(self, n_points, n_elements,
                                              n_samples, kind, dtype,
                                              n_frames, seed):
        """The maskless flat gather equals the legacy per-element fetch,
        out-of-range and far-out delays included, in both dtypes, for one
        frame and for a stack."""
        rng = np.random.default_rng(seed)
        delays = rng.uniform(-n_samples, 2 * n_samples,
                             size=(n_points, n_elements))
        far = rng.random(delays.shape) < 0.1
        delays[far] = rng.choice([-1e12, 1e12], size=int(far.sum()))
        frames = rng.normal(size=(n_frames or 1, n_elements, n_samples)) \
            .astype(dtype)
        elements = np.broadcast_to(np.arange(n_elements), delays.shape)

        def legacy(frame):
            data = ChannelData(samples=frame, sampling_frequency=32e6)
            if kind is InterpolationKind.NEAREST or dtype == np.float64:
                return fetch_samples(data, elements, delays, kind)
            # float32 linear: the legacy neighbour fetches, interpolated in
            # the execution dtype as the kernels do.
            lower = np.floor(delays)
            fraction = (delays - lower).astype(dtype)
            return (1.0 - fraction) * fetch_samples(data, elements, lower) \
                + fraction * fetch_samples(data, elements, lower + 1.0)

        index = build_gather_index(delays, n_samples, kind, dtype)
        expected = np.stack([legacy(frame) for frame in frames])
        gathered = gather_interp(frames if n_frames else frames[0], index)
        assert gathered.dtype == dtype
        assert gathered.flags.c_contiguous
        np.testing.assert_array_equal(
            gathered, expected if n_frames else expected[0])


class TestPhantomProperties:
    @given(n=st.integers(min_value=1, max_value=50),
           seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=50, deadline=None)
    def test_phantom_merge_preserves_counts(self, n, seed):
        rng = np.random.default_rng(seed)
        a = Phantom(positions=rng.normal(size=(n, 3)), amplitudes=rng.normal(size=n))
        b = point_target(depth=0.01)
        merged = a.merged_with(b)
        assert merged.scatterer_count == n + 1
        np.testing.assert_allclose(merged.positions[:n], a.positions)
