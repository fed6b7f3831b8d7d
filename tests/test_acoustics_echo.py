"""Tests for repro.acoustics.echo: synthetic channel-data generation."""

from __future__ import annotations

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.acoustics import echo
from repro.acoustics.echo import SCATTER_BLOCK_ENTRIES, ChannelData, EchoSimulator
from repro.acoustics.phantom import Phantom, point_target, speckle_phantom
from repro.acoustics.pulse import GaussianPulse
from repro.api import ScanSpec
from repro.config import get_preset, tiny_system
from repro.core.exact import ExactDelayEngine
from repro.kernels.ops import frame_vector
from repro.scenarios import SCHEMES, TransmitEvent


def _loop_simulate_event(simulator: EchoSimulator, phantom: Phantom,
                         transmit: object, noise_std: float = 0.0,
                         seed: "int | tuple[int, ...]" = 0) -> np.ndarray:
    """The reference: one buffered ``+=`` per (scatterer, element) pair.

    This is the loop ``EchoSimulator.simulate_event`` ran before it became
    a chunked scatter-add; the simulator must match it bit for bit.
    """
    acoustic = simulator.system.acoustic
    fs = acoustic.sampling_frequency
    c = acoustic.speed_of_sound
    n_samples = simulator.system.echo_buffer_samples
    n_elements = simulator.transducer.element_count
    traces = np.zeros((n_elements, n_samples))

    pulse_times, pulse_amps = simulator.pulse.waveform()
    pulse_offsets = np.round(pulse_times * fs).astype(np.int64)

    positions = simulator.transducer.positions
    for scatterer, amplitude in zip(phantom.positions, phantom.amplitudes):
        tx_distance = transmit.transmit_distance(scatterer)
        rx_distances = np.linalg.norm(positions - scatterer[None, :], axis=1)
        delays = (tx_distance + rx_distances) / c
        center_samples = np.round(delays * fs).astype(np.int64)
        spreading = 1.0 / np.maximum(rx_distances, 1e-4)
        spreading = spreading / np.max(spreading)
        for element in range(n_elements):
            indices = center_samples[element] + pulse_offsets
            valid = (indices >= 0) & (indices < n_samples)
            if not np.any(valid):
                continue
            traces[element, indices[valid]] += (amplitude
                                                * spreading[element]
                                                * pulse_amps[valid])
    if noise_std > 0:
        rng = np.random.default_rng(seed)
        traces = traces + rng.normal(0.0, noise_std, traces.shape)
    return traces


NOISES = ((0.0, 0), (0.01, 7), (0.01, (7, 2)))
"""``(noise_std, seed)``: clean, an int seed, a ``(seed, firing)`` pair."""


def _events(system) -> dict[str, "TransmitEvent | None"]:
    """Every transmit kind; ``None`` is the simulator's own origin, run
    through :meth:`EchoSimulator.simulate`."""
    events: dict[str, TransmitEvent | None] = {
        "origin": None,
        "focused_off_origin": TransmitEvent.focused(
            origin=np.array([1e-3, -5e-4, 0.0])),
    }
    planewave = SCHEMES.create("planewave", system, options={"n_angles": 3})
    for i, event in enumerate(planewave.events):
        events[f"planewave{i}"] = event
    aperture = SCHEMES.create("synthetic_aperture", system).events
    events["aperture_first"] = aperture[0]
    events["aperture_last"] = aperture[-1]
    return events


def _assert_matches_loop(simulator: EchoSimulator, phantom: Phantom,
                         event: "TransmitEvent | None", noise_std: float,
                         seed, samples: "np.ndarray | None" = None) -> None:
    """A one-firing call (and ``samples``, when given) equals the loop."""
    if event is None:
        data = simulator.simulate(phantom, noise_std=noise_std, seed=seed)
        event = TransmitEvent.focused(origin=simulator.origin)
    else:
        data = simulator.simulate_event(phantom, event, noise_std=noise_std,
                                        seed=seed)
    expected = _loop_simulate_event(simulator, phantom, event, noise_std, seed)
    assert np.array_equal(data.samples, expected)
    _assert_zero_sink(data.samples)
    if samples is not None:
        assert np.array_equal(samples, expected)


def _assert_zero_sink(samples: np.ndarray) -> None:
    """The traces sit at the start of their flat buffer, whose one extra
    sample (the sink) is 0 once the acquisition is done: the zero-padded
    buffer a float nearest plan reads in place."""
    buffer = samples.base
    assert buffer is not None and buffer.shape == (samples.size + 1,)
    assert buffer[-1] == 0
    assert frame_vector(samples, np.float64) is buffer


def _firing_seeds(seed, n_firings: int) -> list:
    """Firing 0 keeps ``seed``; firing ``i`` gets the ``(seed, i)`` entropy
    tuple, as :func:`repro.scenarios.acquire_firings` hands out."""
    base = seed if isinstance(seed, tuple) else (seed,)
    return [seed if i == 0 else (*base, i) for i in range(n_firings)]


def _assert_events_match(simulator: EchoSimulator, phantom: Phantom,
                         events: list, noise_std: float, seed) -> None:
    """Every firing of one :meth:`EchoSimulator.simulate_events` call
    equals the reference loop and a one-firing call, bit for bit.  A
    ``None`` event is the simulator's own origin (one-firing call:
    :meth:`EchoSimulator.simulate`)."""
    seeds = _firing_seeds(seed, len(events))
    firings = simulator.simulate_events(
        phantom, [TransmitEvent.focused(origin=simulator.origin)
                  if event is None else event for event in events],
        noise_std=noise_std, seeds=seeds)
    assert len(firings) == len(events)
    for event, firing_seed, data in zip(events, seeds, firings):
        _assert_zero_sink(data.samples)
        _assert_matches_loop(simulator, phantom, event, noise_std,
                             firing_seed, data.samples)


def _scheme_events(system) -> dict[str, tuple]:
    """The multi-firing schemes, each as one ``simulate_events`` call."""
    return {
        "planewave": SCHEMES.create("planewave", system,
                                    options={"n_angles": 3}).events,
        "diverging": SCHEMES.create("diverging", system).events,
        "synthetic_aperture": SCHEMES.create(
            "synthetic_aperture", system,
            options={"every": 4 if system.transducer.element_count <= 64
                     else 32}).events,
    }


def _scenario_phantom(system, scenario: str) -> Phantom:
    """The last frame of a two-frame cine (moving scenarios differ per
    frame)."""
    return ScanSpec(scenario=scenario, frames=2, seed=3) \
        .build_frames(system)[-1].phantom


class TestChannelData:
    def test_shape_properties(self):
        data = ChannelData(samples=np.zeros((4, 100)), sampling_frequency=32e6)
        assert data.element_count == 4
        assert data.sample_count == 100

    def test_sample_at_basic_lookup(self):
        samples = np.arange(12, dtype=float).reshape(3, 4)
        data = ChannelData(samples=samples, sampling_frequency=32e6)
        values = data.sample_at(np.array([0, 1, 2]), np.array([1, 2, 3]))
        np.testing.assert_allclose(values, [1.0, 6.0, 11.0])

    def test_sample_at_out_of_range_returns_zero(self):
        data = ChannelData(samples=np.ones((2, 10)), sampling_frequency=32e6)
        values = data.sample_at(np.array([0, 0, 1]), np.array([-1, 10, 5]))
        np.testing.assert_allclose(values, [0.0, 0.0, 1.0])

    def test_sample_at_preserves_shape(self):
        data = ChannelData(samples=np.ones((4, 10)), sampling_frequency=32e6)
        elements = np.zeros((3, 4), dtype=int)
        delays = np.full((3, 4), 5)
        assert data.sample_at(elements, delays).shape == (3, 4)


class TestEchoSimulator:
    def test_trace_dimensions(self, tiny, tiny_channel_data):
        assert tiny_channel_data.element_count == tiny.transducer.element_count
        assert tiny_channel_data.sample_count == tiny.echo_buffer_samples

    def test_empty_phantom_gives_silence(self, tiny):
        simulator = EchoSimulator.from_config(tiny)
        phantom = Phantom(positions=np.zeros((0, 3)), amplitudes=np.zeros(0))
        data = simulator.simulate(phantom)
        assert np.all(data.samples == 0)

    def test_echo_arrives_at_exact_delay(self, tiny):
        """The peak of each element's trace sits at the exact two-way delay."""
        grid_depth = 0.01
        simulator = EchoSimulator.from_config(tiny)
        data = simulator.simulate(point_target(depth=grid_depth))
        exact = ExactDelayEngine.from_config(tiny)
        expected_indices = exact.delay_indices(np.array([[0.0, 0.0, grid_depth]]))[0]
        for element in range(0, tiny.transducer.element_count, 13):
            trace = np.abs(data.samples[element])
            if trace.max() == 0:
                continue
            peak = int(np.argmax(trace))
            assert abs(peak - expected_indices[element]) <= 2

    def test_amplitude_scales_linearly(self, tiny):
        simulator = EchoSimulator.from_config(tiny)
        weak = simulator.simulate(point_target(depth=0.01, amplitude=1.0))
        strong = simulator.simulate(point_target(depth=0.01, amplitude=2.0))
        np.testing.assert_allclose(strong.samples, 2.0 * weak.samples, atol=1e-12)

    def test_superposition_of_scatterers(self, tiny):
        simulator = EchoSimulator.from_config(tiny)
        a = point_target(depth=0.008)
        b = point_target(depth=0.012)
        combined = simulator.simulate(a.merged_with(b))
        separate = simulator.simulate(a).samples + simulator.simulate(b).samples
        np.testing.assert_allclose(combined.samples, separate, atol=1e-12)

    def test_noise_is_reproducible_and_additive(self, tiny):
        simulator = EchoSimulator.from_config(tiny)
        phantom = point_target(depth=0.01)
        clean = simulator.simulate(phantom, noise_std=0.0)
        noisy_a = simulator.simulate(phantom, noise_std=0.1, seed=42)
        noisy_b = simulator.simulate(phantom, noise_std=0.1, seed=42)
        np.testing.assert_allclose(noisy_a.samples, noisy_b.samples)
        assert not np.allclose(noisy_a.samples, clean.samples)
        residual = noisy_a.samples - clean.samples
        assert abs(np.std(residual) - 0.1) < 0.01

    def test_far_target_arrives_later(self, tiny):
        simulator = EchoSimulator.from_config(tiny)
        near = simulator.simulate(point_target(depth=0.005))
        far = simulator.simulate(point_target(depth=0.012))
        element = tiny.transducer.element_count // 2
        near_peak = int(np.argmax(np.abs(near.samples[element])))
        far_peak = int(np.argmax(np.abs(far.samples[element])))
        assert far_peak > near_peak

    def test_out_of_range_scatterer_contributes_nothing(self, tiny):
        simulator = EchoSimulator.from_config(tiny)
        # A scatterer much deeper than the echo buffer records.
        deep = point_target(depth=10.0)
        data = simulator.simulate(deep)
        assert np.all(data.samples == 0)


class TestMatchesReferenceLoop:
    """The chunked scatter-add is bit-identical to the per-scatterer loop."""

    @pytest.mark.parametrize("system_name", ["tiny", "small"])
    @pytest.mark.parametrize("scenario", ["static_point", "moving_scatterers"])
    def test_every_event_and_noise(self, system_name, scenario):
        system = get_preset(system_name)
        simulator = EchoSimulator.from_config(system)
        phantom = _scenario_phantom(system, scenario)
        for event in _events(system).values():
            for noise_std, seed in NOISES:
                _assert_matches_loop(simulator, phantom, event, noise_std,
                                     seed)

    # The dense phantoms cost the reference loop seconds per firing, so
    # each runs one event and one noise setting per system.
    @pytest.mark.parametrize("system_name, scenario, event_name, noise", [
        ("tiny", "cyst", "planewave1", NOISES[2]),
        ("tiny", "speckle", "aperture_last", NOISES[0]),
        ("small", "cyst", "origin", NOISES[1]),
        ("small", "speckle", "focused_off_origin", NOISES[0]),
    ])
    def test_dense_phantoms(self, system_name, scenario, event_name, noise):
        system = get_preset(system_name)
        _assert_matches_loop(EchoSimulator.from_config(system),
                             _scenario_phantom(system, scenario),
                             _events(system)[event_name], *noise)

    def test_output_does_not_depend_on_the_chunk_size(self, tiny,
                                                      monkeypatch):
        """One element row and one scatterer per chunk; the default; the
        whole probe and phantom at once — for several firings.  Every
        4th cyst scatterer: one (row, scatterer) pair per chunk is slow."""
        simulator = EchoSimulator.from_config(tiny)
        cyst = _scenario_phantom(tiny, "cyst")
        phantom = Phantom(positions=cyst.positions[::4],
                          amplitudes=cyst.amplitudes[::4])
        events = _scheme_events(tiny)["planewave"]
        seeds = _firing_seeds(7, len(events))
        expected = [simulator.simulate_event(phantom, event, 0.01, seed)
                    .samples for event, seed in zip(events, seeds)]
        for entries in (1, SCATTER_BLOCK_ENTRIES, 10 ** 12):
            monkeypatch.setattr(echo, "SCATTER_BLOCK_ENTRIES", entries)
            firings = simulator.simulate_events(phantom, events, 0.01, seeds)
            for data, samples in zip(firings, expected, strict=True):
                assert np.array_equal(data.samples, samples)

    def test_duplicate_pulse_offsets_land_only_the_last_sample(self, tiny):
        """A pulse spanning ~6.2 samples rounds two of its 8 samples to the
        same offset; the loop's buffered ``+=`` lands only the later one."""
        fs = tiny.acoustic.sampling_frequency
        fc = tiny.acoustic.center_frequency
        sigma_t = 6.2 / (8.0 * fs)  # duration = 8 sigma_t = 6.2 samples
        sigma_f = 1.0 / (2.0 * np.pi * sigma_t)
        pulse = GaussianPulse(
            center_frequency=fc,
            fractional_bandwidth=2.0 * np.sqrt(2.0 * np.log(2.0)) * sigma_f / fc,
            sampling_frequency=fs)
        offsets = np.round(pulse.waveform()[0] * fs)
        assert np.unique(offsets).size < offsets.size
        simulator = dataclasses.replace(EchoSimulator.from_config(tiny),
                                        pulse=pulse)
        phantom = _scenario_phantom(tiny, "moving_scatterers")
        for event in (None, _events(tiny)["planewave2"]):
            _assert_matches_loop(simulator, phantom, event, *NOISES[0])

    def test_firing_memory_is_the_trace_buffer_plus_a_bounded_chunk(
            self, small):
        """About 29 bytes per chunk entry were measured; 48 is the bound.
        Firings share the chunk, so only the trace buffers grow with
        their count: one firing, then a 3-angle plane wave."""
        simulator = EchoSimulator.from_config(small)
        phantom = speckle_phantom(small, n_scatterers=2000)
        trace_bytes = small.transducer.element_count \
            * small.echo_buffer_samples * 8
        planewave = _scheme_events(small)["planewave"]
        for n_firings, acquire in (
                (1, lambda: [simulator.simulate(phantom)]),
                (3, lambda: simulator.simulate_events(phantom, planewave))):
            # First-call allocations are not the cost.
            assert len(acquire()) == n_firings
            tracemalloc.start()
            try:
                acquire()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= (n_firings * trace_bytes
                            + 48 * SCATTER_BLOCK_ENTRIES), n_firings


class TestSimulateEvents:
    """One ``simulate_events`` call: every firing equals its own
    one-firing call and the reference loop, bit for bit."""

    @pytest.mark.parametrize("scheme", ["planewave", "diverging",
                                        "synthetic_aperture"])
    @pytest.mark.parametrize("system_name, scenario", [
        ("tiny", "static_point"),
        ("tiny", "moving_scatterers"),
        ("small", "moving_scatterers"),
    ])
    def test_every_firing_of_a_scheme(self, system_name, scenario, scheme):
        system = get_preset(system_name)
        simulator = EchoSimulator.from_config(system)
        phantom = _scenario_phantom(system, scenario)
        events = _scheme_events(system)[scheme]
        assert len(events) > 1
        for noise_std, seed in NOISES:
            _assert_events_match(simulator, phantom, list(events),
                                 noise_std, seed)

    def test_pulse_straddling_the_buffer_end_at_some_elements(self, tiny):
        """A scatterer (and one 0.1 mm deeper) whose pulse fits the buffer
        at the centre elements but runs past its end at the edge ones: the
        chunk mixes whole and clipped pairs."""
        simulator = EchoSimulator.from_config(tiny)
        fs = tiny.acoustic.sampling_frequency
        c = tiny.acoustic.speed_of_sound
        n_samples = tiny.echo_buffer_samples
        offsets = np.round(simulator.pulse.waveform()[0] * fs)
        # Centre sample of the nearest element just keeps the whole pulse.
        nearest = np.min(np.linalg.norm(simulator.transducer.positions
                                        [:, :2], axis=1))
        last = n_samples - 1 - offsets.max()
        depth = np.sqrt((last * c / fs / 2.0) ** 2 - nearest ** 2)
        target = np.array([0.0, 0.0, depth])
        phantom = Phantom(positions=np.array([target, target + [0, 0, 1e-4]]),
                          amplitudes=np.array([1.0, -0.5]))
        rx = np.linalg.norm(simulator.transducer.positions - target, axis=1)
        centres = np.round((depth + rx) / c * fs)
        assert (centres + offsets.max() < n_samples).any()
        straddle = ((centres + offsets.max() >= n_samples)
                    & (centres + offsets.min() < n_samples))
        assert straddle.any() and not straddle.all()
        events = [None] + list(_scheme_events(tiny)["planewave"])
        for noise_std, seed in NOISES:
            _assert_events_match(simulator, phantom, events, noise_std, seed)
        firings = simulator.simulate_events(
            phantom, [TransmitEvent.focused(origin=simulator.origin)])
        assert firings[0].samples[:, -1].any()

    def test_every_firing_ends_with_a_zero_sink(self, tiny):
        """Writes past each trace's end land in the sink during the
        scatter; once the acquisition is done it is 0 in every firing,
        noise or not."""
        simulator = EchoSimulator.from_config(tiny)
        c = tiny.acoustic.speed_of_sound
        fs = tiny.acoustic.sampling_frequency
        # Half the pulse lands past the last sample at every element.
        depth = tiny.echo_buffer_samples * c / fs / 2.0
        phantom = Phantom(positions=np.array([[0.0, 0.0, depth]]),
                          amplitudes=np.array([1.0]))
        events = [TransmitEvent.focused(origin=simulator.origin)] \
            + list(_scheme_events(tiny)["planewave"])
        for noise_std, seed in NOISES:
            firings = simulator.simulate_events(
                phantom, events, noise_std=noise_std,
                seeds=_firing_seeds(seed, len(events)))
            for data in firings:
                _assert_zero_sink(data.samples)

    def test_empty_phantom(self, tiny):
        simulator = EchoSimulator.from_config(tiny)
        phantom = Phantom(positions=np.zeros((0, 3)), amplitudes=np.zeros(0))
        events = list(_scheme_events(tiny)["diverging"])
        for noise_std, seed in NOISES:
            _assert_events_match(simulator, phantom, events, noise_std, seed)
        for data in simulator.simulate_events(phantom, events):
            assert not data.samples.any()

    def test_scatterer_on_an_element(self, tiny):
        """Receive distance 0: the spreading clamp sets the peak."""
        simulator = EchoSimulator.from_config(tiny)
        on_element = simulator.transducer.positions[9]
        phantom = Phantom(
            positions=np.array([[0.0, 0.0, 6e-3], on_element,
                                on_element + [0.0, 0.0, 3e-5]]),
            amplitudes=np.array([1.0, 0.75, -1.25]))
        events = [None] + list(_scheme_events(tiny)["synthetic_aperture"])
        for noise_std, seed in NOISES:
            _assert_events_match(simulator, phantom, events, noise_std, seed)

    def test_one_seed_per_event(self, tiny):
        simulator = EchoSimulator.from_config(tiny)
        events = _scheme_events(tiny)["planewave"]
        with pytest.raises(ValueError, match="one seed per event"):
            simulator.simulate_events(point_target(depth=0.01), events,
                                      noise_std=0.01, seeds=[1, 2])


_TINY = tiny_system()
_TINY_SIMULATOR = EchoSimulator.from_config(_TINY)
_TINY_EVENTS = list(_events(_TINY).values())
_coordinate = st.floats(min_value=-6e-3, max_value=6e-3)
_point = st.one_of(
    # In the field of view, or behind the probe (negative plane-wave delays).
    st.tuples(_coordinate, _coordinate,
              st.floats(min_value=-5e-3, max_value=16e-3)),
    # On an element: receive distance below the 1e-4 m spreading clamp.
    st.tuples(st.integers(0, _TINY.transducer.element_count - 1),
              st.floats(min_value=0.0, max_value=5e-5)).map(
        lambda p: tuple(_TINY_SIMULATOR.transducer.positions[p[0]]
                        + np.array([0.0, 0.0, p[1]]))),
    # Past the echo buffer.
    st.tuples(_coordinate, _coordinate,
              st.floats(min_value=2e-2, max_value=1.0)),
)
_amplitude = st.one_of(st.just(0.0), st.floats(min_value=-2.0, max_value=2.0))


_ON_ELEMENT = tuple(_TINY_SIMULATOR.transducer.positions[5])


@settings(max_examples=40, deadline=None)
@given(scatterers=st.lists(st.tuples(_point, _amplitude), max_size=6),
       events=st.lists(st.sampled_from(_TINY_EVENTS), min_size=1,
                       max_size=3),
       noise=st.sampled_from(NOISES))
@example(scatterers=[], events=[None], noise=NOISES[2])
@example(scatterers=[((0.0, 0.0, 8e-3), 0.0)], events=[None],
         noise=NOISES[0])
@example(scatterers=[((0.0, 0.0, 0.5), 1.0)], events=[None], noise=NOISES[0])
@example(scatterers=[(_ON_ELEMENT, 1.0), ((0.0, 0.0, 8e-3), -1.0)],
         events=[None], noise=NOISES[0])
@example(scatterers=[(_ON_ELEMENT, 1.0), ((0.0, 0.0, 8e-3), -1.0)],
         events=_TINY_EVENTS[2:5], noise=NOISES[1])
def test_random_phantoms_match_reference_loop(scatterers, events, noise):
    phantom = Phantom(
        positions=np.array([p for p, _ in scatterers]).reshape(-1, 3),
        amplitudes=np.array([a for _, a in scatterers]))
    _assert_events_match(_TINY_SIMULATOR, phantom, events, *noise)
