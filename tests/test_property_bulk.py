"""Property-based tests (hypothesis) for the bulk compile path.

Plan compilation asks providers for flat point ranges
(``tile_delays_samples``) and takes its weights from the shared
``receive_weights`` tensor; the per-scanline methods stay as the oracle.
For any ``[start, stop)`` range — single points, ranges cutting scanlines,
the whole grid — both must equal the concatenated per-scanline rows bit for
bit, for every delay provider the library ships, a third-party provider
relying on the bulk mixin, and transmit-adjusted (scheme) providers.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.architectures import ARCHITECTURES
from repro.beamformer.das import ApodizationSettings, DelayAndSumBeamformer
from repro.config import tiny_system
from repro.core.exact import ExactDelayEngine
from repro.core.recursive import RecursiveDelayGenerator
from repro.core.tablesteer import TableSteerConfig, TableSteerDelayGenerator
from repro.geometry.apodization import WindowType
from repro.kernels import QuantizationSpec, receive_weights
from repro.scenarios import SCHEMES, TransmitAdjustedProvider

from test_api_session import _ToyProvider

SYSTEM = tiny_system()
N_THETA, N_PHI, N_DEPTH = (SYSTEM.volume.n_theta, SYSTEM.volume.n_phi,
                           SYSTEM.volume.n_depth)
N_POINTS = N_THETA * N_PHI * N_DEPTH


def _wrapped(base: str, scheme: str, event: int):
    provider = ARCHITECTURES.create(base, SYSTEM)
    firing = SCHEMES.create(scheme, SYSTEM).events[event]
    return TransmitAdjustedProvider.from_provider(provider, firing, SYSTEM)


PROVIDERS = {
    **{name: (lambda name=name: ARCHITECTURES.create(name, SYSTEM))
       for name in ARCHITECTURES.names()},
    "tablesteer_14": lambda: TableSteerDelayGenerator.from_config(
        SYSTEM, TableSteerConfig(total_bits=14)),
    "recursive": lambda: RecursiveDelayGenerator.from_config(SYSTEM),
    "toy": lambda: _ToyProvider(ExactDelayEngine.from_config(SYSTEM), 3.5),
    "planewave_exact": lambda: _wrapped("exact", "planewave", 0),
    "planewave_tablesteer": lambda: _wrapped("tablesteer", "planewave", 3),
    "diverging_tablefree": lambda: _wrapped("tablefree", "diverging", 1),
}
_BUILT: dict = {}


def _provider_and_rows(name: str):
    """The provider and its oracle: every scanline's rows, concatenated."""
    if name not in _BUILT:
        provider = PROVIDERS[name]()
        rows = np.concatenate([
            np.asarray(provider.scanline_delays_samples(a, b), np.float64)
            for a in range(N_THETA) for b in range(N_PHI)])
        _BUILT[name] = provider, rows
    return _BUILT[name]


@st.composite
def ranges(draw):
    """A non-empty flat point range, often cutting scanlines."""
    start = draw(st.integers(0, N_POINTS - 1))
    stop = draw(st.integers(start + 1, min(N_POINTS, start + 3 * N_DEPTH)))
    return start, stop


@pytest.mark.parametrize("name", sorted(PROVIDERS))
@settings(max_examples=25, deadline=None)
@given(span=ranges())
@example(span=(0, 1))
@example(span=(N_DEPTH - 1, N_DEPTH + 1))
@example(span=(N_POINTS - 1, N_POINTS))
@example(span=(0, N_POINTS))
def test_tile_delays_are_scanline_rows(name, span):
    provider, rows = _provider_and_rows(name)
    start, stop = span
    tile = provider.tile_delays_samples(start, stop)
    assert tile.dtype == np.float64
    np.testing.assert_array_equal(tile, rows[start:stop])


def test_volume_delays_are_the_whole_range():
    for name in ("exact", "recursive", "planewave_tablesteer"):
        provider, rows = _provider_and_rows(name)
        np.testing.assert_array_equal(
            provider.volume_delays_samples(),
            rows.reshape(N_THETA, N_PHI, N_DEPTH, -1))


APODIZATIONS = {
    "hann": ApodizationSettings(),
    "no_directivity": ApodizationSettings(use_directivity=False),
    "rectangular": ApodizationSettings(window=WindowType.RECTANGULAR),
}
DATAPATHS = {
    "float64": (np.float64, None),
    "float32": (np.float32, None),
    "q18": (np.float64, QuantizationSpec.from_total_bits(18)),
}
_EXACT = ExactDelayEngine.from_config(SYSTEM)
_WEIGHT_ROWS: dict = {}


def _weight_rows(apodization: str) -> np.ndarray:
    """Oracle: the classic per-scanline weights, concatenated (float64)."""
    if apodization not in _WEIGHT_ROWS:
        beamformer = DelayAndSumBeamformer(
            SYSTEM, _EXACT, apodization=APODIZATIONS[apodization])
        _WEIGHT_ROWS[apodization] = np.concatenate([
            beamformer.weights_for_scanline(a, b)
            for a in range(N_THETA) for b in range(N_PHI)])
    return _WEIGHT_ROWS[apodization]


@pytest.mark.parametrize("datapath", sorted(DATAPATHS))
@pytest.mark.parametrize("apodization", sorted(APODIZATIONS))
@settings(max_examples=15, deadline=None)
@given(span=ranges())
@example(span=(0, 1))
@example(span=(N_DEPTH - 1, N_DEPTH + 1))
@example(span=(0, N_POINTS))
def test_receive_weights_are_scanline_rows(apodization, datapath, span):
    dtype, quantization = DATAPATHS[datapath]
    start, stop = span
    # A fresh beamformer per example: it pins only this example's tensor.
    beamformer = DelayAndSumBeamformer(
        SYSTEM, _EXACT, apodization=APODIZATIONS[apodization])
    weights = receive_weights(beamformer, start, stop, dtype, quantization)
    expected = _weight_rows(apodization)[start:stop]
    if quantization is not None:
        expected = quantization.quantize_weights(expected)
    assert weights.dtype == dtype and not weights.flags.writeable
    np.testing.assert_array_equal(weights, expected.astype(dtype))
