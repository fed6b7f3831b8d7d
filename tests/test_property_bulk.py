"""Property-based tests (hypothesis) for the bulk compile path.

Plan compilation asks providers for flat point ranges
(``tile_delays_samples``) and takes its weights from the shared
``receive_weights`` tensor; the per-scanline methods stay as the oracle.
For any ``[start, stop)`` range — single points, ranges cutting scanlines,
the whole grid — both must equal the concatenated per-scanline rows bit for
bit, for every delay provider the library ships, a third-party provider
defining only ``grid`` and ``delays_samples``, and transmit-adjusted
(scheme) providers.  The columns a leaf-major compile asks for
(``tile_delays_samples(start, stop, elements)``) must be those rows'
columns, byte for byte.  Every grid accessor a provider overrides must
equal the :class:`repro.core.DelayProvider` derivation from its
``delays_samples``, byte for byte.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.architectures import ARCHITECTURES
from repro.beamformer.das import ApodizationSettings, DelayAndSumBeamformer
from repro.config import tiny_system
from repro.core.exact import ExactDelayEngine
from repro.core.recursive import RecursiveDelayGenerator
from repro.core.tablefree import TableFreeConfig, TableFreeDelayGenerator
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
    "tablesteer_13": lambda: TableSteerDelayGenerator.from_config(
        SYSTEM, TableSteerConfig(total_bits=13)),
    "tablesteer_14": lambda: TableSteerDelayGenerator.from_config(
        SYSTEM, TableSteerConfig(total_bits=14)),
    "tablefree_unrounded": lambda: TableFreeDelayGenerator.from_config(
        SYSTEM, TableFreeConfig(delay_fraction_bits=None)),
    "tablefree_integer": lambda: TableFreeDelayGenerator.from_config(
        SYSTEM, TableFreeConfig(delay_fraction_bits=0)),
    "recursive": lambda: RecursiveDelayGenerator.from_config(SYSTEM),
    "toy": lambda: _ToyProvider(ExactDelayEngine.from_config(SYSTEM), 3.5),
    "focused_tablesteer": lambda: _wrapped("tablesteer", "focused", 0),
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


@st.composite
def element_sets(draw):
    """Element numbers: any subset, in any order — up to a permutation of
    every element."""
    n = SYSTEM.transducer.element_count
    return np.array(draw(st.lists(st.integers(0, n - 1), min_size=1,
                                  max_size=n, unique=True)), dtype=np.intp)


_N_ELEMENTS = SYSTEM.transducer.element_count


@pytest.mark.parametrize("name", sorted(PROVIDERS))
@settings(max_examples=20, deadline=None)
@given(span=ranges(), elements=element_sets())
@example(span=(3, 2 * N_DEPTH + 5), elements=np.arange(_N_ELEMENTS)[::-1])
@example(span=(N_DEPTH - 1, N_DEPTH + 1),
         elements=np.arange(1, _N_ELEMENTS, 8))
@example(span=(0, N_POINTS), elements=np.array([_N_ELEMENTS - 1]))
def test_tile_delays_at_elements_are_the_rows_columns(name, span, elements):
    """``tile_delays_samples(start, stop, elements)`` — what a leaf-major
    compile asks for — is the natural rows' ``[:, elements]`` byte for
    byte: ranges cutting scanlines, element subsets and permutations, for
    every provider (the recursive and third-party ones through the
    derived tile)."""
    provider, _rows = _provider_and_rows(name)
    start, stop = span
    columns = provider.tile_delays_samples(start, stop, elements)
    natural = provider.tile_delays_samples(start, stop)
    assert columns.dtype == np.float64
    assert columns.shape == (stop - start, len(elements))
    assert columns.tobytes() == natural[:, elements].tobytes()


@pytest.mark.parametrize("name", sorted(PROVIDERS))
def test_grid_accessors_are_delays_samples_over_grid_points(name):
    """Each provider's scanline and nappe rows are ``delays_samples`` over
    the grid points of that scanline or nappe, byte for byte, and its
    ``delay_indices`` is ``floor(delays_samples + 0.5)`` — what the
    :class:`repro.core.DelayProvider` base derives, so no override differs
    from the derivation."""
    provider, _rows = _provider_and_rows(name)
    grid = provider.grid
    for i_theta in range(N_THETA):
        for i_phi in range(N_PHI):
            expected = provider.delays_samples(
                grid.scanline_points(i_theta, i_phi))
            scanline = provider.scanline_delays_samples(i_theta, i_phi)
            assert scanline.shape == expected.shape
            assert scanline.tobytes() == expected.tobytes()
    for i_depth in range(N_DEPTH):
        expected = provider.delays_samples(
            grid.nappe_points(i_depth).reshape(-1, 3)) \
            .reshape(N_THETA, N_PHI, -1)
        nappe = provider.nappe_delays_samples(i_depth)
        assert nappe.shape == expected.shape
        assert nappe.tobytes() == expected.tobytes()
    points = grid.all_points().reshape(-1, 3)
    indices = provider.delay_indices(points)
    assert indices.dtype == np.int64
    np.testing.assert_array_equal(
        indices, np.floor(provider.delays_samples(points) + 0.5))


def test_concurrent_ranges_get_their_own_transmit_correction():
    """Threads sharing one transmit-adjusted provider may compile ranges
    concurrently, and its last-range correction may be replaced under a
    caller: every call still returns its own range's rows, byte for byte."""
    provider, serial = (_wrapped("exact", "planewave", 2) for _ in range(2))
    leaves = [np.arange(0, _N_ELEMENTS, 8), np.arange(_N_ELEMENTS)]
    spans = [(0, 40), (40, 300), (17, 517), (N_POINTS - 99, N_POINTS)]
    expected = {(span, j): serial.tile_delays_samples(*span, leaf).tobytes()
                for span in spans for j, leaf in enumerate(leaves)}
    mismatches: list = []

    def work(offset: int) -> None:
        for k in range(60):
            span = spans[(k + offset) % len(spans)]
            for j, leaf in enumerate(leaves):
                rows = provider.tile_delays_samples(*span, leaf).tobytes()
                if rows != expected[span, j]:
                    mismatches.append((span, j))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


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
