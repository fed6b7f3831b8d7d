"""Property-based tests (hypothesis) for the quantized kernel path.

These pin the invariants the bit-true execution mode leans on:
re-quantisation is the identity (so execution paths may hoist or repeat
quantisation freely), quantised values always respect the format's
saturation bounds, the two nearest-rounding modes disagree exactly at
half-way codes in the documented way, and the gather-index build can never
read outside the echo buffer no matter what delays it is fed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fixedpoint.format import QFormat
from repro.fixedpoint.quantize import OverflowMode, RoundingMode, quantize, to_raw
from repro.kernels import (
    QuantizationSpec,
    build_gather_index,
    gather_interp,
    quantized_delay_and_sum,
)

formats = st.builds(
    QFormat,
    integer_bits=st.integers(min_value=1, max_value=15),
    fraction_bits=st.integers(min_value=0, max_value=15),
    signed=st.booleans(),
)

rounding_modes = st.sampled_from(list(RoundingMode))
overflow_modes = st.sampled_from([OverflowMode.SATURATE, OverflowMode.WRAP])

finite_floats = st.floats(min_value=-1e5, max_value=1e5,
                          allow_nan=False, allow_infinity=False)

specs = st.builds(
    QuantizationSpec,
    delay_format=formats,
    sample_format=formats,
    weight_format=formats,
    accumulator_format=formats,
    rounding=rounding_modes,
    overflow=overflow_modes,
)


@given(spec=specs, values=st.lists(finite_floats, min_size=1, max_size=32))
@settings(max_examples=150, deadline=None)
def test_requantisation_idempotent_for_every_stage(spec, values):
    """Quantising an already-quantised array changes nothing, under every
    rounding/overflow policy — the property that lets backends pre-quantise
    a frame once and the row/batch kernels quantise again for free."""
    array = np.asarray(values)
    for stage in (spec.quantize_delays, spec.quantize_samples,
                  spec.quantize_weights, spec.quantize_accumulator):
        once = stage(array)
        np.testing.assert_array_equal(stage(once), once)


@given(fmt=formats, rounding=rounding_modes,
       values=st.lists(finite_floats, min_size=1, max_size=32))
@settings(max_examples=150, deadline=None)
def test_saturation_bounds_respected(fmt, rounding, values):
    """Saturating quantisation lands inside [min_value, max_value] for any
    input, however far outside the representable range."""
    result = quantize(np.asarray(values), fmt, rounding=rounding,
                      overflow=OverflowMode.SATURATE)
    assert np.all(result >= fmt.min_value)
    assert np.all(result <= fmt.max_value)


@given(fmt=formats, code=st.integers(min_value=-(1 << 14), max_value=1 << 14))
@settings(max_examples=200, deadline=None)
def test_nearest_vs_nearest_even_halfway_cases(fmt, code):
    """A value exactly half-way between two codes rounds away from zero
    under NEAREST and to the even code under NEAREST_EVEN."""
    half = (code + 0.5) * fmt.resolution
    # Stay inside the representable range so saturation cannot mask the
    # rounding difference; the scaled value (code + 0.5) is exact in
    # float64 for these magnitudes, so this genuinely is a half-way case.
    if not (fmt.min_raw <= code < fmt.max_raw):
        return
    if fmt.min_value <= half <= fmt.max_value:
        nearest = to_raw(half, fmt, rounding=RoundingMode.NEAREST)
        even = to_raw(half, fmt, rounding=RoundingMode.NEAREST_EVEN)
        expected_away = code + 1 if half >= 0 else code
        expected_even = code if code % 2 == 0 else code + 1
        assert int(nearest) == expected_away
        assert int(even) == expected_even


@given(
    n_samples=st.integers(min_value=1, max_value=64),
    n_points=st.integers(min_value=1, max_value=16),
    n_elements=st.integers(min_value=1, max_value=8),
    kind=st.sampled_from(["nearest", "linear"]),
    scale=st.floats(min_value=1.0, max_value=1e6, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=150, deadline=None)
def test_gather_index_never_reads_outside_echo_buffer(
        n_samples, n_points, n_elements, kind, scale, seed):
    """Whatever the delays — huge, negative, fractional — every precompiled
    flat index lands in the padded buffer (out-of-range fetches on its
    zero pad slot), and gathering never faults."""
    rng = np.random.default_rng(seed)
    delays = rng.uniform(-scale, scale, size=(n_points, n_elements))
    index = build_gather_index(delays, n_samples, kind)
    for array in (index.flat, index.upper):
        if array is not None:
            assert np.all(array >= 0)
            assert np.all(array <= n_elements * n_samples)
    samples = rng.normal(size=(n_elements, n_samples))
    gathered = gather_interp(samples, index)
    assert gathered.shape == (n_points, n_elements)
    if kind == "nearest":
        out_of_range = (np.floor(delays + 0.5) < 0) | \
            (np.floor(delays + 0.5) >= n_samples)
        assert np.all(gathered[out_of_range] == 0.0)


@given(
    total_bits=st.integers(min_value=13, max_value=20),
    n_samples=st.integers(min_value=4, max_value=64),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=50, deadline=None)
def test_quantized_delay_and_sum_saturates_and_stays_in_buffer(
        total_bits, n_samples, seed):
    """The uncompiled quantized kernel is total: wild delays and amplitudes
    in, a finite accumulator-format-bounded volume out."""
    rng = np.random.default_rng(seed)
    spec = QuantizationSpec.from_total_bits(total_bits)
    samples = rng.normal(scale=100.0, size=(4, n_samples))
    delays = rng.uniform(-1e5, 1e5, size=(6, 4))
    weights = rng.uniform(0.0, 10.0, size=(6, 4))
    result = quantized_delay_and_sum(samples, delays, weights, spec)
    fmt = spec.accumulator_format
    assert np.all(result >= fmt.min_value)
    assert np.all(result <= fmt.max_value)
