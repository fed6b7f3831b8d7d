"""Conformance suite for the bit-true quantized kernel execution path.

The headline pin: a :class:`repro.kernels.BeamformingPlan` compiled from a
quantized beamformer must be
*bit-identical* to an oracle that models the paper's fixed-point datapath
directly with :mod:`repro.fixedpoint` arrays (raw integer codes, explicit
per-stage quantisation) — at the paper's bit widths, on the ``small``
preset.  Everything else (backends, batching, sharding, the service, the
reference scanline loop) must then be bit-identical to the plan, which the
rest of this module asserts.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from repro.acoustics.echo import EchoSimulator
from repro.acoustics.phantom import point_target
from repro.beamformer.das import DelayAndSumBeamformer
from repro.beamformer.interpolation import InterpolationKind
from repro.fixedpoint.array import FixedPointArray
from repro.fixedpoint.format import QFormat, unsigned
from repro.fixedpoint.quantize import OverflowMode, RoundingMode, from_raw, to_raw
from repro.geometry.volume import FocalGrid
from repro.kernels import (
    Precision,
    QuantizationSpec,
    build_gather_index,
    compile_plan,
    delay_and_sum,
    parse_qformat,
    plan_key,
)
from repro.runtime import BACKENDS, BeamformingService, PlanCache, static_cine


# --------------------------------------------------------------- the oracle
def oracle_volume(channel_data, delays, weights, spec, grid_shape):
    """The paper's fixed-point datapath, written directly on raw codes.

    Independent of :mod:`repro.kernels`: quantisation happens through
    ``to_raw``/``from_raw``/:class:`FixedPointArray`, echo addressing
    through the fixed-point delay's hardware integer rounding
    (:meth:`FixedPointArray.round_to_integer`), gathering through plain
    NumPy indexing.  Every quantised value is an exactly-representable
    dyadic rational, so float64 carries the codes without error and the
    kernel path has no legitimate reason to differ by a single bit.
    """
    samples = np.asarray(channel_data.samples, dtype=np.float64)
    n_samples = samples.shape[-1]
    sample_codes = to_raw(samples, spec.sample_format,
                          rounding=spec.rounding, overflow=spec.overflow)
    samples_q = from_raw(sample_codes, spec.sample_format)

    delay_arr = FixedPointArray.from_float(delays, spec.delay_format,
                                           rounding=spec.rounding,
                                           overflow=spec.overflow)
    indices = delay_arr.round_to_integer()
    valid = (indices >= 0) & (indices < n_samples)
    element = np.broadcast_to(np.arange(delays.shape[1]), delays.shape)
    gathered = samples_q[element, np.clip(indices, 0, n_samples - 1)]
    gathered = np.where(valid, gathered, 0.0)

    weights_q = from_raw(
        to_raw(weights, spec.weight_format, rounding=spec.rounding,
               overflow=spec.overflow), spec.weight_format)
    product_codes = to_raw(gathered * weights_q, spec.accumulator_format,
                           rounding=spec.rounding, overflow=spec.overflow)
    total = from_raw(product_codes, spec.accumulator_format).sum(axis=-1)
    out_codes = to_raw(total, spec.accumulator_format,
                       rounding=spec.rounding, overflow=spec.overflow)
    return from_raw(out_codes, spec.accumulator_format).reshape(grid_shape)


def scanline_weights(beamformer):
    """Receive weights of every grid point, ``(n_points, n_elements)``,
    stacked from the beamformer's per-scanline weights."""
    n_theta, n_phi, _ = beamformer.grid.shape
    return np.concatenate([beamformer.weights_for_scanline(i_theta, i_phi)
                           for i_theta in range(n_theta)
                           for i_phi in range(n_phi)])


@pytest.fixture(scope="module")
def small_channel_data(small):
    grid = FocalGrid.from_config(small)
    depth = float(grid.depths[len(grid.depths) // 2])
    return EchoSimulator.from_config(small).simulate(point_target(depth=depth))


@pytest.fixture(scope="module")
def tiny_beamformer_q18(tiny, tiny_exact):
    return DelayAndSumBeamformer(tiny, tiny_exact,
                                 quantization=QuantizationSpec.from_total_bits(18))


@pytest.fixture(scope="module")
def tiny_qplan(tiny_beamformer_q18):
    return compile_plan(tiny_beamformer_q18)


class TestOracleConformance:
    """Acceptance criterion: bit-identical to the fixedpoint oracle."""

    @pytest.mark.parametrize("total_bits", [13, 14, 16])
    def test_bit_identical_on_small_preset(self, small, small_exact,
                                           small_channel_data, total_bits):
        spec = QuantizationSpec.from_total_bits(total_bits)
        beamformer = DelayAndSumBeamformer(small, small_exact,
                                           quantization=spec)
        plan = compile_plan(beamformer)
        n_elements = small.transducer.element_count
        delays = np.asarray(small_exact.volume_delays_samples(),
                            dtype=np.float64).reshape(-1, n_elements)
        weights = scanline_weights(beamformer)
        expected = oracle_volume(small_channel_data, delays, weights, spec,
                                 plan.grid_shape)
        np.testing.assert_array_equal(plan.execute(small_channel_data),
                                      expected)

    def test_oracle_also_matches_other_rounding_and_overflow(
            self, tiny, tiny_exact, tiny_channel_data):
        spec = QuantizationSpec.from_total_bits(
            16, rounding=RoundingMode.NEAREST_EVEN,
            overflow=OverflowMode.SATURATE)
        beamformer = DelayAndSumBeamformer(tiny, tiny_exact,
                                           quantization=spec)
        plan = compile_plan(beamformer)
        n_elements = tiny.transducer.element_count
        delays = np.asarray(tiny_exact.volume_delays_samples(),
                            dtype=np.float64).reshape(-1, n_elements)
        weights = scanline_weights(beamformer)
        expected = oracle_volume(tiny_channel_data, delays, weights, spec,
                                 plan.grid_shape)
        np.testing.assert_array_equal(plan.execute(tiny_channel_data),
                                      expected)


class TestQuantizationSpec:
    def test_parse_qformat_spellings(self):
        assert parse_qformat("U13.5") == unsigned(13, 5)
        assert parse_qformat("S13.4") == QFormat(13, 4, signed=True)
        assert parse_qformat("Q4.14") == QFormat(4, 14, signed=True)
        assert parse_qformat(" u2.6 ") == unsigned(2, 6)
        with pytest.raises(ValueError, match="Q-format"):
            parse_qformat("13.5")
        with pytest.raises(ValueError, match="Q-format"):
            parse_qformat("Ufoo")

    def test_from_total_bits_follows_paper_rule(self):
        spec = QuantizationSpec.from_total_bits(18)
        assert spec.delay_format == unsigned(13, 5)
        assert QuantizationSpec.from_total_bits(13).delay_format == \
            unsigned(13, 0)

    def test_coerce_spellings(self):
        from repro.registry import encode_options
        by_int = QuantizationSpec.coerce(18)
        assert QuantizationSpec.coerce("18") == by_int
        assert QuantizationSpec.coerce("U13.5") == by_int
        assert QuantizationSpec.coerce(by_int) is by_int
        assert QuantizationSpec.coerce(None) is None
        assert QuantizationSpec.coerce(encode_options(by_int)) == by_int
        with pytest.raises(ValueError, match="boolean"):
            QuantizationSpec.coerce(True)
        with pytest.raises(ValueError, match="quantization spec"):
            QuantizationSpec.coerce(3.14)

    def test_describe_names_all_stages(self):
        text = QuantizationSpec.from_total_bits(18).describe()
        for fragment in ("U13.5", "S1.14", "U1.14", "S12.14",
                         "nearest", "saturate"):
            assert fragment in text

    def test_stage_quantisers_idempotent(self, rng):
        spec = QuantizationSpec.from_total_bits(14)
        values = rng.normal(scale=3.0, size=256)
        for stage in (spec.quantize_delays, spec.quantize_samples,
                      spec.quantize_weights, spec.quantize_accumulator):
            once = stage(values)
            np.testing.assert_array_equal(stage(once), once)

    def test_tolerance_is_peak_referenced_bound(self):
        tolerance = QuantizationSpec.from_total_bits(18).tolerance
        assert tolerance.atol > 0
        assert tolerance.rtol == 0.0


class TestQuantizedPlan:
    def test_requires_spec_and_float64(self, tiny_beamformer_q18, tiny_qplan):
        assert tiny_qplan.quantization is tiny_beamformer_q18.quantization
        assert tiny_qplan.precision is Precision.FLOAT64
        with pytest.raises(ValueError, match="float32"):
            compile_plan(tiny_beamformer_q18, "float32")

    def test_compile_plan_dispatches_to_quantized(self, tiny_beamformer_q18):
        plan = compile_plan(tiny_beamformer_q18)
        assert plan.quantization is tiny_beamformer_q18.quantization
        assert plan.key == plan_key(tiny_beamformer_q18)

    def test_delays_and_weights_are_quantised_at_compile_time(
            self, tiny_beamformer_q18, tiny_qplan):
        spec = tiny_qplan.quantization
        bulk = spec.quantize_delays(np.asarray(
            tiny_beamformer_q18.delays.volume_delays_samples(),
            dtype=np.float64)).reshape(tiny_qplan.weights.shape)
        np.testing.assert_array_equal(
            build_gather_index(bulk, tiny_qplan.n_samples).flat,
            tiny_qplan.index.flat)
        np.testing.assert_array_equal(
            spec.quantize_weights(tiny_qplan.weights), tiny_qplan.weights)

    def test_linear_interpolation_rejected(self, tiny, tiny_exact):
        with pytest.raises(ValueError, match="nearest"):
            DelayAndSumBeamformer(tiny, tiny_exact,
                                  interpolation=InterpolationKind.LINEAR,
                                  quantization=18)
        with pytest.raises(ValueError, match="nearest"):
            delay_and_sum(np.zeros((2, 8)), np.zeros((3, 2)),
                          np.ones((3, 2)), kind="linear",
                          quantization=QuantizationSpec.from_total_bits(14))

    def test_float32_beamformer_rejected(self, tiny, tiny_exact):
        with pytest.raises(ValueError, match="float64"):
            DelayAndSumBeamformer(tiny, tiny_exact, precision="float32",
                                  quantization=18)

    def test_float32_reference_backend_rejected(self, tiny_beamformer_q18):
        """The plan-less reference loop must refuse float32 too — its
        output array would silently truncate the exact fixed-point codes."""
        for backend in ("reference", "vectorized", "sharded"):
            with pytest.raises(ValueError, match="float64"):
                BACKENDS.create(backend, tiny_beamformer_q18, None,
                                "float32")

    def test_delay_format_too_narrow_for_buffer_rejected(self, tiny,
                                                         tiny_exact):
        """A delay format that saturates below the echo-buffer length would
        produce a structurally valid but meaningless volume; it must fail
        loudly — at the beamformer and the spec entry points."""
        with pytest.raises(ValueError, match="echo buffer"):
            DelayAndSumBeamformer(tiny, tiny_exact, quantization="Q4.14")
        from repro.api import EngineSpec
        with pytest.raises(ValueError, match="echo buffer"):
            EngineSpec(system="tiny", quantization="Q4.14")

    def test_coerce_samples_is_idempotent_quantisation(self, tiny_qplan,
                                                       tiny_channel_data):
        once = tiny_qplan.coerce_samples(tiny_channel_data)
        np.testing.assert_array_equal(tiny_qplan.coerce_samples(once), once)
        np.testing.assert_array_equal(
            tiny_qplan.execute(once), tiny_qplan.execute(tiny_channel_data))

    def test_batch_bit_identical_to_execute(self, tiny_qplan,
                                            tiny_channel_data):
        full = tiny_qplan.execute(tiny_channel_data)
        batch = tiny_qplan.execute_batch([tiny_channel_data,
                                          tiny_channel_data])
        np.testing.assert_array_equal(batch[0], full)
        np.testing.assert_array_equal(batch[1], full)

    def test_scanline_loop_bit_identical_to_plan(self, tiny_beamformer_q18,
                                                 tiny_qplan,
                                                 tiny_channel_data):
        volume = tiny_qplan.execute(tiny_channel_data)
        n_theta, n_phi, _ = tiny_qplan.grid_shape
        for i_theta in range(0, n_theta, 3):
            for i_phi in range(0, n_phi, 3):
                np.testing.assert_array_equal(
                    volume[i_theta, i_phi],
                    tiny_beamformer_q18.beamform_scanline(
                        tiny_channel_data, i_theta, i_phi))

    def test_quantized_volume_close_but_not_equal_to_float(
            self, tiny, tiny_exact, tiny_qplan, tiny_channel_data):
        reference = compile_plan(
            DelayAndSumBeamformer(tiny, tiny_exact)).execute(
                tiny_channel_data)
        quantized = tiny_qplan.execute(tiny_channel_data)
        assert not np.array_equal(quantized, reference)
        tiny_qplan.quantization.tolerance.assert_allclose(quantized, reference)


class TestQuantizedBackends:
    @pytest.mark.parametrize("backend", ["reference", "vectorized",
                                         "sharded"])
    def test_backends_bit_identical_to_plan(self, tiny_beamformer_q18,
                                            tiny_qplan, tiny_channel_data,
                                            backend):
        instance = BACKENDS.create(backend, tiny_beamformer_q18, None, None)
        volume = instance.beamform_volume(tiny_channel_data)
        assert volume.dtype == np.float64
        np.testing.assert_array_equal(volume,
                                      tiny_qplan.execute(tiny_channel_data))
        batch = instance.beamform_batch([tiny_channel_data])
        np.testing.assert_array_equal(batch[0], volume)

    def test_service_streams_quantized(self, tiny, tiny_channel_data):
        service = BeamformingService(tiny, architecture="exact",
                                     backend="vectorized", quantization=18,
                                     cache=PlanCache())
        results = service.stream_all(static_cine(tiny_channel_data, 4),
                                     batch_size=2)
        assert len(results) == 4
        np.testing.assert_array_equal(results[0].rf, results[3].rf)
        stats = service.stats()
        assert stats.quantization is not None and "U13.5" in stats.quantization
        assert stats.cache.misses == 1     # one quantized plan, reused

    def test_session_quantization_none_disables_spec_default(self, tiny):
        """Session overrides: omitting quantization inherits the spec's;
        passing None explicitly yields the float variant of the same
        engine (the float-vs-quantized comparison must be possible)."""
        from repro.api import EngineSpec, ScanSpec, Session
        session = Session(EngineSpec(system="tiny", backend="vectorized",
                                     quantization=18))
        inherited = session.service()
        disabled = session.service(quantization=None)
        assert inherited.quantization is not None
        assert disabled.quantization is None
        scan = ScanSpec(scenario="static_point", frames=1)
        frames = scan.build_frames(session.system)
        quantized_rf = inherited.submit_frame(frames[0]).rf
        float_rf = disabled.submit_frame(frames[0]).rf
        assert not np.array_equal(quantized_rf, float_rf)
        assert session.pipeline(quantization=None).quantization is None

    def test_kernel_sweep_reproduces_monte_carlo_trends(self, tiny):
        """E6-through-the-kernels must match the fixed_point_sweep story."""
        from repro.analysis.fixedpoint_impact import (
            fixed_point_sweep,
            kernel_fixed_point_sweep,
        )
        widths = (13, 14, 16, 18, 20)
        kernel = kernel_fixed_point_sweep(tiny, bit_widths=widths)
        monte_carlo = fixed_point_sweep(bit_widths=widths, n_samples=50_000)
        for kr, mc in zip(kernel, monte_carlo):
            assert kr.total_bits == mc.total_bits
            # Same index-error envelope (including the 14-bit outlier whose
            # corrections lose their fraction bits) ...
            assert kr.max_index_error <= mc.max_index_error + 1
        by_bits = {r.total_bits: r for r in kernel}
        # ... and the same coarse error trend: plain integers shift tens of
        # percent of the gather indices, 18+ bits almost none.
        assert by_bits[13].affected_fraction > 0.1
        assert by_bits[18].affected_fraction < 0.05
        assert by_bits[20].affected_fraction < by_bits[16].affected_fraction \
            < by_bits[13].affected_fraction
        assert by_bits[20].volume_rms_error < by_bits[13].volume_rms_error
        assert all(r.volume_rms_error < 0.1 for r in kernel)

    def test_kernel_sweep_rows_pinned(self, tiny):
        """The E6 kernel rows on tiny at the paper widths, pinned: index
        errors from the providers' rounded, clipped delays; volumes from
        the quantized plans."""
        from repro.analysis.fixedpoint_impact import kernel_fixed_point_sweep
        rows = kernel_fixed_point_sweep(tiny, bit_widths=(13, 14, 16))
        expected = [
            (13, 0.3834228515625, 1, 0.3834228515625, 0.03483526838656069),
            (14, 0.4351806640625, 2, 0.44561767578125, 0.023210280711708383),
            (16, 0.07904052734375, 1, 0.07904052734375, 0.00946480018841087),
        ]
        for row, (bits, affected, worst, mean, rms) in zip(rows, expected):
            assert (row.total_bits, row.sample_count, row.affected_fraction,
                    row.max_index_error, row.mean_abs_index_error) \
                == (bits, 65536, affected, worst, mean)
            assert row.volume_rms_error == pytest.approx(rms, rel=1e-12)


# ------------------------------------------------------- one datapath rule
REPO_ROOT = Path(__file__).resolve().parents[1]
SRC_ROOT = REPO_ROOT / "src" / "repro"


def _offending_lines(paths, pattern, allowed=lambda path, line: False):
    offenders = []
    for path in paths:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(line) and not allowed(path, line):
                offenders.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: "
                                 f"{line.strip()}")
    return offenders


def test_quantization_applied_only_by_the_datapath_helpers():
    """Fixed point is one datapath with rounding steps: only
    ``repro.kernels.ops`` (coerce_samples / weigh / total) quantises
    samples and accumulator values at execution time, and
    ``repro.kernels.quantized`` only defines the stage quantisers."""
    kernels = SRC_ROOT / "kernels"
    pattern = re.compile(r"\bquantize_(samples|accumulator)\(")

    def allowed(path, line):
        return path == kernels / "ops.py" or (
            path == kernels / "quantized.py"
            and line.lstrip().startswith("def "))

    offenders = _offending_lines(SRC_ROOT.rglob("*.py"), pattern, allowed)
    assert not offenders, ("sample/accumulator quantisation outside "
                           "repro/kernels/ops.py:\n" + "\n".join(offenders))


def test_no_second_quantized_datapath_is_named():
    """The retired float/fixed-point split (a plan subclass, its compile
    entry point, a second uncompiled kernel and the plan's reduce hook)
    stays gone from the code, the tests, the examples and the docs."""
    retired = ["QuantizedPlan", "compile_quantized_plan",
               "quantized_delay_and_sum", "reuse_gathered"]
    pattern = re.compile(r"\b(" + "|".join(retired) + r")\b|_reduce\(")
    paths = [REPO_ROOT / "README.md"]
    for folder in ("src", "tests", "examples", "benchmarks", "docs"):
        paths += [path for path in (REPO_ROOT / folder).rglob("*")
                  if path.suffix in (".py", ".md")]
    this_file = Path(__file__).resolve()
    offenders = _offending_lines(
        [path for path in paths if path.resolve() != this_file], pattern)
    assert not offenders, ("retired quantized datapath names:\n"
                           + "\n".join(offenders))
