"""Fixed-point representation impact on delay selection (experiment E6).

Section VI-A reports that storing TABLESTEER delays as plain 13-bit integers
makes ~33 % of the selected echo samples differ (by +/- 1) from a
high-precision floating-point computation, while an 18-bit (13.5) fixed
point representation reduces the affected fraction to below 2 %.  The paper
obtained these numbers with a Matlab simulation over 10 x 10^6 random
inputs; here the same experiment is a seeded NumPy Monte-Carlo.

The model matches the paper's datapath, which sums *three* values per delay
(Section V-B: "a sum of three values is needed to compute the overall
delay"): the reference delay plus the x- and y-direction steering
corrections.  Each of the three is stored in its fixed-point format, the sum
is rounded to an integer echo-buffer index, and that index is compared with
the index obtained from the unquantised sum.  With plain integer storage the
three independent +/-0.5-sample rounding errors move roughly a third of the
indices by one sample; with the 18-bit formats the residual quantisation
error almost never crosses a rounding boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from ..fixedpoint.format import tablesteer_formats
from ..fixedpoint.quantize import quantize


@dataclass(frozen=True)
class FixedPointImpactResult:
    """Outcome of the fixed-point Monte-Carlo for one representation width."""

    total_bits: int
    sample_count: int
    affected_fraction: float
    max_index_error: int
    mean_abs_index_error: float

    def as_dict(self) -> dict[str, float]:
        """Result as a plain dictionary."""
        return {
            "total_bits": float(self.total_bits),
            "sample_count": float(self.sample_count),
            "affected_fraction": self.affected_fraction,
            "max_index_error": float(self.max_index_error),
            "mean_abs_index_error": self.mean_abs_index_error,
        }


def _round_half_away(values: np.ndarray) -> np.ndarray:
    return np.sign(values) * np.floor(np.abs(values) + 0.5)


def fixed_point_impact(total_bits: int,
                       n_samples: int = 1_000_000,
                       max_delay_samples: float = 8000.0,
                       max_correction_samples: float = 130.0,
                       seed: int = 2015) -> FixedPointImpactResult:
    """Monte-Carlo estimate of how often quantisation changes the selected index.

    Parameters
    ----------
    total_bits:
        Width of the reference-delay representation (13, 14 or 18).
    n_samples:
        Number of random (reference, x-correction, y-correction) triples; the
        paper used 10e6.
    max_delay_samples:
        Range of the reference delays (the ~8000-sample echo buffer).
    max_correction_samples:
        Magnitude bound of each per-axis steering correction in sample units.
    seed:
        RNG seed for reproducibility.
    """
    rng = np.random.default_rng(seed)
    reference = rng.uniform(0.0, max_delay_samples, n_samples)
    correction_x = rng.uniform(-max_correction_samples, max_correction_samples,
                               n_samples)
    correction_y = rng.uniform(-max_correction_samples, max_correction_samples,
                               n_samples)

    # Ideal index: full-precision sum rounded once at the end.
    ideal_index = _round_half_away(reference + correction_x + correction_y)

    ref_fmt, corr_fmt = tablesteer_formats(total_bits)
    ref_q = quantize(reference, ref_fmt)
    corr_x_q = quantize(correction_x, corr_fmt)
    corr_y_q = quantize(correction_y, corr_fmt)
    hw_index = _round_half_away(ref_q + corr_x_q + corr_y_q)

    index_error = hw_index - ideal_index
    affected = float(np.mean(index_error != 0))
    return FixedPointImpactResult(
        total_bits=total_bits,
        sample_count=n_samples,
        affected_fraction=affected,
        max_index_error=int(np.max(np.abs(index_error))),
        mean_abs_index_error=float(np.mean(np.abs(index_error))),
    )


def fixed_point_sweep(bit_widths: tuple[int, ...] = (13, 14, 16, 18, 20),
                      n_samples: int = 200_000,
                      seed: int = 2015) -> list[FixedPointImpactResult]:
    """Affected-sample fraction as a function of representation width."""
    return [fixed_point_impact(bits, n_samples=n_samples, seed=seed)
            for bits in bit_widths]


@dataclass(frozen=True)
class KernelFixedPointResult:
    """Per-width outcome of the E6 sweep run through the kernel layer.

    Where :class:`FixedPointImpactResult` Monte-Carlos random delay
    triples, this result comes from compiling the real TABLESTEER delay
    tensors at one representation width into a bit-true
    :class:`repro.kernels.BeamformingPlan` (carrying that width's
    :class:`repro.kernels.QuantizationSpec`) and comparing its echo-buffer
    addressing (and the beamformed volume) against the unquantised
    TABLESTEER plan — the runtime and the experiment share one code path,
    so they cannot drift apart.
    """

    total_bits: int
    sample_count: int
    affected_fraction: float
    max_index_error: int
    mean_abs_index_error: float
    volume_rms_error: float
    """RMS difference of the quantized volume, relative to the peak
    amplitude of the unquantised reference volume."""

    def as_dict(self) -> dict[str, float]:
        """Result as a plain dictionary."""
        return {
            "total_bits": float(self.total_bits),
            "sample_count": float(self.sample_count),
            "affected_fraction": self.affected_fraction,
            "max_index_error": float(self.max_index_error),
            "mean_abs_index_error": self.mean_abs_index_error,
            "volume_rms_error": self.volume_rms_error,
        }


def kernel_fixed_point_sweep(system: SystemConfig | None = None,
                             bit_widths: tuple[int, ...] = (13, 14, 16, 18,
                                                            20),
                             store: "object | str | None" = None
                             ) -> list[KernelFixedPointResult]:
    """The E6 bit-width sweep executed through the compiled kernel path.

    For each width the TABLESTEER delay generator is built *at that width*
    (its fixed-point three-value sum is the very datapath the Monte-Carlo
    models) and compiled into a quantized
    :class:`repro.kernels.BeamformingPlan` whose spec's delay format
    matches the width, so the whole engine — delay generation,
    echo addressing, weighting and accumulation — is hardware-faithful.
    The unquantised reference is the floating-point TABLESTEER plan (same
    algorithmic far-field approximation, no quantisation), which isolates
    representation error exactly as :func:`fixed_point_impact` does.

    Defaults to the ``tiny`` preset: the trends (affected fraction falling
    from tens of percent at 13 bits to ~nothing at 20, index errors of at
    most one sample) are scale-free, and the tiny grid keeps the sweep
    cheap enough for tests and the E6 experiment to run it routinely.

    ``store`` (a :class:`repro.sweep.SweepStore` or a directory path)
    opts into content-addressed reuse: each width's result is keyed on
    the system digest + width, so reruns — and other experiments sharing
    the store — skip the compile entirely and read the metrics back.
    """
    # Imported here: repro.analysis sits below the kernel/beamformer layers
    # in some import orders, and the sweep is the only consumer.
    from ..acoustics.echo import EchoSimulator
    from ..acoustics.phantom import point_target
    from ..beamformer.das import DelayAndSumBeamformer
    from ..config import tiny_system
    from ..core.tablesteer import TableSteerConfig, TableSteerDelayGenerator
    from ..geometry.volume import FocalGrid
    from ..kernels import QuantizationSpec, compile_plan

    system = system or tiny_system()
    cell_keys: dict[int, str] = {}
    if store is not None:
        from ..sweep import SweepStore, cell_key
        from ..sweep.hashing import CELL_SPEC_FORMAT
        if not isinstance(store, SweepStore):
            store = SweepStore(store)
        # Kernel cells have no scenario/scheme grid; their identity is the
        # physics digest + representation width (plus the format stamp, so
        # a schema change invalidates instead of mis-serving).
        cell_keys = {bits: cell_key({"format": CELL_SPEC_FORMAT,
                                     "kind": "e6_kernel_fixed_point",
                                     "system": system.cache_key(),
                                     "total_bits": bits})
                     for bits in bit_widths}
        if all(cell_keys[bits] in store for bits in bit_widths):
            results = []
            for bits in bit_widths:
                metrics = store.read(cell_keys[bits])["metrics"]
                results.append(KernelFixedPointResult(
                    total_bits=int(metrics["total_bits"]),
                    sample_count=int(metrics["sample_count"]),
                    affected_fraction=metrics["affected_fraction"],
                    max_index_error=int(metrics["max_index_error"]),
                    mean_abs_index_error=metrics["mean_abs_index_error"],
                    volume_rms_error=metrics["volume_rms_error"],
                ))
            return results

    grid = FocalGrid.from_config(system)
    depth = float(grid.depths[len(grid.depths) // 2])
    channel_data = EchoSimulator.from_config(system).simulate(
        point_target(depth=depth))

    def buffer_indices(provider, spec=None) -> np.ndarray:
        # The echo-buffer sample each plan addresses: its (quantised)
        # delays rounded to nearest and clipped into the buffer.
        delays = np.asarray(provider.volume_delays_samples(), dtype=np.float64)
        if spec is not None:
            delays = spec.quantize_delays(delays)
        return np.clip(np.floor(delays + 0.5), 0,
                       system.echo_buffer_samples - 1)

    float_provider = TableSteerDelayGenerator.from_config(
        system, TableSteerConfig(total_bits=None))
    float_plan = compile_plan(DelayAndSumBeamformer(system, float_provider))
    reference_indices = buffer_indices(float_provider)
    reference_volume = float_plan.execute(channel_data)
    peak = float(np.max(np.abs(reference_volume))) or 1.0

    results = []
    for bits in bit_widths:
        provider = TableSteerDelayGenerator.from_config(
            system, TableSteerConfig(total_bits=bits))
        spec = QuantizationSpec.from_total_bits(bits)
        plan = compile_plan(DelayAndSumBeamformer(system, provider,
                                                  quantization=spec))
        index_error = buffer_indices(provider, spec) - reference_indices
        volume = plan.execute(channel_data)
        rms = float(np.sqrt(np.mean((volume - reference_volume) ** 2)))
        result = KernelFixedPointResult(
            total_bits=bits,
            sample_count=int(index_error.size),
            affected_fraction=float(np.mean(index_error != 0)),
            max_index_error=int(np.max(np.abs(index_error))),
            mean_abs_index_error=float(np.mean(np.abs(index_error))),
            volume_rms_error=rms / peak,
        )
        if cell_keys:
            store.write(cell_keys[bits], None, result.as_dict(),
                        {"kind": "e6_kernel_fixed_point",
                         "system": system.cache_key(), "total_bits": bits})
        results.append(result)
    return results


def impact_for_system(system: SystemConfig, total_bits: int,
                      n_samples: int = 200_000,
                      seed: int = 2015) -> FixedPointImpactResult:
    """Fixed-point impact with ranges derived from an actual system config."""
    max_delay = float(system.echo_buffer_samples)
    # The largest per-axis steering correction is the aperture half-extent
    # projected at the maximum steering angle, in sample units.
    aperture_x = system.transducer.aperture_x / 2.0
    aperture_y = system.transducer.aperture_y / 2.0
    per_axis_seconds = max(aperture_x * np.sin(system.volume.theta_max),
                           aperture_y * np.sin(system.volume.phi_max)) \
        / system.acoustic.speed_of_sound
    max_correction = per_axis_seconds * system.acoustic.sampling_frequency
    return fixed_point_impact(total_bits, n_samples=n_samples,
                              max_delay_samples=max_delay,
                              max_correction_samples=float(max_correction),
                              seed=seed)
