"""Bit-true quantized execution: the paper's fixed-point datapath as a plan.

The hardware beamformer the paper builds never touches floating point on the
per-sample critical path: delays, apodization weights and the accumulating
sum all live in Q-format registers (Section V-B).  The float kernels of
:mod:`repro.kernels.ops` model that hardware only *geometrically* (integer
echo addressing); this module models it *numerically*.  A
:class:`QuantizationSpec` assigns an explicit :class:`repro.fixedpoint.QFormat`
to each of the four values flowing through the gather→weight→accumulate
datapath —

* ``delay_format`` — the fractional-sample delay each focal point/element
  pair addresses the echo buffer with (the paper's U13.5 at 18 bits);
* ``sample_format`` — the echo samples as the ADC/front-end delivers them;
* ``weight_format`` — the receive apodization coefficients;
* ``accumulator_format`` — the register the weighted products are rounded
  into and summed in (saturating, like a hardware accumulator);

plus one :class:`~repro.fixedpoint.quantize.RoundingMode` and one
:class:`~repro.fixedpoint.quantize.OverflowMode` shared by every stage,
matching the rounding semantics of ``repro.analysis.fixedpoint_impact``.

A :class:`QuantizedPlan` is the compiled artifact: a
:class:`repro.kernels.plan.BeamformingPlan` whose delays and weights are
quantised at compile time (the gather index is therefore built from the
*quantised* delays, exactly as hardware addresses the buffer with its
fixed-point delay sum) and whose execution quantises the samples, the
products and the final sums.  Every value is carried in ``float64`` — each
quantised value is a dyadic rational with far fewer than 53 significant
bits, so the float arithmetic between quantisation stages is exact and the
whole path is bit-identical to operating on the raw integer codes (the
conformance suite pins this against an oracle built directly on
:mod:`repro.fixedpoint`).

Quantisation is idempotent (re-quantising a representable value is the
identity), which the execution paths rely on: a backend may pre-quantise a
frame once via :meth:`QuantizedPlan.coerce_samples` and the per-row /
per-batch kernels may quantise again without changing a single bit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..fixedpoint.format import QFormat, signed, tablesteer_formats, unsigned
from ..fixedpoint.quantize import OverflowMode, RoundingMode, quantize
from ..observability.tracing import NULL_TRACER
from .ops import accumulate, apply_weights, build_gather_index, gather_interp
from .plan import BeamformingPlan, _extent, _tile_tensors, plan_key
from .precision import Precision, Tolerance, resolve_precision

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..beamformer.das import DelayAndSumBeamformer

__all__ = [
    "QuantizationSpec",
    "QuantizedPlan",
    "compile_quantized_plan",
    "parse_qformat",
    "quantized_delay_and_sum",
]


_QFORMAT_PATTERN = re.compile(r"^([USQ])(\d+)\.(\d+)$", re.IGNORECASE)


def _require_nearest(kind) -> None:
    """Quantized execution models the paper's integer echo addressing.

    Linear interpolation would multiply by unquantised fractional weights
    between the sample fetch and the apodization stage — a datapath the
    hardware does not have — so it is rejected rather than silently given
    undefined fixed-point semantics.
    """
    if getattr(kind, "value", kind) != "nearest":
        raise ValueError(
            "quantized execution supports only 'nearest' interpolation "
            "(the paper's integer echo-buffer addressing); got "
            f"{getattr(kind, 'value', kind)!r}")


def parse_qformat(text: str) -> QFormat:
    """Parse a ``'U13.5'`` / ``'S13.4'`` / ``'Q4.14'`` spelling into a format.

    ``U`` is unsigned, ``S`` and ``Q`` are signed (DSP convention: a Qm.n
    format carries a sign bit on top of ``m`` integer and ``n`` fraction
    bits).  Used by the CLI's ``--qformat`` flag and by
    :meth:`QuantizationSpec.coerce`.
    """
    match = _QFORMAT_PATTERN.match(text.strip())
    if not match:
        raise ValueError(
            f"cannot parse Q-format {text!r}; expected e.g. 'U13.5', "
            "'S13.4' or 'Q4.14'")
    prefix, integer_bits, fraction_bits = match.groups()
    return QFormat(int(integer_bits), int(fraction_bits),
                   signed=prefix.upper() != "U")


# The echo simulator normalises traces to unit peak amplitude and receive
# apodization weights live in [0, 1], so one integer bit (plus sign for the
# samples) represents both without saturation; 14 fraction bits model a
# 16-bit front-end.  The accumulator sums up to n_elements unit products —
# 12 integer bits hold 1024-element paper-scale sums with headroom.
_DEFAULT_SAMPLE = signed(1, 14)
_DEFAULT_WEIGHT = unsigned(1, 14)
_DEFAULT_ACCUMULATOR = signed(12, 14)


@dataclass(frozen=True)
class QuantizationSpec:
    """Q-formats and policies of the fixed-point beamforming datapath."""

    delay_format: QFormat
    """Format the fractional-sample delays are stored in (paper: U13.5)."""

    sample_format: QFormat = _DEFAULT_SAMPLE
    """Format of the echo samples entering the datapath."""

    weight_format: QFormat = _DEFAULT_WEIGHT
    """Format of the receive apodization weights."""

    accumulator_format: QFormat = _DEFAULT_ACCUMULATOR
    """Format the weighted products are rounded into and summed in."""

    rounding: RoundingMode = RoundingMode.NEAREST
    """Rounding mode of every quantisation stage (hardware round unit)."""

    overflow: OverflowMode = OverflowMode.SATURATE
    """Overflow behaviour of every quantisation stage."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "rounding", RoundingMode(self.rounding))
        object.__setattr__(self, "overflow", OverflowMode(self.overflow))

    # ------------------------------------------------------------- builders
    @classmethod
    def from_total_bits(cls, total_bits: int, **overrides) -> "QuantizationSpec":
        """The spec for one of the paper's delay representation widths.

        The delay format follows the paper's rule (13 integer bits to index
        the echo buffer, every further bit spent on fraction — see
        :func:`repro.fixedpoint.format.tablesteer_formats`); the sample /
        weight / accumulator stages keep their defaults unless overridden.
        """
        reference, _ = tablesteer_formats(total_bits)
        return cls(delay_format=reference, **overrides)

    @classmethod
    def coerce(cls, value) -> "QuantizationSpec | None":
        """Coerce a user-facing spelling into a spec (or ``None`` = off).

        Accepts ``None``, a spec instance, a plain dict (the JSON document
        form), an integer total bit width (``18``), or a Q-format string
        naming the delay format (``"U13.5"``, ``"S13.4"``).
        """
        if value is None or isinstance(value, cls):
            return value
        if isinstance(value, dict):
            from ..registry import decode_options
            return decode_options(cls, value)
        if isinstance(value, bool):
            raise ValueError("quantization must be a spec, bit width or "
                             "Q-format string, not a boolean")
        if isinstance(value, int):
            return cls.from_total_bits(value)
        if isinstance(value, str):
            text = value.strip()
            if text.isdigit():
                return cls.from_total_bits(int(text))
            return cls(delay_format=parse_qformat(text))
        raise ValueError(
            f"cannot interpret {value!r} as a quantization spec; pass a "
            "QuantizationSpec, its dict form, a total bit width or a "
            "Q-format string like 'U13.5'")

    # ------------------------------------------------------ datapath stages
    def quantize_delays(self, delays: np.ndarray) -> np.ndarray:
        """Delays as the fixed-point delay datapath represents them."""
        return quantize(delays, self.delay_format, rounding=self.rounding,
                        overflow=self.overflow)

    def quantize_samples(self, samples: np.ndarray) -> np.ndarray:
        """Echo samples as the front-end registers deliver them."""
        return quantize(samples, self.sample_format, rounding=self.rounding,
                        overflow=self.overflow)

    def quantize_weights(self, weights: np.ndarray) -> np.ndarray:
        """Apodization weights as the coefficient ROM stores them."""
        return quantize(weights, self.weight_format, rounding=self.rounding,
                        overflow=self.overflow)

    def quantize_accumulator(self, values: np.ndarray) -> np.ndarray:
        """Round/saturate a value into the accumulator register format."""
        return quantize(values, self.accumulator_format,
                        rounding=self.rounding, overflow=self.overflow)

    # ----------------------------------------------------------- validation
    def validate_for(self, precision: "Precision | str | None" = None,
                     interpolation="nearest",
                     n_samples: int | None = None) -> None:
        """The single source of the quantized-mode engine constraints.

        Raises :class:`ValueError` unless the execution precision is
        ``float64`` (the fixed-point codes are carried exactly in doubles —
        ``float32`` would silently truncate them), the interpolation is
        ``nearest`` (the hardware's integer echo addressing), and — when the
        echo-buffer length is known — the delay format can actually address
        the whole buffer.  A delay format too narrow for the buffer would
        saturate every delay and produce a structurally valid but
        meaningless volume, which is far worse than failing loudly.
        """
        if resolve_precision(precision) is not Precision.FLOAT64:
            raise ValueError(
                "quantized execution carries exact fixed-point codes in "
                "float64; it cannot be combined with "
                f"precision={resolve_precision(precision).value!r}")
        _require_nearest(interpolation)
        if n_samples is not None and \
                self.delay_format.max_value < n_samples - 1:
            raise ValueError(
                f"delay format {self.delay_format.describe()} saturates at "
                f"{self.delay_format.max_value:g} samples and cannot "
                f"address a {n_samples}-sample echo buffer; use at least "
                f"{max(1, (int(n_samples) - 1).bit_length())} integer bits "
                "(e.g. the paper's U13.5)")

    # ----------------------------------------------------------- reporting
    @property
    def tolerance(self) -> Tolerance:
        """A conservative bound on the quantized volume vs the float64 one.

        Each focal point's sum accumulates one half-LSB error per
        quantisation stage; the dominant term at practical formats is the
        accumulator rounding of every per-element product plus the delay
        quantisation moving indices by ±1 sample.  The bound here is loose
        by construction (it must hold for *any* echo content) and is used
        for documentation and sanity tests, not for bit-true conformance —
        bit-true equality is asserted against the fixed-point oracle
        instead.
        """
        resolution_error = (self.sample_format.resolution
                            + self.weight_format.resolution
                            + self.accumulator_format.resolution)
        return Tolerance(rtol=0.0, atol=max(0.05, 64 * resolution_error))

    def describe(self) -> str:
        """Compact human-readable datapath description."""
        return (f"delays {self.delay_format.describe()}, "
                f"samples {self.sample_format.describe()}, "
                f"weights {self.weight_format.describe()}, "
                f"accumulator {self.accumulator_format.describe()}, "
                f"{self.rounding.value}/{self.overflow.value}")


@dataclass(frozen=True)
class QuantizedPlan(BeamformingPlan):
    """A beamforming plan whose whole datapath runs in fixed point.

    The inherited gather index is rounded from the *quantised* delays (so
    it addresses the buffer exactly as the hardware's fixed-point delay sum
    would), the inherited ``weights`` hold the quantised weights, and
    execution overrides the two :class:`BeamformingPlan` hooks:

    * :meth:`coerce_samples` quantises each frame into ``sample_format``;
    * :meth:`_reduce` rounds every weighted product into the accumulator
      format, sums, and saturates the final value to the same format.

    ``execute`` / ``execute_batch`` are inherited unchanged, which is what
    makes the quantized mode a first-class runtime workload: the
    vectorized, sharded, tiled and batched streaming paths all work, and
    all are bit-identical to each other (the chunked batch gather commutes
    with per-point quantisation).
    """

    spec: QuantizationSpec | None = field(default=None)

    def __post_init__(self) -> None:
        if self.spec is None:
            raise ValueError("QuantizedPlan requires a QuantizationSpec")
        self.spec.validate_for(self.precision, self.interpolation,
                               self.n_samples)

    # ------------------------------------------------------------ execution
    def coerce_samples(self, channel_data) -> np.ndarray:
        """One frame quantised into ``sample_format`` (idempotent)."""
        samples = getattr(channel_data, "samples", channel_data)
        return self.spec.quantize_samples(
            np.asarray(samples, dtype=np.float64))

    def _reduce(self, gathered: np.ndarray, weights: np.ndarray,
                tracer=NULL_TRACER, *, reuse_gathered: bool = False
                ) -> np.ndarray:
        """The fixed-point weight-and-accumulate stage (Eq. 1 in Q-format).

        The product of a quantised sample and a quantised weight is exact in
        float64; it is then rounded into the accumulator format (one
        hardware rounding stage per element) and summed.  The sum of
        ``n_elements`` accumulator-format values is again exact in float64,
        so the only inexact steps are the explicit quantisations — which is
        precisely the hardware's arithmetic.  The ``weights`` span covers
        the product/rounding stage, ``accumulate`` the sum plus its final
        saturation — same taxonomy as the float plan, so traces compare
        across datapaths.

        ``reuse_gathered`` has the same meaning as on the float plan (the
        execute paths pass a private buffer); here the accumulator rounding
        allocates its own output either way, so the flag only spares the
        weight-product temporary.
        """
        spec = self.spec
        with tracer.span("weights"):
            if reuse_gathered:
                weighted = np.multiply(
                    weights.astype(gathered.dtype, copy=False), gathered,
                    out=gathered)
            else:
                weighted = apply_weights(gathered, weights)
            products = spec.quantize_accumulator(weighted)
        with tracer.span("accumulate"):
            return spec.quantize_accumulator(accumulate(products))


def compile_quantized_plan(beamformer: "DelayAndSumBeamformer",
                           precision: Precision | str | None = None,
                           spec: QuantizationSpec | None = None, *,
                           tile: "object | None" = None
                           ) -> QuantizedPlan:
    """Compile the bit-true fixed-point plan for a configured beamformer.

    ``spec`` defaults to the beamformer's own ``quantization`` attribute.
    Delays and weights come from the same tensor builder as
    :func:`repro.kernels.plan.compile_plan`, which quantises each delay
    block before rounding it into the gather index and shares the
    quantised weight tensor between plans of one geometry.

    ``tile`` compiles the segment for one
    :class:`repro.kernels.tiling.Tile` only (``None``: the whole grid);
    the ``quantize_delays`` / ``quantize_weights`` stages are elementwise,
    so segment rows stay bit-true slices of the whole-grid tensors.
    """
    if spec is None:
        spec = getattr(beamformer, "quantization", None)
    if spec is None:
        raise ValueError("no QuantizationSpec: pass spec= or construct the "
                         "beamformer with quantization=...")
    precision = resolve_precision(precision)
    n_samples = beamformer.system.echo_buffer_samples
    # Validate before the expensive delay generation (the plan's own
    # __post_init__ re-checks, but only after the tensors exist).
    spec.validate_for(precision, beamformer.interpolation, n_samples)
    start, stop, grid_shape = _extent(beamformer, tile)
    index, weights = _tile_tensors(beamformer, start, stop, precision.dtype,
                                   quantization=spec)
    return QuantizedPlan(
        key=plan_key(beamformer, precision, quantization=spec, tile=tile),
        weights=weights, grid_shape=grid_shape, precision=precision,
        interpolation=beamformer.interpolation, index=index, spec=spec)


def quantized_delay_and_sum(samples: np.ndarray, delays_samples: np.ndarray,
                            weights: np.ndarray, spec: QuantizationSpec,
                            kind="nearest") -> np.ndarray:
    """Uncompiled fixed-point gather/weight/accumulate for fresh delays.

    The quantized counterpart of :func:`repro.kernels.ops.delay_and_sum`:
    used where delays are produced per call (the per-scanline reference
    loop, arbitrary-point beamforming).  All four datapath values are
    quantised with ``spec`` before the float kernels run, so the result is
    bit-identical to a :class:`QuantizedPlan` over the same points —
    inputs that are already quantised pass through unchanged (quantisation
    is idempotent), which lets callers hoist the echo-buffer quantisation
    out of per-scanline loops.
    """
    _require_nearest(kind)
    samples = spec.quantize_samples(np.asarray(samples, dtype=np.float64))
    delays = spec.quantize_delays(np.asarray(delays_samples,
                                             dtype=np.float64))
    index = build_gather_index(delays, samples.shape[-1], kind)
    gathered = gather_interp(samples, index)
    products = spec.quantize_accumulator(
        apply_weights(gathered, spec.quantize_weights(weights)))
    return spec.quantize_accumulator(accumulate(products))
