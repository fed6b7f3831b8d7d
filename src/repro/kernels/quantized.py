"""Bit-true quantized execution: the paper's fixed-point datapath as a spec.

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

There is no separate quantized plan or kernel.  The spec rides on the one
:class:`repro.kernels.plan.BeamformingPlan` (its ``quantization`` field,
set by :func:`repro.kernels.plan.compile_plan` from the beamformer's spec)
and on :func:`repro.kernels.ops.delay_and_sum` (its ``quantization=``
argument).  Delays and weights are quantised at compile time — the gather
index is therefore built from the *quantised* delays, exactly as hardware
addresses the buffer with its fixed-point delay sum — and the three
datapath helpers of :mod:`repro.kernels.ops` (``coerce_samples``, ``weigh``,
``total``) quantise the samples, the products and the final sums.  Every
value is carried in ``float64`` — each quantised value is a dyadic rational
with far fewer than 53 significant bits, so the float arithmetic between
quantisation stages is exact and the whole path is bit-identical to
operating on the raw integer codes (the conformance suite pins this
against an oracle built directly on :mod:`repro.fixedpoint`).

Quantisation is idempotent (re-quantising a representable value is the
identity), which the execution paths rely on: a backend may pre-quantise a
frame once and the per-tile / per-scanline kernels may quantise again
without changing a single bit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from ..fixedpoint.format import QFormat, signed, tablesteer_formats, unsigned
from ..fixedpoint.quantize import OverflowMode, RoundingMode, quantize
from .precision import Precision, Tolerance, resolve_precision

__all__ = ["QuantizationSpec", "parse_qformat"]


_QFORMAT_PATTERN = re.compile(r"^([USQ])(\d+)\.(\d+)$", re.IGNORECASE)


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
        ``nearest`` (the hardware's integer echo addressing: linear
        interpolation would multiply by unquantised fractional weights
        between the sample fetch and the apodization stage, a datapath the
        hardware does not have), and — when the echo-buffer length is
        known — the delay format can actually address the whole buffer.  A delay format too narrow for the buffer would
        saturate every delay and produce a structurally valid but
        meaningless volume, which is far worse than failing loudly.
        """
        if resolve_precision(precision) is not Precision.FLOAT64:
            raise ValueError(
                "quantized execution carries exact fixed-point codes in "
                "float64; it cannot be combined with "
                f"precision={resolve_precision(precision).value!r}")
        kind = getattr(interpolation, "value", interpolation)
        if kind != "nearest":
            raise ValueError(
                "quantized execution supports only 'nearest' interpolation "
                f"(the paper's integer echo-buffer addressing); got {kind!r}")
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
