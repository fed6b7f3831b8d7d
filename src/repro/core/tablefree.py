"""TABLEFREE: on-the-fly delay computation without any delay table.

This models the architecture of Section IV (originally from the authors'
GLSVLSI'14 / BioCAS'14 papers): for every focal point ``S`` and every
receive element ``D`` the two-way delay of Eq. (3) is computed at runtime
using

* an exact-ish transmit term ``|S - O|`` computed once per focal point (its
  cost is amortised over all elements and is therefore "negligible"), and
* a receive term ``|S - D|`` whose square root is evaluated with the
  piecewise-linear approximation of :mod:`repro.core.piecewise`, the only
  per-element arithmetic being two additions plus the PWL multiply-add.

The generator mirrors the hardware numerics: the PWL output for *both*
distance terms is bounded by ``delta`` (0.25 samples), the LUT coefficients
and the accumulated delay live in fixed point, and the final value is rounded
to an integer echo-buffer index.  Section VI-A's accuracy analysis (mean
selection error ~0.25 samples, maximum 2) is reproduced by comparing this
generator against :class:`repro.core.exact.ExactDelayEngine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import SystemConfig
from ..fixedpoint.format import QFormat, signed, unsigned
from ..geometry.coordinates import squared_distances
from ..geometry.transducer import MatrixTransducer
from ..geometry.volume import FocalGrid
from .provider import DelayProvider
from .piecewise import IncrementalSqrtEvaluator, PiecewiseSqrt


@dataclass(frozen=True)
class TableFreeConfig:
    """Numerical design parameters of the TABLEFREE datapath."""

    delta: float = 0.25
    """Maximum PWL square-root error, in delay samples (paper: 0.25)."""

    coefficient_format: QFormat = field(default_factory=lambda: signed(3, 26))
    """Fixed-point format of the PWL slope (c1) LUT entries.

    The slope multiplies the full-magnitude squared-distance argument, so it
    needs a generous number of fractional bits for the product error to stay
    well below one sample; 26 fractional bits keep the slope-quantisation
    contribution under ~0.1 samples for the paper's argument range.
    """

    intercept_format: QFormat = field(default_factory=lambda: unsigned(13, 8))
    """Fixed-point format of the PWL intercept (c0) LUT entries."""

    delay_fraction_bits: int = 5
    """Fractional bits kept when accumulating the delay before rounding."""

    quantize_coefficients: bool = True
    """If False the PWL coefficients stay in double precision (algorithmic
    error only); used to separate algorithmic from fixed-point error."""

    approximate_transmit: bool = True
    """If True the transmit distance also goes through the PWL square root,
    matching the paper's error budget of *two* approximations summed."""


@dataclass
class TableFreeDelayGenerator(DelayProvider):
    """Delay generator implementing the TABLEFREE scheme.

    Use :meth:`from_config` to construct; then :meth:`delay_indices` /
    :meth:`delays_samples` produce delays for arbitrary focal points with the
    same calling convention as :class:`repro.core.exact.ExactDelayEngine`, so
    the beamformer and the accuracy analysis can swap providers freely.
    """

    system: SystemConfig
    design: TableFreeConfig
    transducer: MatrixTransducer
    grid: FocalGrid
    origin: np.ndarray
    pwl: PiecewiseSqrt
    _pwl_exact_coeffs: PiecewiseSqrt

    @classmethod
    def from_config(cls, system: SystemConfig,
                    design: TableFreeConfig | None = None
                    ) -> "TableFreeDelayGenerator":
        """Build the generator, constructing the PWL segmentation for the system.

        The PWL argument is the squared distance expressed in *squared sample*
        units, so that its square root is directly a delay in sample units and
        ``delta`` is an error in samples.  The transmit origin is the probe
        centre; other origins are a transmit scheme's job
        (:class:`repro.scenarios.TransmitAdjustedProvider`).
        """
        design = design or TableFreeConfig()
        transducer = MatrixTransducer.from_config(system)
        grid = FocalGrid.from_config(system)
        origin = np.zeros(3)

        samples_per_meter = (system.acoustic.sampling_frequency
                             / system.acoustic.speed_of_sound)
        # Maximum one-way distance: deepest, most-steered focal point to the
        # farthest aperture corner (or to the origin, whichever is larger).
        corner = np.array([np.max(np.abs(transducer.x)),
                           np.max(np.abs(transducer.y)), 0.0])
        far_point = grid.point(len(grid.thetas) - 1, len(grid.phis) - 1,
                               len(grid.depths) - 1)
        max_distance = max(float(np.linalg.norm(far_point - corner)),
                           float(np.linalg.norm(far_point - origin)))
        max_samples = max_distance * samples_per_meter * 1.05
        pwl_exact = PiecewiseSqrt.build(0.0, max_samples ** 2, design.delta)
        if design.quantize_coefficients:
            pwl = pwl_exact.quantized(design.coefficient_format,
                                      design.intercept_format)
        else:
            pwl = pwl_exact
        return cls(system=system, design=design, transducer=transducer,
                   grid=grid, origin=origin, pwl=pwl,
                   _pwl_exact_coeffs=pwl_exact)

    @property
    def segment_count(self) -> int:
        """Number of PWL segments (the paper reports 70 for its system)."""
        return self.pwl.segment_count

    def _samples_per_meter(self) -> float:
        return (self.system.acoustic.sampling_frequency
                / self.system.acoustic.speed_of_sound)

    def _squared_args_samples(self, points: np.ndarray,
                              elements: np.ndarray | None = None
                              ) -> tuple[np.ndarray, np.ndarray]:
        """Squared TX and RX distances in squared-sample units.

        Returns ``(tx_sq, rx_sq)`` with shapes ``(n_points,)`` and
        ``(n_points, n_elements)`` (``(n_points, len(elements))`` at
        ``elements`` only).  ``rx_sq`` is the transpose of an element-major
        array, so a pass over ``rx_sq.T`` runs along the (longer,
        contiguous) point axis; ``(e - p)**2`` is ``(p - e)**2`` bit for
        bit, so only the memory order differs.
        """
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        scale = self._samples_per_meter()
        positions = self.transducer.positions
        if elements is not None:
            positions = positions[elements]
        tx_sq = squared_distances(points, self.origin[None, :], scale)[:, 0]
        rx_sq = squared_distances(positions, points, scale).T
        return tx_sq, rx_sq

    def delays_samples(self, points: np.ndarray,
                       elements: np.ndarray | None = None) -> np.ndarray:
        """Approximate delays in fractional sample units, shape ``(n_points, n_elements)``
        (at ``elements`` only, when given: every step is elementwise, so
        those columns bit for bit).

        The receive PWL, the transmit add and the fixed-point rounding of
        the accumulated delay run in place on the (element-major)
        squared-argument buffer; the result is its transpose.
        This is bit-identical to ``quantize(tx + pwl.evaluate(rx_sq),
        unsigned(delay_index_bits, fraction))`` because every term is
        >= 0: slopes are positive, intercepts are unsigned when quantised
        and a minimax intercept is >= sqrt(a)/2 when not, and squared
        arguments are non-negative.  On a non-negative total the
        quantiser's round-half-away is ``floor(s + 0.5)``, no -0.0 can
        arise, and the saturating clip only has its upper bound to apply.

        The quantiser's ``2**fraction`` scale is folded into the PWL
        coefficients and the ``(n_points,)`` transmit term rather than
        applied to the full-size total: a power-of-two scale is exact, so
        ``(x*s + c + t) * 2**f`` and ``x*(s*2**f) + c*2**f + t*2**f`` round
        to the same bits.
        """
        tx_sq, rx_sq = self._squared_args_samples(points, elements)
        total = rx_sq.T
        pwl = self.pwl
        fraction = self.design.delay_fraction_bits
        quantized = fraction is not None and fraction >= 0
        scale = 2.0 ** fraction if quantized else 1.0
        idx = pwl.segment_index(total)
        total *= (pwl.slopes * scale).take(idx)
        total += (pwl.intercepts * scale).take(idx)
        if self.design.approximate_transmit:
            transmit = pwl.evaluate(tx_sq)
        else:
            transmit = np.sqrt(tx_sq)
        transmit *= scale
        total += transmit
        if quantized:
            accumulate_fmt = unsigned(self.system.delay_index_bits, fraction)
            total += 0.5
            np.floor(total, out=total)
            np.minimum(total, accumulate_fmt.max_raw, out=total)
            total *= accumulate_fmt.resolution
        return total.T

    def tile_delays_samples(self, start: int, stop: int,
                            elements: np.ndarray | None = None
                            ) -> np.ndarray:
        """Delays of flat grid points ``[start, stop)`` (at ``elements``
        only, when given): the PWL datapath over the whole range in one
        call, elementwise, so bit-identical to the matching
        :meth:`scanline_delays_samples` rows and columns."""
        return self.delays_samples(self.grid.range_points(start, stop),
                                   elements)

    def incremental_evaluator(self) -> IncrementalSqrtEvaluator:
        """An incremental segment-tracking evaluator over this generator's PWL.

        Used by experiment E3 to quantify how many segment steps are needed
        when focal points are visited in scanline or nappe order.
        """
        return IncrementalSqrtEvaluator(pwl=self.pwl)

    def segment_step_statistics(self, i_theta: int = 0, i_phi: int = 0,
                                element_index: int = 0) -> dict[str, float]:
        """Segment-tracking statistics along one scanline for one element.

        Returns the mean and maximum number of segment steps per focal point
        when sweeping the scanline in depth order — the quantity that must be
        small for the TABLEFREE control logic to avoid a segment search.
        """
        points = self.grid.scanline_points(i_theta, i_phi)
        _tx_sq, rx_sq = self._squared_args_samples(points)
        args = rx_sq[:, element_index]
        evaluator = self.incremental_evaluator()
        evaluator.reset(int(self.pwl.segment_index(args[0])))
        evaluator.evaluate_sequence(args)
        return {
            "mean_steps": evaluator.mean_steps_per_evaluation,
            "max_steps": float(evaluator.max_steps_single_evaluation),
            "evaluations": float(evaluator.total_evaluations),
        }
