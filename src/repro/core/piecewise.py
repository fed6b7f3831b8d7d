"""Piecewise-linear approximation of the square root (TABLEFREE datapath).

The TABLEFREE architecture replaces the exact square root of Eq. (3) with a
piecewise-linear (PWL) approximation whose maximum absolute error is bounded
by a chosen ``delta`` (0.25 delay samples in the paper), which required 70
segments for the paper's argument range (Section IV-B / Fig. 2).

Two evaluation strategies are provided:

* :meth:`PiecewiseSqrt.evaluate` — find the segment with a direct-mapped
  table indexed by the argument's exponent and top mantissa bits, plus at
  most one compare-and-step (the same segment a binary search finds).
* :class:`IncrementalSqrtEvaluator` — track the active segment incrementally,
  exploiting the paper's observation that the square-root argument changes
  only slightly between consecutive focal points, so the correct segment is
  almost always the current one or a neighbour.  This is the key hardware
  simplification: no parallel segment search is needed, only a tiny
  up/down-stepping control.

Segments use the *minimax* (equioscillating) linear fit on each interval, not
the chord: for the concave square root this halves the error of the chord and
is what makes ~70 segments sufficient for ``delta = 0.25`` over the paper's
argument range.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..fixedpoint.format import QFormat
from ..fixedpoint.quantize import quantize


def _chord_slope(a: float, b: float) -> float:
    """Slope of the chord of sqrt between ``a`` and ``b``."""
    return (np.sqrt(b) - np.sqrt(a)) / (b - a)


def minimax_linear_sqrt(a: float, b: float) -> tuple[float, float, float]:
    """Best uniform linear approximation of ``sqrt`` on ``[a, b]``.

    Returns ``(c1, c0, max_error)`` such that ``c1 * x + c0`` equioscillates
    around ``sqrt(x)`` on the interval with maximum absolute error
    ``max_error``.  Requires ``0 <= a < b``.
    """
    if not 0 <= a < b:
        raise ValueError("need 0 <= a < b")
    c1 = _chord_slope(a, b)
    # The interior extremum of sqrt(x) - c1*x is where 1/(2*sqrt(xi)) == c1.
    xi = 1.0 / (4.0 * c1 * c1)
    xi = min(max(xi, a), b)
    # Chord value at xi minus sqrt(xi) is the (negative) chord error; the
    # minimax fit shifts the chord by half that gap.
    chord_at_xi = np.sqrt(a) + c1 * (xi - a)
    gap = np.sqrt(xi) - chord_at_xi          # > 0 for concave sqrt
    c0 = np.sqrt(a) - c1 * a + gap / 2.0
    max_error = gap / 2.0
    return float(c1), float(c0), float(max_error)


def _widest_segment_end(a: float, x_max: float, delta: float) -> float:
    """Largest ``b`` such that the minimax error of sqrt on ``[a, b]`` is <= delta."""
    # Check whether one segment can cover the whole remaining range.
    if minimax_linear_sqrt(a, x_max)[2] <= delta:
        return x_max
    # Exponential probe to bracket the widest admissible end point: ``lo``
    # always satisfies the error bound, ``hi`` violates it.
    step = max(a * 1e-3, 64.0 * delta * delta * 0.25)
    lo = a
    hi = min(a + step, x_max)
    while hi < x_max and minimax_linear_sqrt(a, hi)[2] <= delta:
        lo = hi
        step *= 2.0
        hi = min(a + step, x_max)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if minimax_linear_sqrt(a, mid)[2] <= delta:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-9 * max(1.0, hi):
            break
    return lo


#: Largest ``k`` (table bins per octave ``2**k``) :func:`_segment_table`
#: tries; a segmentation needing finer bins falls back to binary search.
MAX_TABLE_BITS = 6


def _segment_table(breakpoints: np.ndarray
                   ) -> tuple[int, np.ndarray, np.ndarray] | None:
    """Direct-mapped segment lookup for increasing float64 breakpoints.

    Clamped to the domain, the segment of ``x`` is the number of interior
    breakpoints (all but the first and last) at or below ``x``.  The int64
    view of a float64 shifted right by ``52 - k`` keeps its sign, exponent
    and top ``k`` mantissa bits: a bin number, monotonic in ``x`` for
    ``x >= 0``, with ``2**k`` bins per octave.  ``k`` is the smallest
    value for which no bin holds two interior breakpoints.  The table has
    one entry per possible bin (``2**(12 + k)``, negative bins wrapping
    to the top half as ``take`` indexes them), so a lookup needs no
    clamp.  Entry ``b`` is the segment containing the bin's lower edge and
    the next interior breakpoint, so one compare (``x >= upper``) steps to
    the only other segment the bin can reach.  Past the last interior
    breakpoint the upper bound is NaN, which no compare passes.

    Returns ``(shift, segments, uppers)`` or ``None`` when the interior
    breakpoints are negative or no ``k <= MAX_TABLE_BITS`` separates them.
    """
    interior = breakpoints[1:-1]
    if np.signbit(interior).any():
        return None  # the view is monotonic for non-negatives only
    bits = interior.view(np.int64)
    for k in range(MAX_TABLE_BITS + 1):
        shift = 52 - k
        if np.all(np.diff(bits >> shift) > 0):
            break
    else:
        return None
    size = 1 << (12 + k)
    bins = np.arange(size, dtype=np.int64)
    bins[size // 2:] -= size
    edges = (bins << shift).view(np.float64)
    segments = np.searchsorted(interior, edges, side="right")
    uppers = np.append(interior, np.nan)[segments]
    return shift, segments, uppers


@dataclass(frozen=True)
class PiecewiseSqrt:
    """A piecewise-linear approximation of ``sqrt`` on ``[x_min, x_max]``.

    Attributes
    ----------
    breakpoints:
        Segment boundaries, shape ``(n_segments + 1,)``; ``breakpoints[0]`` is
        ``x_min`` and ``breakpoints[-1]`` is ``x_max``.
    slopes, intercepts:
        Per-segment linear coefficients ``c1`` and ``c0`` (Fig. 2a of the
        paper stores exactly these in the ``c1``/``c0`` LUTs).
    delta:
        The error bound the segmentation was built for.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    intercepts: np.ndarray
    delta: float

    @cached_property
    def _table(self) -> tuple[int, np.ndarray, np.ndarray] | None:
        return _segment_table(
            np.ascontiguousarray(self.breakpoints, dtype=np.float64))

    @classmethod
    def build(cls, x_min: float, x_max: float, delta: float) -> "PiecewiseSqrt":
        """Greedily build the minimal-width segmentation for an error bound.

        Starting at ``x_min``, each segment is extended as far as the minimax
        error allows; this yields a near-minimal number of segments (the
        paper reports 70 for its range with ``delta = 0.25`` samples).
        """
        if delta <= 0:
            raise ValueError("delta must be positive")
        if not 0 <= x_min < x_max:
            raise ValueError("need 0 <= x_min < x_max")
        breakpoints = [x_min]
        slopes: list[float] = []
        intercepts: list[float] = []
        a = x_min
        # Guard against pathological configurations producing millions of
        # segments: delta below ~1e-6 of sqrt(x_max) is not a realistic
        # hardware design point.
        max_segments = 1_000_000
        while a < x_max:
            b = _widest_segment_end(a, x_max, delta)
            if b <= a:
                b = min(x_max, a + max(a * 1e-6, 1e-9))
            c1, c0, _err = minimax_linear_sqrt(a, b)
            breakpoints.append(b)
            slopes.append(c1)
            intercepts.append(c0)
            a = b
            if len(slopes) > max_segments:
                raise RuntimeError("segmentation did not converge; delta too small")
        return cls(breakpoints=np.asarray(breakpoints, dtype=np.float64),
                   slopes=np.asarray(slopes, dtype=np.float64),
                   intercepts=np.asarray(intercepts, dtype=np.float64),
                   delta=float(delta))

    @property
    def segment_count(self) -> int:
        """Number of linear segments."""
        return len(self.slopes)

    @property
    def x_min(self) -> float:
        """Lower end of the approximated domain."""
        return float(self.breakpoints[0])

    @property
    def x_max(self) -> float:
        """Upper end of the approximated domain."""
        return float(self.breakpoints[-1])

    def segment_index(self, x: np.ndarray | float) -> np.ndarray:
        """Index of the segment containing each ``x`` (clamped to the domain).

        Equal to ``clip(searchsorted(breakpoints, x, "right") - 1)`` for
        every non-NaN ``x``, found by the direct-mapped table of
        :func:`_segment_table`.
        """
        x = np.asarray(x, dtype=np.float64)
        if self._table is None:
            idx = np.searchsorted(self.breakpoints, x, side="right") - 1
            return np.clip(idx, 0, self.segment_count - 1)
        shift, segments, uppers = self._table
        bins = x.view(np.int64) >> shift
        idx = segments.take(bins)
        idx += x >= uppers.take(bins)
        return idx

    def evaluate(self, x: np.ndarray | float) -> np.ndarray:
        """Evaluate the PWL approximation (table segment selection)."""
        x = np.asarray(x, dtype=np.float64)
        idx = self.segment_index(x)
        return self.slopes[idx] * x + self.intercepts[idx]

    def error(self, x: np.ndarray | float) -> np.ndarray:
        """Signed approximation error ``pwl(x) - sqrt(x)``."""
        x = np.asarray(x, dtype=np.float64)
        return self.evaluate(x) - np.sqrt(x)

    def max_error(self, samples_per_segment: int = 64) -> float:
        """Numerically estimated maximum absolute error over the domain."""
        worst = 0.0
        for i in range(self.segment_count):
            xs = np.linspace(self.breakpoints[i], self.breakpoints[i + 1],
                             samples_per_segment)
            worst = max(worst, float(np.max(np.abs(self.error(xs)))))
        return worst

    def quantized(self, coefficient_format: QFormat,
                  intercept_format: QFormat | None = None) -> "PiecewiseSqrt":
        """Return a copy with LUT coefficients quantised to fixed point.

        Models the finite-precision ``c1``/``c0`` LUTs of the TABLEFREE
        hardware (Fig. 2a).  The slope and intercept formats may differ
        because slopes are small fractional numbers while intercepts span the
        full output range.
        """
        if intercept_format is None:
            intercept_format = coefficient_format
        return PiecewiseSqrt(
            breakpoints=self.breakpoints.copy(),
            slopes=quantize(self.slopes, coefficient_format),
            intercepts=quantize(self.intercepts, intercept_format),
            delta=self.delta,
        )

    def lut_storage_bits(self, coefficient_format: QFormat,
                         intercept_format: QFormat | None = None) -> int:
        """Total LUT storage (bits) for the c1/c0 tables plus breakpoints."""
        if intercept_format is None:
            intercept_format = coefficient_format
        slope_bits = self.segment_count * coefficient_format.total_bits
        intercept_bits = self.segment_count * intercept_format.total_bits
        # Breakpoints are compared against the argument; assume they are
        # stored at the same precision as the intercepts.
        breakpoint_bits = (self.segment_count + 1) * intercept_format.total_bits
        return slope_bits + intercept_bits + breakpoint_bits


@dataclass
class IncrementalSqrtEvaluator:
    """Evaluate a :class:`PiecewiseSqrt` by tracking the active segment.

    The evaluator keeps the index of the segment used for the previous
    argument and, for each new argument, steps the index up or down until the
    argument falls inside the segment.  When consecutive arguments change
    slowly — as they do when focal points are visited nappe-by-nappe or along
    a scanline — almost every evaluation needs zero or one step, which is the
    property the TABLEFREE hardware relies on to avoid a full segment search.

    The evaluator records the number of steps taken so experiments can verify
    the "gradual transition" claim quantitatively.
    """

    pwl: PiecewiseSqrt
    current_segment: int = 0
    total_steps: int = 0
    total_evaluations: int = 0
    max_steps_single_evaluation: int = 0

    def reset(self, segment: int = 0) -> None:
        """Reset the tracked segment and the step counters."""
        self.current_segment = int(np.clip(segment, 0, self.pwl.segment_count - 1))
        self.total_steps = 0
        self.total_evaluations = 0
        self.max_steps_single_evaluation = 0

    def evaluate(self, x: float) -> float:
        """Evaluate ``sqrt(x)`` approximately, updating the tracked segment."""
        breakpoints = self.pwl.breakpoints
        n = self.pwl.segment_count
        idx = self.current_segment
        steps = 0
        x = float(x)
        while idx + 1 < n and x >= breakpoints[idx + 1]:
            idx += 1
            steps += 1
        while idx > 0 and x < breakpoints[idx]:
            idx -= 1
            steps += 1
        self.current_segment = idx
        self.total_steps += steps
        self.total_evaluations += 1
        self.max_steps_single_evaluation = max(self.max_steps_single_evaluation, steps)
        return float(self.pwl.slopes[idx] * x + self.pwl.intercepts[idx])

    def evaluate_sequence(self, xs: np.ndarray) -> np.ndarray:
        """Evaluate a whole sequence of arguments in order."""
        return np.array([self.evaluate(x) for x in np.asarray(xs, dtype=np.float64)])

    @property
    def mean_steps_per_evaluation(self) -> float:
        """Average number of segment steps per evaluation (0 when idle)."""
        if self.total_evaluations == 0:
            return 0.0
        return self.total_steps / self.total_evaluations
