"""TABLESTEER: reference delay table plus steering corrections.

This is the paper's second delay-generation scheme (Section V): keep the
broadside reference table of :mod:`repro.core.reference_table` in (on-chip)
memory and obtain the delay for any steered focal point by adding the
per-scanline correction plane of :mod:`repro.core.steering`:

    delay(theta, phi, r, D) = reference(r, D) + correction(theta, phi, D)

The generator supports

* a *float* mode, isolating the algorithmic (far-field Taylor) error, and
* *fixed-point* modes parameterised by the total bit width (13, 14 or 18
  bits as in the paper), where the reference delays are stored unsigned, the
  corrections signed, the two are added with aligned binary points and the
  result is rounded to an integer echo-buffer index — exactly the datapath of
  Fig. 4.

Like the other delay providers it computes ``delays_samples`` on arbitrary
points (mapped to the nearest grid scanline and depth, since TABLESTEER is
by construction a gridded generator).  It overrides the grid accessors
(``scanline_delays_samples``, ``nappe_delays_samples``, the flat-range
``tile_delays_samples`` plans compile from) with plane-plus-row sums,
which run about twice as fast as the lookups over grid points they equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import SystemConfig
from ..fixedpoint.array import FixedPointArray
from ..fixedpoint.format import QFormat, tablesteer_formats
from ..fixedpoint.quantize import quantize
from ..geometry.transducer import MatrixTransducer
from ..geometry.volume import FocalGrid
from .provider import DelayProvider
from .reference_table import ReferenceDelayTable
from .steering import SteeringCorrections


@dataclass(frozen=True)
class TableSteerConfig:
    """Numerical design parameters of the TABLESTEER datapath."""

    total_bits: int | None = 18
    """Total fixed-point width (13, 14 or 18 in the paper).  ``None`` selects
    the floating-point mode that isolates the algorithmic steering error."""

    @property
    def is_fixed_point(self) -> bool:
        """Whether the generator quantises delays and corrections."""
        return self.total_bits is not None

    def formats(self) -> tuple[QFormat, QFormat]:
        """Reference-delay and correction formats for the configured width."""
        if self.total_bits is None:
            raise ValueError("floating-point mode has no fixed-point formats")
        return tablesteer_formats(self.total_bits)


@dataclass
class TableSteerDelayGenerator(DelayProvider):
    """Delay generator implementing the TABLESTEER scheme."""

    system: SystemConfig
    design: TableSteerConfig
    reference: ReferenceDelayTable
    corrections: SteeringCorrections
    transducer: MatrixTransducer
    grid: FocalGrid
    _reference_fixed: np.ndarray | None = field(default=None, repr=False)
    _terms_fixed: tuple[np.ndarray, np.ndarray] | None = field(default=None,
                                                               repr=False)
    _reference_codes: np.ndarray | None = field(default=None, repr=False)
    _terms_codes: tuple[np.ndarray, np.ndarray] | None = field(default=None,
                                                               repr=False)

    @classmethod
    def from_config(cls, system: SystemConfig,
                    design: TableSteerConfig | None = None) -> "TableSteerDelayGenerator":
        """Build the generator: reference table plus precomputed corrections."""
        design = design or TableSteerConfig()
        reference = ReferenceDelayTable.build(system)
        corrections = SteeringCorrections.build(system)
        generator = cls(system=system, design=design, reference=reference,
                        corrections=corrections,
                        transducer=reference.transducer, grid=reference.grid)
        if design.is_fixed_point:
            # The hardware stores the separable x- and y-terms individually
            # (Section V-B: the overall delay is a sum of three stored
            # values), so each term is quantised on its own before the
            # addition — once here, as the reference quadrant is.
            ref_fmt, corr_fmt = design.formats()
            reference_fixed = reference.quantized_quadrant(ref_fmt)
            terms_fixed = (quantize(corrections.x_terms, corr_fmt),
                           quantize(corrections.y_terms, corr_fmt))
            object.__setattr__(generator, "_reference_fixed", reference_fixed)
            object.__setattr__(generator, "_terms_fixed", terms_fixed)
            # The same values as int32 codes at the reference's binary
            # point F (exact: each is a multiple of 2^-F below 2^14), the
            # rounding half 2^(F-1) folded into the reference once, so a
            # summed delay rounds to its index by ``>> F`` alone.
            point = float(1 << ref_fmt.fraction_bits)
            object.__setattr__(generator, "_reference_codes",
                               (reference_fixed * point).astype(np.int32)
                               + np.int32((1 << ref_fmt.fraction_bits) >> 1))
            object.__setattr__(generator, "_terms_codes", tuple(
                (terms * point).astype(np.int32) for terms in terms_fixed))
        return generator

    @property
    def integer_datapath(self) -> bool:
        """Whether :meth:`tile_delay_indices` forms rounded indices in the
        fixed-point datapath: a fixed-point design (not the float mode)."""
        return self._reference_codes is not None

    # ------------------------------------------------------------- grid API
    #
    # Every delay is reference(depth) + correction plane(scanline), one
    # float add per (point, element); the methods below differ only in
    # which depths and scanlines they pair up.
    def scanline_delays_samples(self, i_theta: int, i_phi: int) -> np.ndarray:
        """Delays for one grid scanline, shape ``(n_depth, n_elements)`` [samples]."""
        depths = np.arange(len(self.grid.depths))
        return self._reference_rows(depths) \
            + self._correction_planes([i_theta], [i_phi])

    def tile_delays_samples(self, start: int, stop: int,
                            elements: np.ndarray | None = None
                            ) -> np.ndarray:
        """Delays of flat grid points ``[start, stop)`` [samples], at
        ``elements`` only when given.

        Only the correction planes of the scanlines the range touches and
        the reference rows of one scanline are built, each at the wanted
        columns, and every whole scanline is their broadcast sum: the same
        float add, plane plus row, as every other accessor.  A range cut
        inside its first or last scanline adds that line's plane to the
        rows it covers.
        """
        return self._tile_sums(start, stop, elements, codes=False)

    def tile_delay_indices(self, start: int, stop: int,
                           elements: np.ndarray | None = None
                           ) -> np.ndarray:
        """The delays of :meth:`tile_delays_samples` rounded to int32
        echo-buffer indices in the fixed-point datapath (Fig. 4).

        The same plane-plus-row sums are made of the int32 codes at the
        reference's binary point F, the rounding half already in the
        reference, and shifted right by F in place.  Every stored value is
        a multiple of 2^-F below 2^14 in magnitude, so the float sum is
        exact and this equals ``floor(tile_delays_samples + 0.5)`` bit for
        bit.  Fixed-point designs only (:attr:`integer_datapath`).
        """
        if not self.integer_datapath:
            raise ValueError("the float mode has no integer datapath")
        indices = self._tile_sums(start, stop, elements, codes=True)
        fraction = self.design.formats()[0].fraction_bits
        if fraction:
            indices >>= fraction
        return indices

    def _tile_sums(self, start: int, stop: int,
                   elements: np.ndarray | None, codes: bool) -> np.ndarray:
        """Plane plus row over flat grid points ``[start, stop)``: the
        delays in samples, or with ``codes`` the int32 code sums."""
        _n_theta, n_phi, n_depth = self.grid.shape
        first = start // n_depth
        planes = self._correction_planes(
            *np.divmod(np.arange(first, -(-stop // n_depth)), n_phi),
            elements, codes)
        rows = self._reference_rows(np.arange(n_depth), elements, codes)
        sums = np.empty((stop - start, planes.shape[1]), dtype=planes.dtype)
        point, line, depth = 0, 0, start - first * n_depth
        if depth:  # the rest of a cut first scanline
            point = min(n_depth - depth, stop - start)
            np.add(planes[0], rows[depth:depth + point], out=sums[:point])
            line = 1
        whole = (stop - start - point) // n_depth
        np.add(planes[line:line + whole, None], rows,
               out=sums[point:point + whole * n_depth].reshape(
                   whole, n_depth, planes.shape[1]))
        point += whole * n_depth
        # The start of a cut last scanline (empty rows when there is none).
        np.add(planes[line + whole:line + whole + 1],
               rows[:stop - start - point], out=sums[point:])
        return sums

    def nappe_delays_samples(self, i_depth: int) -> np.ndarray:
        """Delays for one nappe, shape ``(n_theta, n_phi, n_elements)`` [samples]."""
        n_theta, n_phi, _n_depth = self.grid.shape
        delays = self._correction_planes(
            *np.divmod(np.arange(n_theta * n_phi), n_phi))
        delays += self._reference_rows([i_depth])
        return delays.reshape(n_theta, n_phi, -1)

    def grid_delay_samples(self, i_theta: int, i_phi: int, i_depth: int) -> np.ndarray:
        """Delays for a single focal point, shape ``(n_elements,)`` [samples]."""
        return (self._reference_rows([i_depth])
                + self._correction_planes([i_theta], [i_phi]))[0]

    # ----------------------------------------------------- point-based API
    def delays_samples(self, points: np.ndarray) -> np.ndarray:
        """Delays for arbitrary Cartesian points, shape ``(n_points, n_elements)``.

        Each point is mapped to the nearest grid scanline and depth before the
        table lookup; points far from any grid node therefore include a
        gridding error on top of the steering approximation.  The accuracy
        experiments always evaluate on grid points, where the gridding error
        is zero.
        """
        return self._delays(*self.grid.nearest_indices(points))

    # ------------------------------------------------------------ internals
    def _delays(self, i_theta: np.ndarray, i_phi: np.ndarray,
                i_depth: np.ndarray) -> np.ndarray:
        """Delays of the grid points ``(i_theta[k], i_phi[k], i_depth[k])``,
        shape ``(n, n_elements)``: the plane of each distinct scanline and
        the reference row of each distinct depth are built once, then
        gathered per point and added."""
        n_phi = len(self.grid.phis)
        lines, line_of = np.unique(np.asarray(i_theta) * n_phi + i_phi,
                                   return_inverse=True)
        depths, depth_of = np.unique(i_depth, return_inverse=True)
        delays = self._correction_planes(*np.divmod(lines, n_phi))[line_of]
        delays += self._reference_rows(depths)[depth_of]
        return delays

    def _correction_planes(self, i_theta, i_phi, elements=None,
                           codes: bool = False) -> np.ndarray:
        """Correction planes of scanlines ``(i_theta[k], i_phi[k])``, shape
        ``(n, n_elements)`` [samples], element ``ix * ey + iy`` — or only
        the columns of ``elements``, ``(n, len(elements))``; with
        ``codes``, the int32 codes of the fixed-point terms."""
        if codes:
            x_terms, y_terms = self._terms_codes
        elif self.design.is_fixed_point:
            x_terms, y_terms = self._terms_fixed
        else:
            x_terms, y_terms = (self.corrections.x_terms,
                                self.corrections.y_terms)
        x_terms = x_terms[:, i_theta, i_phi].T                    # (n, ex)
        y_terms = y_terms[:, i_phi].T                             # (n, ey)
        if elements is not None:
            i_x, i_y = np.divmod(elements, y_terms.shape[1])
            return x_terms[:, i_x] + y_terms[:, i_y]
        planes = x_terms[:, :, None] + y_terms[:, None, :]
        return planes.reshape(len(planes), self.transducer.element_count)

    def _reference_rows(self, i_depth, elements=None,
                        codes: bool = False) -> np.ndarray:
        """Reference delays at depths ``i_depth``, shape ``(n, n_elements)``
        [samples]: the stored (quantised) quadrant expanded by symmetry —
        or only the columns of ``elements``, ``(n, len(elements))``; with
        ``codes``, the int32 codes (rounding half included)."""
        if codes:
            quadrant = self._reference_codes
        elif self.design.is_fixed_point:
            quadrant = self._reference_fixed
        else:
            quadrant = self.reference.quadrant
        if elements is not None:
            i_x, i_y = np.divmod(elements, len(self.reference.quadrant_y_index))
            return quadrant[self.reference.quadrant_x_index[i_x],
                            self.reference.quadrant_y_index[i_y]][:, i_depth].T
        rows = np.moveaxis(quadrant[:, :, i_depth], -1, 0)     # (n, qx, qy)
        rows = rows[:, self.reference.quadrant_x_index]
        rows = rows[:, :, self.reference.quadrant_y_index]
        return rows.reshape(len(rows), self.transducer.element_count)

    # ----------------------------------------------------------- reporting
    def fixed_point_datapath(self, i_theta: int, i_phi: int,
                             i_depth: int) -> FixedPointArray:
        """Bit-aligned fixed-point sum for one focal point (datapath model).

        Returns the :class:`FixedPointArray` holding the reference + correction
        sum before final rounding; used by tests that verify the rounding stage
        against the float datapath.
        """
        if not self.design.is_fixed_point:
            raise ValueError("datapath model requires a fixed-point design")
        ref_fmt, corr_fmt = self.design.formats()
        ex = self.transducer.config.elements_x
        ey = self.transducer.config.elements_y
        reference = FixedPointArray.from_float(
            self._reference_rows([i_depth])[0], ref_fmt)
        x_term = FixedPointArray.from_float(
            np.repeat(self.corrections.x_terms[:, i_theta, i_phi], ey), corr_fmt)
        y_term = FixedPointArray.from_float(
            np.tile(self.corrections.y_terms[:, i_phi], ex), corr_fmt)
        return reference.add(x_term).add(y_term)

    def storage_summary(self) -> dict[str, float]:
        """Storage cost summary in megabits (reference table + corrections)."""
        if self.design.is_fixed_point:
            ref_fmt, corr_fmt = self.design.formats()
        else:
            from ..fixedpoint.format import REFERENCE_DELAY_18B, CORRECTION_18B
            ref_fmt, corr_fmt = REFERENCE_DELAY_18B, CORRECTION_18B
        return {
            "reference_entries": float(self.reference.quadrant_entry_count),
            "reference_megabits": self.reference.storage_megabits(ref_fmt),
            "correction_entries": float(self.corrections.precomputed_value_count),
            "correction_megabits": self.corrections.storage_megabits(corr_fmt),
            "total_megabits": (self.reference.storage_megabits(ref_fmt)
                               + self.corrections.storage_megabits(corr_fmt)),
        }


# --------------------------------------------------------------------------
# Error bounds of the far-field (first-order Taylor) approximation
# --------------------------------------------------------------------------
def farfield_error_seconds(theta: float, phi: float, r: float,
                           element_x: np.ndarray, element_y: np.ndarray,
                           speed_of_sound: float) -> np.ndarray:
    """Exact error of the Eq. (7) approximation for one focal point.

    Returns ``approx - exact`` (seconds) for every element, where ``approx``
    is the reference-plus-plane delay and ``exact`` the true two-way delay of
    Eq. (6).  Used to validate the theoretical Lagrange-type bound of
    Section V-A and to map where in the volume the worst errors occur.
    """
    x = np.asarray(element_x, dtype=np.float64)[:, None]
    y = np.asarray(element_y, dtype=np.float64)[None, :]
    # Exact steered receive distance (law of cosines form of Eq. 6).
    steer = x * np.cos(phi) * np.sin(theta) + y * np.sin(phi)
    exact_rx = np.sqrt(r * r + x * x + y * y - 2.0 * r * steer)
    reference_rx = np.sqrt(r * r + x * x + y * y)
    approx_rx = reference_rx - steer
    return (approx_rx - exact_rx) / speed_of_sound


def lagrange_error_bound_seconds(system: SystemConfig) -> float:
    """Conservative bound on the far-field approximation error [s].

    The second-order remainder of the expansion of
    ``sqrt(r^2 + d^2 - 2 r s) - sqrt(r^2 + d^2)`` in ``s`` (with
    ``d^2 = xD^2 + yD^2`` and ``s`` the steering projection) is bounded by
    ``s^2 / (2 * (r - |s|))`` for ``|s| < r``; evaluating it at the worst
    corner of the aperture, the maximum steering angle and the shallowest
    depth gives a loose bound comparable to the paper's 6.7 us figure.
    """
    transducer = MatrixTransducer.from_config(system)
    grid = FocalGrid.from_config(system)
    c = system.acoustic.speed_of_sound
    x_max = float(np.max(np.abs(transducer.x))) if len(transducer.x) else 0.0
    y_max = float(np.max(np.abs(transducer.y))) if len(transducer.y) else 0.0
    theta_max = float(np.max(np.abs(grid.thetas)))
    phi_max = float(np.max(np.abs(grid.phis)))
    s_max = x_max * np.sin(theta_max) + y_max * np.sin(phi_max)
    r_min = float(grid.depths[0])
    # Only radii safely above the aperture projection admit a finite bound;
    # clamp to the smallest such radius in the grid.
    usable = grid.depths[grid.depths > 1.5 * s_max]
    r_eff = float(usable[0]) if len(usable) else max(r_min, 2.0 * s_max)
    bound = (s_max ** 2) / (2.0 * (r_eff - s_max))
    return float(bound / c)
