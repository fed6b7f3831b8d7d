"""Recursive (incremental) delay calculation baseline.

The paper's related-work section cites Nikolov, Jensen and Tomov's
"Recursive delay calculation unit for parametric beamformer" [17] as the
other main on-the-fly approach: instead of re-evaluating the square root for
every focal point, the receive distance is updated *recursively* as the
focal point advances along a scanline, using the identity

    d(r + dr)^2 = d(r)^2 + 2 * dr * (r - s) + dr^2

where ``d`` is the element-to-point distance, ``r`` the radial position along
the scanline and ``s`` the projection of the element position onto the
scanline direction.  A small number of adds per depth step plus one square
root (itself computable iteratively from the previous value with a
Newton/Heron step) replace the full evaluation.

This module implements that scheme as another
:class:`~repro.core.provider.DelayProvider` baseline so the accuracy
experiments can compare three on-the-fly strategies: exact, PWL
(TABLEFREE) and recursive.  The interesting property — and the
reason the paper's authors prefer the PWL datapath — is that the Newton-step
variant *accumulates* error along a scanline unless the iteration is given
enough steps, whereas the PWL error is bounded per evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SystemConfig
from ..geometry.coordinates import spherical_to_cartesian
from ..geometry.transducer import MatrixTransducer
from ..geometry.volume import FocalGrid
from .provider import DelayProvider


@dataclass(frozen=True)
class RecursiveConfig:
    """Design parameters of the recursive delay unit."""

    newton_iterations: int = 1
    """Newton/Heron refinement steps per depth advance (1 in the cited work)."""

    exact_start: bool = True
    """Whether the first depth sample of each scanline uses an exact sqrt
    (a hardware implementation would bootstrap each scanline this way)."""


@dataclass
class RecursiveDelayGenerator(DelayProvider):
    """Delay generator that updates distances recursively along scanlines."""

    system: SystemConfig
    design: RecursiveConfig
    transducer: MatrixTransducer
    grid: FocalGrid
    origin: np.ndarray

    @classmethod
    def from_config(cls, system: SystemConfig,
                    design: RecursiveConfig | None = None,
                    origin: np.ndarray | None = None) -> "RecursiveDelayGenerator":
        """Build the generator for a system configuration."""
        design = design or RecursiveConfig()
        transducer = MatrixTransducer.from_config(system)
        grid = FocalGrid.from_config(system)
        if origin is None:
            origin = np.zeros(3)
        return cls(system=system, design=design, transducer=transducer,
                   grid=grid, origin=np.asarray(origin, dtype=np.float64))

    # ------------------------------------------------------------ internals
    def _samples_per_meter(self) -> float:
        return (self.system.acoustic.sampling_frequency
                / self.system.acoustic.speed_of_sound)

    def _scanline_geometry(self, i_theta: int, i_phi: int) -> tuple[np.ndarray, np.ndarray]:
        """Unit direction of the scanline and element projections onto it."""
        direction = spherical_to_cartesian(self.grid.thetas[i_theta],
                                           self.grid.phis[i_phi], 1.0).reshape(3)
        projections = self.transducer.positions @ direction
        return direction, projections

    def scanline_delays_samples(self, i_theta: int, i_phi: int) -> np.ndarray:
        """Delays along one scanline, updated recursively in depth.

        Returns an array of shape ``(n_depth, n_elements)`` in fractional
        sample units.
        """
        depths = self.grid.depths
        scale = self._samples_per_meter()
        direction, projections = self._scanline_geometry(i_theta, i_phi)
        element_sq = np.sum(self.transducer.positions ** 2, axis=1)

        n_depth = len(depths)
        n_elements = self.transducer.element_count
        out = np.empty((n_depth, n_elements))

        # Transmit term: |r * direction - origin| per depth (cheap, exact).
        points = depths[:, None] * direction[None, :]
        tx = np.linalg.norm(points - self.origin[None, :], axis=1)

        # Receive term: recursive update of d^2 and iterative sqrt.
        r0 = depths[0]
        d_sq = r0 * r0 - 2.0 * r0 * projections + element_sq
        d_sq = np.maximum(d_sq, 0.0)
        if self.design.exact_start:
            d = np.sqrt(d_sq)
        else:
            # A crude bootstrap (the far-field guess) to expose the effect of
            # skipping the exact start.
            d = np.maximum(r0 - projections, 1e-12)
        out[0] = (tx[0] + d) * scale

        for k in range(1, n_depth):
            dr = depths[k] - depths[k - 1]
            # d^2 recurrence: exact, only adds and one multiply per element.
            d_sq = d_sq + 2.0 * dr * (depths[k - 1] - projections) + dr * dr
            d_sq = np.maximum(d_sq, 0.0)
            # Iterative square root: Newton/Heron steps seeded with the
            # previous distance (which is close, since dr is small).
            d = np.maximum(d, 1e-12)
            for _ in range(max(1, self.design.newton_iterations)):
                d = 0.5 * (d + d_sq / d)
            out[k] = (tx[k] + d) * scale
        return out

    def delays_samples(self, points: np.ndarray) -> np.ndarray:
        """Delays for arbitrary points (mapped to the nearest grid scanline).

        Each point is assigned to its nearest grid scanline and depth; the
        recursion is run down that scanline to the requested depth.  A nappe
        therefore replays each scanline up to its depth — correct but the
        unfavourable access pattern for this architecture (the co-design
        point of Section II-A).
        """
        i_theta, i_phi, i_depth = self.grid.nearest_indices(points)
        out = np.empty((len(i_depth), self.transducer.element_count))
        cache: dict[tuple[int, int], np.ndarray] = {}
        for row in range(len(i_depth)):
            key = (int(i_theta[row]), int(i_phi[row]))
            if key not in cache:
                cache[key] = self.scanline_delays_samples(*key)
            out[row] = cache[key][int(i_depth[row])]
        return out

    # ------------------------------------------------------------- analysis
    def error_accumulation_along_scanline(self, i_theta: int, i_phi: int,
                                          newton_iterations: int | None = None
                                          ) -> np.ndarray:
        """Per-depth mean absolute error versus the exact computation [samples].

        Shows how the iterative square root's residual error behaves along
        the recursion — the accumulation risk that motivates bounded-error
        alternatives like the PWL approximation.
        """
        from .exact import ExactDelayEngine
        if newton_iterations is not None:
            generator = RecursiveDelayGenerator.from_config(
                self.system,
                RecursiveConfig(newton_iterations=newton_iterations,
                                exact_start=self.design.exact_start),
                origin=self.origin)
        else:
            generator = self
        exact = ExactDelayEngine.from_config(self.system, origin=self.origin)
        approx = generator.scanline_delays_samples(i_theta, i_phi)
        truth = exact.delays_samples(self.grid.scanline_points(i_theta, i_phi))
        return np.mean(np.abs(approx - truth), axis=1)

    def arithmetic_cost_per_point(self) -> dict[str, float]:
        """Operations per focal point per element (for comparison with TABLEFREE).

        The d^2 recurrence needs 3 additions and 1 multiply; each Newton step
        needs 1 divide, 1 add and 1 multiply.  TABLEFREE's PWL datapath needs
        2 additions and 1 multiply (plus the LUT read) — no divider, which is
        the key hardware difference.
        """
        newton = max(1, self.design.newton_iterations)
        return {
            "additions": 3.0 + newton,
            "multiplications": 1.0 + newton,
            "divisions": float(newton),
        }
