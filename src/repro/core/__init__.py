"""Core delay-generation algorithms: the paper's primary contribution.

* :mod:`repro.core.provider` — the :class:`DelayProvider` base every
  generator derives its grid accessors from.
* :mod:`repro.core.exact` — double-precision reference delays (ground truth).
* :mod:`repro.core.piecewise` — piecewise-linear square-root approximation.
* :mod:`repro.core.tablefree` — TABLEFREE on-the-fly delay generation.
* :mod:`repro.core.reference_table` — broadside reference delay table.
* :mod:`repro.core.steering` — per-scanline steering correction planes.
* :mod:`repro.core.tablesteer` — TABLESTEER table-plus-steering generation.
"""

from .exact import ExactDelayEngine, propagation_delay, receive_delay, transmit_delay
from .multi_origin import OriginSchedule, synthetic_aperture_cost_comparison
from .piecewise import IncrementalSqrtEvaluator, PiecewiseSqrt, minimax_linear_sqrt
from .provider import DelayProvider
from .recursive import RecursiveConfig, RecursiveDelayGenerator
from .reference_table import ReferenceDelayTable
from .steering import SteeringCorrections, correction_plane
from .tablefree import TableFreeConfig, TableFreeDelayGenerator
from .tablesteer import (
    TableSteerConfig,
    TableSteerDelayGenerator,
    farfield_error_seconds,
    lagrange_error_bound_seconds,
)

__all__ = [
    "DelayProvider",
    "ExactDelayEngine",
    "propagation_delay",
    "transmit_delay",
    "receive_delay",
    "PiecewiseSqrt",
    "IncrementalSqrtEvaluator",
    "minimax_linear_sqrt",
    "TableFreeConfig",
    "TableFreeDelayGenerator",
    "ReferenceDelayTable",
    "SteeringCorrections",
    "correction_plane",
    "TableSteerConfig",
    "TableSteerDelayGenerator",
    "farfield_error_seconds",
    "lagrange_error_bound_seconds",
    "RecursiveConfig",
    "RecursiveDelayGenerator",
    "OriginSchedule",
    "synthetic_aperture_cost_comparison",
]
