"""repro.runtime: batched multi-backend streaming beamforming runtime.

The software-throughput layer of the reproduction: where :mod:`repro.core`
answers *how a delay is generated* and :mod:`repro.kernels` *how delays are
consumed*, this package answers *how fast volumes can be streamed* once
plan compilation is amortised — the same question the paper's Section
II-C/V-B asks of the hardware.

* :mod:`repro.runtime.cache` — LRU :class:`PlanCache` of compiled
  :class:`repro.kernels.BeamformingPlan` artifacts keyed by
  :func:`repro.kernels.plan_key`.
* :mod:`repro.runtime.backends` — ``reference`` / ``vectorized`` /
  ``sharded`` / ``compiled`` execution backends, all running through the
  kernel layer (``compiled`` needs the optional numba package and raises
  :class:`repro.kernels.BackendUnavailable` at build time without it).
* :mod:`repro.runtime.scheduler` — frame requests/results and
  cine-sequence builders.
* :mod:`repro.runtime.service` — the :class:`BeamformingService` facade
  with per-frame latency, aggregate throughput metrics and batched
  multi-frame submission.

Observability: every layer here accepts a
:class:`repro.observability.Tracer` (``compile``/``execute``/``gather``/…
spans) and keeps its counters as :class:`repro.observability.MetricsRegistry`
instruments — see :mod:`repro.observability` and ``docs/observability.md``.
"""

from ..kernels import (
    BackendUnavailable,
    BeamformingPlan,
    Precision,
    QuantizationSpec,
    compile_plan,
    plan_key,
)
from .backends import (
    BACKEND_NAMES,
    BACKENDS,
    CompiledBackend,
    CompiledOptions,
    ExecutionBackend,
    ReferenceBackend,
    ShardedBackend,
    ShardedOptions,
    VectorizedBackend,
)
from .cache import CacheStats, PlanCache
from .scheduler import (
    FrameRequest,
    FrameResult,
    moving_point_cine,
    static_cine,
)
from .service import BeamformingService, RuntimeStats

__all__ = [
    "BACKEND_NAMES",
    "BACKENDS",
    "BackendUnavailable",
    "BeamformingPlan",
    "BeamformingService",
    "CacheStats",
    "CompiledBackend",
    "CompiledOptions",
    "ExecutionBackend",
    "FrameRequest",
    "FrameResult",
    "PlanCache",
    "Precision",
    "QuantizationSpec",
    "ReferenceBackend",
    "RuntimeStats",
    "ShardedBackend",
    "ShardedOptions",
    "VectorizedBackend",
    "compile_plan",
    "moving_point_cine",
    "plan_key",
    "static_cine",
]
