"""repro.observability: tracing, metrics and exporters for the runtime.

The paper's claim is a throughput/latency/storage trade-off; this package
is how the reproduction *measures* it.  Three pieces, all opt-in and all
observation-only (a traced run computes bit-identical volumes — pinned in
the tests):

* :mod:`~repro.observability.tracing` — span-based :class:`Tracer`
  threaded through plan execution, the backends, scheme compounding,
  pipelines, services and sessions; :data:`NULL_TRACER` is the free
  default.
* :mod:`~repro.observability.metrics` — :class:`MetricsRegistry` of
  counters/gauges/percentile histograms backing
  :class:`repro.runtime.RuntimeStats` and
  :class:`repro.runtime.cache.PlanCache` instead of ad-hoc integers.
* :mod:`~repro.observability.export` — JSON-lines traces, a
  Prometheus-style text snapshot and the human renderings behind the CLI's
  ``--trace`` / ``--trace-out`` / ``--metrics-out`` flags.

Performance is measured outside this package, by the repository benchmark
(``BENCHMARK.json``, ``bench/run.py``), whose per-layer rows are aggregated
from the spans recorded here and whose regressions ``bench/compare.py``
gates against measured noise.
"""

from .export import (
    parse_prometheus,
    render_prometheus,
    render_runtime_stats,
    render_span_summary,
    render_span_tree,
    spans_from_jsonl,
    spans_to_jsonl,
    summarize_spans,
    write_metrics,
    write_trace,
)
from .metrics import Counter, Gauge, Histogram, MetricError, MetricsRegistry
from .tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    get_default_tracer,
    resolve_tracer,
    set_default_tracer,
    use_tracer,
)

__all__ = [
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "Tracer",
    "get_default_tracer",
    "parse_prometheus",
    "render_prometheus",
    "render_runtime_stats",
    "render_span_summary",
    "render_span_tree",
    "resolve_tracer",
    "set_default_tracer",
    "spans_from_jsonl",
    "spans_to_jsonl",
    "summarize_spans",
    "use_tracer",
    "write_metrics",
    "write_trace",
]
