"""Exporters: JSON-lines traces, Prometheus text, human renderings.

Three consumers, three formats, one source of truth (the
:class:`~repro.observability.tracing.Tracer` span tree and the
:class:`~repro.observability.metrics.MetricsRegistry`):

* **JSON-lines trace dump** — one span per line with its depth, so a
  trace can be streamed, grepped, and round-tripped
  (:func:`spans_to_jsonl` / :func:`spans_from_jsonl`); written by the
  CLI's ``--trace-out``.
* **Prometheus-style text snapshot** — counters/gauges as plain samples,
  histograms as summaries with ``quantile`` labels
  (:func:`render_prometheus` / :func:`parse_prometheus`); written by the
  CLI's ``--metrics-out``.
* **Human renderings** — an indented span tree with per-stage time shares
  (:func:`render_span_tree`), a per-stage aggregate table
  (:func:`render_span_summary`) and the ``repro stream`` aggregate stats
  block (:func:`render_runtime_stats`).

Everything here is read-only over the recorded data — exporting never
mutates a tracer or registry.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Union

from .tracing import Span, Tracer
from .metrics import Histogram, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids import cycle)
    from ..runtime.service import RuntimeStats

__all__ = [
    "parse_prometheus",
    "render_prometheus",
    "render_runtime_stats",
    "render_span_summary",
    "render_span_tree",
    "spans_from_jsonl",
    "spans_to_jsonl",
    "summarize_spans",
    "write_metrics",
    "write_trace",
]

SpanSource = Union[Tracer, Iterable[Span]]


def _roots(source: SpanSource) -> tuple[Span, ...]:
    """Root spans of a tracer or a plain span iterable."""
    if isinstance(source, Tracer) or hasattr(source, "roots"):
        return tuple(source.roots)
    return tuple(source)


# ------------------------------------------------------------- JSON lines
def spans_to_jsonl(source: SpanSource) -> str:
    """Serialise a span tree as JSON lines (one span per line).

    Each line carries ``name``, ``depth``, ``start``, ``duration`` and
    ``attributes``; depth-first order makes the nesting recoverable (and
    the file readable top to bottom as a timeline).
    """
    lines = []
    for root in _roots(source):
        for span, depth in root.walk():
            lines.append(json.dumps({
                "name": span.name,
                "depth": depth,
                "start": span.start,
                "duration": span.duration,
                "attributes": span.attributes,
            }, sort_keys=True))
    return "\n".join(lines) + ("\n" if lines else "")


def spans_from_jsonl(text: str) -> list[Span]:
    """Rebuild the root spans of a :func:`spans_to_jsonl` dump.

    The returned spans are detached (not attached to a tracer, not usable
    as context managers) but carry the full name/timing/attribute tree —
    the exporter round-trip the tests pin.
    """
    roots: list[Span] = []
    stack: list[tuple[Span, int]] = []
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"trace line {line_number} is not valid JSON: {exc}") \
                from None
        span = Span(data["name"], data.get("attributes") or {})
        span.start = float(data.get("start", 0.0))
        span.duration = float(data.get("duration", 0.0))
        depth = int(data.get("depth", 0))
        while stack and stack[-1][1] >= depth:
            stack.pop()
        if depth > 0 and not stack:
            raise ValueError(
                f"trace line {line_number}: depth {depth} span "
                f"{span.name!r} has no parent")
        if stack:
            stack[-1][0].children.append(span)
        else:
            roots.append(span)
        stack.append((span, depth))
    return roots


def write_trace(path: str | Path, source: SpanSource) -> None:
    """Write the JSON-lines trace dump of ``source`` to ``path``."""
    Path(path).write_text(spans_to_jsonl(source))


# ------------------------------------------------------------- span trees
def render_span_tree(source: SpanSource, max_depth: int | None = None) -> str:
    """Indented human rendering of the span tree with per-stage shares.

    Each line shows the span name, wall milliseconds, the share of its
    parent's duration, and any recorded attributes.  ``max_depth`` prunes
    deep trees (``None`` renders everything).
    """
    lines: list[str] = []

    def render(span: Span, depth: int, parent_seconds: float | None) -> None:
        if max_depth is not None and depth > max_depth:
            return
        share = ""
        if parent_seconds:
            share = f"  ({100 * span.duration / parent_seconds:5.1f}%)"
        attributes = "".join(f"  {key}={value}"
                             for key, value in span.attributes.items())
        lines.append(f"{'  ' * depth}{span.name:<12s} "
                     f"{span.duration * 1e3:10.3f} ms{share}{attributes}")
        for child in span.children:
            render(child, depth + 1, span.duration)

    for root in _roots(source):
        render(root, 0, None)
    return "\n".join(lines) if lines else "(no spans recorded)"


def summarize_spans(source: SpanSource) -> dict[str, dict[str, float]]:
    """Per-name aggregate: count, total/mean seconds and share of root time.

    The per-stage time-share table: ``share`` is each stage's total
    duration over the summed root durations (nested stages overlap their
    parents, so shares do not add to 1 across *levels*, only within one).
    """
    totals: dict[str, dict[str, float]] = {}
    root_seconds = 0.0
    for root in _roots(source):
        root_seconds += root.duration
        for span, _ in root.walk():
            entry = totals.setdefault(span.name,
                                      {"count": 0.0, "total_seconds": 0.0})
            entry["count"] += 1
            entry["total_seconds"] += span.duration
    for entry in totals.values():
        entry["mean_seconds"] = entry["total_seconds"] / entry["count"]
        entry["share"] = (entry["total_seconds"] / root_seconds
                          if root_seconds > 0 else 0.0)
    return totals


def render_span_summary(source: SpanSource) -> str:
    """Aggregate table of :func:`summarize_spans`, widest stages first."""
    summary = summarize_spans(source)
    if not summary:
        return "(no spans recorded)"
    lines = [f"{'span':<14s} {'count':>7s} {'total':>12s} {'mean':>12s} "
             f"{'share':>7s}"]
    for name, entry in sorted(summary.items(),
                              key=lambda item: -item[1]["total_seconds"]):
        lines.append(f"{name:<14s} {int(entry['count']):>7d} "
                     f"{entry['total_seconds'] * 1e3:>9.3f} ms "
                     f"{entry['mean_seconds'] * 1e3:>9.3f} ms "
                     f"{100 * entry['share']:>6.1f}%")
    return "\n".join(lines)


# ------------------------------------------------------------- Prometheus
def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text-format snapshot of a registry.

    Counters and gauges render as single samples; histograms render as
    summaries (``quantile`` labels for p50/p95/p99 plus ``_sum`` and
    ``_count`` series) — the shape a scrape endpoint would serve.
    """
    lines: list[str] = []
    for instrument in registry:
        name = instrument.name
        if instrument.description:
            lines.append(f"# HELP {name} {instrument.description}")
        if isinstance(instrument, Histogram):
            lines.append(f"# TYPE {name} summary")
            quantiles = (0.5, 0.95, 0.99)
            for quantile, value in zip(quantiles, instrument.percentiles(
                    [100 * quantile for quantile in quantiles])):
                lines.append(f'{name}{{quantile="{quantile}"}} {value:.9g}')
            lines.append(f"{name}_sum {instrument.sum:.9g}")
            lines.append(f"{name}_count {instrument.count}")
        else:
            kind = "counter" if type(instrument).__name__ == "Counter" \
                else "gauge"
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name} {instrument.value:.9g}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse a :func:`render_prometheus` snapshot into ``{series: value}``.

    Series names keep their label suffix (``name{quantile="0.95"}``), so
    the mapping round-trips every sample the renderer wrote; comment
    lines are skipped.
    """
    samples: dict[str, float] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        series, _, value = line.rpartition(" ")
        try:
            samples[series] = float(value)
        except ValueError:
            raise ValueError(
                f"metrics line {line_number} is not a sample: {line!r}") \
                from None
    return samples


def write_metrics(path: str | Path, registry: MetricsRegistry) -> None:
    """Write the Prometheus text snapshot of ``registry`` to ``path``."""
    Path(path).write_text(render_prometheus(registry))


# ---------------------------------------------------------- runtime stats
def render_runtime_stats(stats: "RuntimeStats") -> str:
    """The human aggregate block for one service's stats.

    Accepts any object with the :class:`repro.runtime.RuntimeStats`
    fields (duck-typed to keep this module import-light); used by the
    CLI ``stream`` command's closing "Aggregate" section.
    """
    lines = [
        f"  backend / dtype          : {stats.backend} / {stats.precision}",
        f"  frames                   : {stats.frames}",
        f"  volume rate              : {stats.frames_per_second:.2f} frames/s",
        f"  voxel rate               : {stats.voxels_per_second:.3e} voxels/s",
        f"  latency mean / max       : {stats.mean_latency_seconds * 1e3:.2f}"
        f" / {stats.max_latency_seconds * 1e3:.2f} ms",
        f"  latency p50 / p95 / p99  : {stats.p50_latency_seconds * 1e3:.2f}"
        f" / {stats.p95_latency_seconds * 1e3:.2f}"
        f" / {stats.p99_latency_seconds * 1e3:.2f} ms",
        f"  plan cache               : {stats.cache.hits} hits, "
        f"{stats.cache.misses} misses, {stats.cache.evictions} evictions "
        f"(hit rate {100 * stats.cache.hit_rate:.0f}%)",
    ]
    if stats.quantization is not None:
        lines.append(f"  quantization             : {stats.quantization}")
    if stats.scheme is not None:
        lines.append(f"  scheme                   : {stats.scheme}")
    return "\n".join(lines)
