"""Tests for repro.observability: tracing, metrics, exporters, bench gate.

Pins the PR's two contracts:

* observability is *observation only* — a traced run is bit-identical to
  an untraced run across backends, schemes and the quantized kernel path;
* disabled instrumentation is near-free — the shared ``NULL_TRACER``
  costs one method call per span site.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.api import EngineSpec, ScanSpec, Session
from repro.observability import (
    NULL_TRACER,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NullTracer,
    Tracer,
    get_default_tracer,
    parse_prometheus,
    render_prometheus,
    render_runtime_stats,
    render_span_summary,
    render_span_tree,
    resolve_tracer,
    spans_from_jsonl,
    spans_to_jsonl,
    summarize_spans,
    use_tracer,
    write_metrics,
    write_trace,
)
from repro.scenarios import SCHEMES


# ------------------------------------------------------------------ tracer
class TestTracer:
    def test_span_records_duration_and_attributes(self):
        tracer = Tracer()
        with tracer.span("work", bytes=128) as span:
            span.set(rows=4)
        assert span.duration > 0.0
        assert span.attributes == {"bytes": 128, "rows": 4}
        assert tracer.span_count == 1

    def test_nesting_and_ordering(self):
        tracer = Tracer()
        with tracer.span("frame"):
            with tracer.span("simulate"):
                pass
            with tracer.span("beamform"):
                with tracer.span("gather"):
                    pass
        (root,) = tracer.roots
        assert root.name == "frame"
        assert [child.name for child in root.children] == ["simulate",
                                                           "beamform"]
        assert [span.name for span, _ in root.walk()] == [
            "frame", "simulate", "beamform", "gather"]
        assert root.children[1].children[0].name == "gather"

    def test_walk_depths(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
        assert [(span.name, depth) for span, depth in tracer.walk()] == [
            ("a", 0), ("b", 1), ("c", 2)]

    def test_find_collects_matching_spans(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("frame"):
                with tracer.span("gather"):
                    pass
        assert len(tracer.find("gather")) == 3
        assert tracer.find("missing") == []

    def test_sibling_roots_and_reset(self):
        tracer = Tracer()
        with tracer.span("one"):
            pass
        with tracer.span("two"):
            pass
        assert [root.name for root in tracer.roots] == ["one", "two"]
        assert tracer.total_seconds == pytest.approx(
            sum(root.duration for root in tracer.roots))
        tracer.reset()
        assert tracer.roots == ()
        assert tracer.span_count == 0

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        (root,) = tracer.roots
        assert root.duration > 0.0
        assert root.children[0].duration > 0.0
        # The stack unwound: a new span is a fresh root, not a child.
        with tracer.span("after"):
            pass
        assert [root.name for root in tracer.roots] == ["outer", "after"]

    def test_self_seconds_excludes_children(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                time.sleep(0.002)
        (root,) = tracer.roots
        assert root.self_seconds == pytest.approx(
            root.duration - root.children[0].duration)

    def test_worker_thread_spans_become_extra_roots(self):
        from concurrent.futures import ThreadPoolExecutor

        tracer = Tracer()

        def work(i):
            with tracer.span("shard", index=i):
                pass

        with tracer.span("execute"):
            with ThreadPoolExecutor(max_workers=2) as pool:
                list(pool.map(work, range(4)))
        names = sorted(root.name for root in tracer.roots)
        assert names.count("execute") == 1
        assert names.count("shard") == 4


    def test_roots_keep_the_most_recent(self, monkeypatch):
        """A tracer holds its last ``MAX_ROOTS`` roots, in the order they
        opened, from any thread — and again after a reset."""
        import itertools
        import threading

        monkeypatch.setattr(Tracer, "MAX_ROOTS", 8)
        tracer = Tracer()
        labels = itertools.count()
        lock = threading.Lock()

        def work():
            for _ in range(10):
                # The lock makes the label order the registration order.
                with lock:
                    with tracer.span("root", index=next(labels)):
                        pass

        threads = [threading.Thread(target=work) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert [root.attributes["index"] for root in tracer.roots] \
            == list(range(12, 20))
        tracer.reset()
        for index in range(10):
            with tracer.span("root", index=index):
                pass
        assert [root.attributes["index"] for root in tracer.roots] \
            == list(range(2, 10))


class TestNullTracer:
    def test_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("work", bytes=1) as span:
            span.set(more=2)
        assert tracer.roots == ()
        assert tracer.span_count == 0
        assert tracer.total_seconds == 0.0
        assert tracer.find("work") == []
        assert list(tracer.walk()) == []

    def test_disabled_overhead_is_bounded(self):
        """The no-op span site must stay within ~3x of a bare function call.

        Generous bound: this is a smoke test against accidentally making
        the disabled path allocate or lock, not a microbenchmark.
        """
        n = 20_000

        def bare():
            for _ in range(n):
                pass

        def traced():
            for _ in range(n):
                with NULL_TRACER.span("x"):
                    pass

        bare()
        traced()  # warm up
        t0 = time.perf_counter()
        bare()
        bare_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        traced()
        traced_seconds = time.perf_counter() - t0
        # Per-iteration cost under 3 microseconds: orders of magnitude
        # below any kernel stage the span would wrap.
        assert (traced_seconds - bare_seconds) / n < 3e-6

    def test_resolve_and_default(self):
        assert resolve_tracer(None) is get_default_tracer()
        tracer = Tracer()
        assert resolve_tracer(tracer) is tracer
        with use_tracer(tracer):
            assert get_default_tracer() is tracer
            assert resolve_tracer(None) is tracer
        assert isinstance(get_default_tracer(), NullTracer)


# ----------------------------------------------------------------- metrics
class TestMetrics:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(MetricError):
            counter.inc(-1.0)
        counter.reset()
        assert counter.value == 0.0

    def test_gauge_set_and_inc(self):
        gauge = Gauge("g")
        gauge.set(4.0)
        gauge.inc(-1.5)
        assert gauge.value == 2.5

    def test_histogram_percentiles_match_numpy(self):
        rng = np.random.default_rng(7)
        samples = rng.exponential(scale=0.01, size=257)
        histogram = Histogram("h")
        for value in samples:
            histogram.observe(float(value))
        for q in (50.0, 95.0, 99.0, 12.5):
            assert histogram.percentile(q) == float(
                np.percentile(samples, q))
        assert histogram.count == samples.size
        assert histogram.sum == pytest.approx(samples.sum())
        assert histogram.mean == pytest.approx(samples.mean())
        assert histogram.min == samples.min()
        assert histogram.max == samples.max()
        summary = histogram.summary()
        assert summary["p95"] == float(np.percentile(samples, 95.0))

    def test_histogram_percentiles_copy_the_window_once(self, monkeypatch):
        """All of a summary's quantiles come from one copy of the window
        and one ``np.percentile`` call, each equal to its own
        ``percentile(q)`` bit for bit — in the summary and the Prometheus
        export alike."""
        from repro.observability import metrics

        samples = np.random.default_rng(3).lognormal(-5.0, 1.5, 70_000)
        registry = MetricsRegistry()
        histogram = registry.histogram("latency_seconds")
        for value in samples:
            histogram.observe(float(value))
        quantiles = (50.0, 95.0, 99.0, 0.0, 100.0, 12.5)
        singles = [histogram.percentile(q) for q in quantiles]
        assert histogram.percentiles(quantiles) == singles
        for single, q in zip(singles, quantiles):
            assert single == float(np.percentile(samples[-Histogram.WINDOW:],
                                                 q))
        assert Histogram("empty").percentiles((50, 99)) == [0.0, 0.0]

        calls = []
        percentile = np.percentile

        def counted(values, q, *args, **kwargs):
            calls.append(np.size(q))
            return percentile(values, q, *args, **kwargs)

        monkeypatch.setattr(metrics.np, "percentile", counted)
        summary = histogram.summary()
        assert [summary[name] for name in ("p50", "p95", "p99")] \
            == singles[:3]
        exported = parse_prometheus(render_prometheus(registry))
        for quantile, single in zip(("0.5", "0.95", "0.99"), singles):
            assert exported[f'latency_seconds{{quantile="{quantile}"}}'] \
                == float(f"{single:.9g}")
        assert calls == [3, 3]

    def test_empty_histogram_is_all_zero(self):
        histogram = Histogram("h")
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.max == 0.0
        assert histogram.percentile(95.0) == 0.0
        assert histogram.summary()["p50"] == 0.0

    def test_histogram_memory_is_bounded_by_its_window(self):
        """A long-running server observes without bound; the histogram keeps
        exact running totals and only the last WINDOW observations, and its
        traced memory stops growing once that window is full."""
        import tracemalloc

        window = Histogram.WINDOW
        samples = np.random.default_rng(11).exponential(
            scale=0.01, size=1_000_000).tolist()
        histogram = Histogram("h")
        for value in samples[:-2 * window]:
            histogram.observe(value)
        # Traced from here: once one more window has replaced every kept
        # observation, each further one frees as much as it allocates.
        tracemalloc.start()
        try:
            for value in samples[-2 * window:-window]:
                histogram.observe(value)
            filled, _ = tracemalloc.get_traced_memory()
            for value in samples[-window:]:
                histogram.observe(value)
            grown, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(histogram.values) == window
        assert grown - filled < 64 * 1024
        assert histogram.count == len(samples)
        running = 0.0
        for value in samples:
            running += value
        assert histogram.sum == running
        assert histogram.min == min(samples)
        assert histogram.max == max(samples)
        recent = samples[-window:]
        np.testing.assert_array_equal(histogram.values, recent)
        for q in (50.0, 95.0, 99.0):
            assert histogram.percentile(q) == float(np.percentile(recent, q))
        histogram.reset()
        assert histogram.count == 0 and len(histogram.values) == 0
        assert histogram.summary()["max"] == 0.0

    def test_registry_get_or_create_and_type_collision(self):
        registry = MetricsRegistry()
        counter = registry.counter("frames_total", "frames")
        assert registry.counter("frames_total") is counter
        with pytest.raises(MetricError):
            registry.gauge("frames_total")
        assert "frames_total" in registry
        assert registry.get("missing") is None
        assert len(registry) == 1

    def test_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(3.0)
        snapshot = registry.snapshot()
        assert snapshot["c"] == 2.0
        assert snapshot["g"] == 1.5
        assert snapshot["h"]["count"] == 1

    def test_merge_adopts_by_reference(self):
        source = MetricsRegistry()
        counter = source.counter("shared_total")
        counter.inc()
        target = MetricsRegistry()
        target.counter("own_total").inc(5)
        target.merge(source)
        assert target.get("shared_total") is counter
        counter.inc()  # live: later increments visible through the target
        assert target.counter("shared_total").value == 2.0
        # Existing names are kept, not overwritten.
        other = MetricsRegistry()
        other.counter("own_total").inc(99)
        target.merge(other)
        assert target.counter("own_total").value == 5.0


# --------------------------------------------------------------- exporters
class TestExporters:
    @pytest.fixture()
    def traced(self):
        tracer = Tracer()
        with tracer.span("frame", frame_id=0):
            with tracer.span("beamform"):
                with tracer.span("gather") as span:
                    span.set(bytes=4096)
                with tracer.span("accumulate"):
                    pass
        with tracer.span("frame", frame_id=1):
            pass
        return tracer

    def test_jsonl_round_trip(self, traced):
        text = spans_to_jsonl(traced)
        lines = [json.loads(line) for line in text.splitlines()]
        assert [line["depth"] for line in lines] == [0, 1, 2, 2, 0]
        roots = spans_from_jsonl(text)
        assert [root.name for root in roots] == ["frame", "frame"]
        original = [(span.name, depth, span.attributes,
                     span.start, span.duration)
                    for root in traced.roots for span, depth in root.walk()]
        rebuilt = [(span.name, depth, span.attributes,
                    span.start, span.duration)
                   for root in roots for span, depth in root.walk()]
        assert rebuilt == original

    def test_jsonl_rejects_orphans_and_garbage(self):
        orphan = json.dumps({"name": "x", "depth": 2})
        with pytest.raises(ValueError, match="no parent"):
            spans_from_jsonl(orphan)
        with pytest.raises(ValueError, match="not valid JSON"):
            spans_from_jsonl("{broken")

    def test_write_trace(self, traced, tmp_path):
        path = tmp_path / "trace.jsonl"
        write_trace(path, traced)
        assert [root.name for root in
                spans_from_jsonl(path.read_text())] == ["frame", "frame"]

    def test_render_span_tree(self, traced):
        tree = render_span_tree(traced)
        assert "gather" in tree and "bytes=4096" in tree
        pruned = render_span_tree(traced, max_depth=1)
        assert "gather" not in pruned and "beamform" in pruned
        assert render_span_tree(Tracer()) == "(no spans recorded)"

    def test_summarize_spans(self, traced):
        summary = summarize_spans(traced)
        assert summary["frame"]["count"] == 2
        assert summary["frame"]["share"] == pytest.approx(1.0)
        assert summary["gather"]["count"] == 1
        assert "gather" in render_span_summary(traced)
        assert render_span_summary(Tracer()) == "(no spans recorded)"

    def test_prometheus_round_trip(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("frames_total", "frames seen").inc(8)
        registry.gauge("fps").set(42.5)
        latency = registry.histogram("latency_seconds")
        for value in (0.01, 0.02, 0.04):
            latency.observe(value)
        text = render_prometheus(registry)
        assert "# TYPE frames_total counter" in text
        assert "# TYPE latency_seconds summary" in text
        samples = parse_prometheus(text)
        assert samples["frames_total"] == 8.0
        assert samples["fps"] == 42.5
        assert samples['latency_seconds{quantile="0.95"}'] == \
            pytest.approx(latency.percentile(95.0))
        assert samples["latency_seconds_count"] == 3.0
        assert samples["latency_seconds_sum"] == pytest.approx(0.07)
        path = tmp_path / "metrics.prom"
        write_metrics(path, registry)
        assert parse_prometheus(path.read_text()) == samples

    def test_parse_prometheus_rejects_garbage(self):
        with pytest.raises(ValueError, match="not a sample"):
            parse_prometheus("frames_total not-a-number")


# ------------------------------------------------- traced == untraced
@pytest.mark.conformance
class TestBitIdentity:
    """Tracing must never perturb a computed sample."""

    CASES = [
        ("reference", "focused", None),
        ("vectorized", "focused", None),
        ("vectorized", "planewave", None),
        ("vectorized", "focused", 18),  # quantized kernel path
    ]

    @pytest.mark.parametrize("backend,scheme,qformat", CASES)
    def test_traced_stream_is_bit_identical(self, backend, scheme, qformat):
        def volumes(trace: bool) -> list[np.ndarray]:
            spec = EngineSpec(system="tiny", architecture="tablesteer",
                              backend=backend, scheme=scheme,
                              quantization=qformat, trace=trace)
            session = Session(spec)
            service = session.service()
            frames = ScanSpec(scenario="moving_point",
                              frames=3).build_frames(session.system)
            results = [service.submit_frame(frame.phantom, seed=frame.seed)
                       for frame in frames]
            return [result.rf for result in results]

        for traced, untraced in zip(volumes(True), volumes(False)):
            np.testing.assert_array_equal(traced, untraced)


# ------------------------------------------------------- service metrics
class TestServiceObservability:
    @pytest.fixture()
    def session(self):
        return Session(EngineSpec(system="tiny", architecture="tablesteer",
                                  backend="vectorized", trace=True))

    def test_stats_percentiles_match_numpy(self, session, tiny_channel_data):
        service = session.service()
        for _ in range(6):
            service.submit_frame(tiny_channel_data)
        stats = service.stats()
        latencies = service.metrics.get("service_latency_seconds").values
        assert stats.p50_latency_seconds == float(
            np.percentile(latencies, 50.0))
        assert stats.p95_latency_seconds == float(
            np.percentile(latencies, 95.0))
        assert stats.p99_latency_seconds == float(
            np.percentile(latencies, 99.0))
        assert stats.p50_latency_seconds <= stats.p95_latency_seconds \
            <= stats.p99_latency_seconds <= stats.max_latency_seconds

    def test_empty_and_reset_stats_are_zero(self, session,
                                            tiny_channel_data):
        service = session.service()
        stats = service.stats()
        assert stats.frames == 0
        assert stats.mean_latency_seconds == 0.0
        assert stats.p99_latency_seconds == 0.0
        service.submit_frame(tiny_channel_data)
        service.reset_stats()
        stats = service.stats()
        assert stats.frames == 0
        assert stats.p50_latency_seconds == 0.0
        # The plan cache survives a stats reset.
        assert stats.cache.misses == 1

    @staticmethod
    def _frame_trees(session, channel_data, stages):
        """Two frames: one tile under execute, compiled on the first frame
        only, its execution the exact ``stages`` subtree."""
        def tree(span):
            return (span.name, [tree(child) for child in span.children])

        service = session.service()
        for _ in range(2):
            service.submit_frame(channel_data)
        first, second = session.tracer.find("frame")
        for frame, compiled in ((first, [("compile", [])]), (second, [])):
            assert tree(frame) == ("frame", [("beamform", [("execute", [
                ("tile", compiled + stages)])])])
        (execute, _) = session.tracer.find("execute")
        assert execute.attributes["tiles"] == 1
        (compile_span,) = session.tracer.find("compile")
        assert compile_span.attributes["bytes"] > 0
        return compile_span

    def test_span_taxonomy(self, session, tiny_channel_data):
        """The exact tree of an unbudgeted float nearest frame: its CSR
        plan runs as one fused ``spmv`` span reading the whole plan."""
        compile_span = self._frame_trees(session, tiny_channel_data,
                                         [("spmv", [])])
        for name in ("gather", "weights", "accumulate"):
            assert not session.tracer.find(name)
        spmv = session.tracer.find("spmv")[0]
        assert spmv.attributes["bytes"] == compile_span.attributes["bytes"]

    def test_span_taxonomy_of_a_linear_plan(self, tiny_channel_data):
        """A linear plan keeps its chunked gather / weights / accumulate
        stages (one chunk on ``tiny``) and no ``spmv`` span."""
        session = Session(EngineSpec(system="tiny", architecture="tablesteer",
                                     backend="vectorized",
                                     interpolation="linear", trace=True))
        self._frame_trees(session, tiny_channel_data,
                          [("gather", []), ("weights", []),
                           ("accumulate", [])])
        assert not session.tracer.find("spmv")
        gather = session.tracer.find("gather")[0]
        assert gather.attributes["bytes"] > 0

    def test_budgeted_trace_has_one_root_per_frame(self, tiny_channel_data):
        """A budgeted frame's tiles all nest under its one execute span;
        the first frame compiles every tile's segment, and each later one
        only the tiles the cache no longer holds."""
        from repro.kernels import compile_plan, plan_storage_bytes
        budget = plan_storage_bytes(8 * 8 * 16, 64, "float64") // 8
        session = Session(EngineSpec(system="tiny", backend="vectorized",
                                     memory_budget_bytes=budget, trace=True))
        service = session.service()
        expected = compile_plan(service.beamformer).execute(tiny_channel_data)
        try:
            for _ in range(3):
                np.testing.assert_array_equal(
                    service.submit_frame(tiny_channel_data).rf, expected)
        finally:
            session.close()
        assert [root.name for root in session.tracer.roots] == ["frame"] * 3
        (n_tiles,) = {execute.attributes["tiles"]
                      for execute in session.tracer.find("execute")}
        assert n_tiles > 1
        for execute in session.tracer.find("execute"):
            assert [child.name for child in execute.children] \
                == ["tile"] * n_tiles
        assert len(session.tracer.find("tile")) == 3 * n_tiles
        resident = session.cache.stats.size
        assert 0 < resident < n_tiles
        assert len(session.tracer.find("compile")) \
            == n_tiles + 2 * (n_tiles - resident)

    @pytest.mark.parametrize("scheme", ["focused", "planewave"])
    def test_a_frame_is_a_batch_of_one(self, tiny_channel_data, scheme):
        """A per-frame ``submit_frame`` runs the one-frame batch: its
        ``execute`` span, and a compounding scheme's ``compound`` span,
        carry ``frames=1``."""
        session = Session(EngineSpec(system="tiny", backend="vectorized",
                                     scheme=scheme, trace=True))
        firings = session.acquire_firings(
            ScanSpec(scenario="static_point").build_frames(
                session.system)[0].phantom)
        session.service().submit_frame(tuple(firings))
        (execute,) = session.tracer.find("execute")
        assert execute.attributes["frames"] == 1
        compounds = session.tracer.find("compound")
        assert [span.attributes["frames"] for span in compounds] \
            == ([1] if scheme == "planewave" else [])

    def test_acquire_firings_opens_a_simulate_span(self, session):
        phantom = ScanSpec(scenario="static_point").build_frames(
            session.system)[0].phantom
        session.acquire_firings(phantom, scheme="planewave")
        pipeline = session.pipeline(scheme="synthetic_aperture")
        pipeline.acquire_firings(phantom)
        assert [span.attributes["firings"]
                for span in session.tracer.find("simulate")] == [
            SCHEMES.create("planewave", session.system).firing_count,
            pipeline.scheme.firing_count]

    def test_export_metrics(self, session, tiny_channel_data):
        service = session.service()
        service.submit_frame(tiny_channel_data)
        exported = service.export_metrics()
        snapshot = exported.snapshot()
        assert snapshot["service_frames_total"] == 1.0
        assert snapshot["plan_cache_misses_total"] == 1.0
        assert snapshot["service_frames_per_second"] > 0.0
        assert snapshot["service_latency_seconds"]["count"] == 1
        # Renders cleanly end to end.
        assert "service_frames_total 1" in render_prometheus(exported)

    def test_untraced_session_records_no_spans(self, tiny_channel_data):
        session = Session(EngineSpec(system="tiny",
                                     architecture="tablesteer"))
        session.service().submit_frame(tiny_channel_data)
        assert session.tracer.span_count == 0

    def test_render_runtime_stats(self, session, tiny_channel_data):
        service = session.service()
        service.submit_frame(tiny_channel_data)
        block = render_runtime_stats(service.stats())
        assert "latency p50 / p95 / p99" in block
        assert "hit rate" in block


class TestSpecTraceField:
    def test_round_trip_and_validation(self):
        spec = EngineSpec(system="tiny", trace=True)
        assert spec.to_dict()["trace"] is True
        assert EngineSpec.from_dict(spec.to_dict()).trace is True
        assert EngineSpec(system="tiny").trace is False
        with pytest.raises(ValueError, match="trace"):
            EngineSpec(system="tiny", trace="yes")
