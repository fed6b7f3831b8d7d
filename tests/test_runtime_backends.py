"""Tests for repro.runtime.backends and repro.runtime.cache.

The load-bearing guarantee of the runtime is that execution strategy never
changes the image: ``vectorized`` must reproduce the ``reference``
per-scanline volume bit-for-bit at ``float64`` (both run through the same :mod:`repro.kernels` math) and within the pinned tolerance
at ``float32``.  The cache tests pin the LRU bookkeeping — and the key
isolation across interpolation/precision — that the throughput claims rest
on.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.api import EngineSpec, ScanSpec, Session
from repro.architectures import ARCHITECTURES
from repro.beamformer.das import DelayAndSumBeamformer
from repro.beamformer.interpolation import InterpolationKind
from repro.kernels import (
    CompiledOptions,
    Precision,
    numba_available,
    plan_key,
    plan_storage_bytes,
)
from repro.kernels.tiling import TilePlanner
from repro.observability import Tracer
from repro.runtime import (
    BACKEND_NAMES,
    BACKENDS,
    BackendUnavailable,
    PlanCache,
    ReferenceBackend,
    VectorizedBackend,
)

ARCH_NAMES = ("exact", "tablefree", "tablesteer")

# The `compiled` backend is registered unconditionally but only buildable
# with the optional numba package; parameterised equivalence tests mark it
# skip-with-reason on numba-free hosts (the fallback error path has its own
# unconditional tests below).
BUILDABLE_BACKENDS = tuple(
    pytest.param(name, marks=pytest.mark.skipif(
        not numba_available(),
        reason="numba not installed (compiled backend unavailable)"))
    if name == "compiled" else name
    for name in BACKEND_NAMES)


@pytest.fixture(scope="module")
def beamformers(tiny):
    """One beamformer per delay architecture, sharing the tiny system."""
    return {name: DelayAndSumBeamformer(tiny, ARCHITECTURES.create(name, tiny))
            for name in ARCH_NAMES}


class TestBackendEquivalence:
    @pytest.mark.parametrize("architecture", ARCH_NAMES)
    @pytest.mark.parametrize("backend", ["vectorized"])
    def test_matches_reference_volume(self, beamformers, tiny_channel_data,
                                      architecture, backend):
        beamformer = beamformers[architecture]
        reference = ReferenceBackend(beamformer).beamform_volume(
            tiny_channel_data)
        batched = BACKENDS.create(backend, beamformer, None, None) \
            .beamform_volume(tiny_channel_data)
        assert batched.shape == reference.shape
        np.testing.assert_allclose(batched, reference, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("backend", BUILDABLE_BACKENDS)
    def test_float32_within_pinned_tolerance(self, tiny, beamformers,
                                             tiny_channel_data, backend):
        beamformer = beamformers["tablesteer"]
        reference = ReferenceBackend(beamformer).beamform_volume(
            tiny_channel_data)
        fast_beamformer = DelayAndSumBeamformer(tiny, beamformer.delays,
                                                precision="float32")
        fast = BACKENDS.create(backend, fast_beamformer, None, None) \
            .beamform_volume(tiny_channel_data)
        assert fast.dtype == np.float32
        Precision.FLOAT32.tolerance.assert_allclose(fast, reference)

    def test_linear_interpolation_also_matches(self, tiny, tiny_channel_data):
        beamformer = DelayAndSumBeamformer(
            tiny, ARCHITECTURES.create("exact", tiny),
            interpolation=InterpolationKind.LINEAR)
        reference = ReferenceBackend(beamformer).beamform_volume(
            tiny_channel_data)
        batched = BACKENDS.create("vectorized", beamformer, None, None) \
            .beamform_volume(tiny_channel_data)
        np.testing.assert_allclose(batched, reference, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("backend", BUILDABLE_BACKENDS)
    def test_batch_equals_per_frame(self, beamformers, tiny_channel_data,
                                    backend):
        """beamform_batch must be frame-for-frame identical to the loop."""
        beamformer = beamformers["exact"]
        instance = BACKENDS.create(backend, beamformer, None, None)
        single = instance.beamform_volume(tiny_channel_data)
        batch = instance.beamform_batch([tiny_channel_data,
                                         tiny_channel_data])
        assert batch.shape == (2, *single.shape)
        np.testing.assert_array_equal(batch[0], single)
        np.testing.assert_array_equal(batch[1], single)

    def test_unknown_backend_rejected(self, beamformers):
        with pytest.raises(ValueError, match="unknown backend"):
            BACKENDS.create("gpu", beamformers["exact"], None, None)

    def test_backend_registry_names(self):
        assert set(BACKEND_NAMES) == {"reference", "vectorized", "compiled"}


class TestCompiledBackendFallback:
    """The no-numba degradation contract (runs on every host: the tests pin
    availability via the module flag rather than depending on the actual
    environment)."""

    def test_registry_lists_compiled_unconditionally(self):
        assert "compiled" in BACKENDS.names()
        description = dict(BACKENDS.items())["compiled"].description
        assert "fused" in description
        if not numba_available():
            assert "unavailable" in description

    def test_build_without_numba_raises_backend_unavailable(
            self, beamformers, monkeypatch):
        monkeypatch.setattr("repro.kernels.compiled.NUMBA_AVAILABLE", False)
        with pytest.raises(BackendUnavailable, match="numba"):
            BACKENDS.create("compiled", beamformers["exact"], None, None)

    def test_error_message_is_actionable(self, beamformers, monkeypatch):
        monkeypatch.setattr("repro.kernels.compiled.NUMBA_AVAILABLE", False)
        with pytest.raises(BackendUnavailable) as excinfo:
            BACKENDS.create("compiled", beamformers["exact"], None, None)
        message = str(excinfo.value)
        assert "pip install numba" in message
        assert "vectorized" in message      # names a working alternative

    def test_backend_unavailable_is_a_value_error(self):
        # The CLI's existing `except ValueError -> exit 2` paths must catch
        # it without new plumbing.
        assert issubclass(BackendUnavailable, ValueError)

    def test_quantized_rejected_before_numba_gate(self, tiny, monkeypatch):
        """The quantized rejection must fire even without numba installed —
        it is a design restriction, not an environment one."""
        monkeypatch.setattr("repro.kernels.compiled.NUMBA_AVAILABLE", False)
        provider = ARCHITECTURES.create("exact", tiny)
        quantized = DelayAndSumBeamformer(tiny, provider, quantization=18)
        with pytest.raises(ValueError, match="quantized") as excinfo:
            BACKENDS.create("compiled", quantized, None, None)
        assert not isinstance(excinfo.value, BackendUnavailable)

    def test_options_validation(self):
        with pytest.raises(ValueError, match="threads"):
            CompiledOptions(threads=0)
        with pytest.raises(ValueError, match="block_size"):
            CompiledOptions(block_size=0)
        # Defaults are valid and hashable (used inside plan keys).
        hash(CompiledOptions())

    def test_plan_key_variant_isolation(self, beamformers):
        """Compiled plans must never share cache entries with NumPy plans,
        and fastmath must get its own entry (different float semantics)."""
        beamformer = beamformers["exact"]
        numpy_key = plan_key(beamformer)
        exact_key = plan_key(beamformer, None,
                             variant=CompiledOptions().variant())
        fastmath_key = plan_key(
            beamformer, None, variant=CompiledOptions(fastmath=True).variant())
        assert len({numpy_key, exact_key, fastmath_key}) == 3
        # Launch-time knobs (threads, block size) do NOT split the key:
        # they change scheduling, not the compiled artifact's math.
        assert plan_key(beamformer, None,
                        variant=CompiledOptions(threads=2).variant()) \
            == exact_key


class TestPlanCacheKeys:
    def test_key_stability_and_architecture_separation(self, beamformers):
        keys = {plan_key(b) for b in beamformers.values()}
        assert len(keys) == len(ARCH_NAMES)
        one = beamformers["exact"]
        assert plan_key(one) == plan_key(one)

    def test_key_distinguishes_interpolation(self, tiny):
        """Engines differing only in interpolation must never share plans."""
        provider = ARCHITECTURES.create("exact", tiny)
        nearest = DelayAndSumBeamformer(tiny, provider)
        linear = DelayAndSumBeamformer(
            tiny, provider, interpolation=InterpolationKind.LINEAR)
        assert plan_key(nearest) != plan_key(linear)

    def test_key_distinguishes_precision(self, beamformers):
        """Engines differing only in dtype must never share plans."""
        beamformer = beamformers["exact"]
        assert plan_key(beamformer, "float64") != \
            plan_key(beamformer, "float32")

    def test_key_distinguishes_quantization(self, tiny):
        """Engines differing only in quantisation spec must never share
        plans (the PR 3 cache-poisoning class of bug, third edition)."""
        provider = ARCHITECTURES.create("exact", tiny)
        float_engine = DelayAndSumBeamformer(tiny, provider)
        q18 = DelayAndSumBeamformer(tiny, provider, quantization=18)
        q13 = DelayAndSumBeamformer(tiny, provider, quantization=13)
        keys = {plan_key(float_engine), plan_key(q18), plan_key(q13)}
        assert len(keys) == 3
        # The spec's rounding/overflow policy is part of the key too.
        from repro.fixedpoint.quantize import RoundingMode
        from repro.kernels import QuantizationSpec
        nearest_even = DelayAndSumBeamformer(
            tiny, provider,
            quantization=QuantizationSpec.from_total_bits(
                18, rounding=RoundingMode.NEAREST_EVEN))
        assert plan_key(nearest_even) != plan_key(q18)

    def test_shared_cache_isolates_quantization(self, tiny,
                                                tiny_channel_data):
        """One cache, float + two quantized engines: three distinct plans,
        and the quantized volumes actually differ from the float one."""
        provider = ARCHITECTURES.create("exact", tiny)
        cache = PlanCache(capacity=8)
        volumes = {}
        for quantization in (None, 18, 13):
            beamformer = DelayAndSumBeamformer(tiny, provider,
                                               quantization=quantization)
            backend = BACKENDS.create("vectorized", beamformer, cache, None)
            volumes[quantization] = backend.beamform_volume(
                tiny_channel_data)
            # A second frame from the same engine must hit, not recompile.
            backend.beamform_volume(tiny_channel_data)
        assert cache.stats.misses == 3
        assert cache.stats.hits == 3
        assert not np.array_equal(volumes[None], volumes[18])
        assert not np.array_equal(volumes[18], volumes[13])
        assert any(plan.quantization is not None
                   for plan in cache._entries.values())

    def test_shared_cache_isolates_interpolation_and_dtype(
            self, tiny, tiny_channel_data):
        """One cache, four engine flavours: four distinct plans, no mixups."""
        provider = ARCHITECTURES.create("exact", tiny)
        cache = PlanCache(capacity=8)
        volumes = {}
        for kind in (InterpolationKind.NEAREST, InterpolationKind.LINEAR):
            for precision in ("float64", "float32"):
                beamformer = DelayAndSumBeamformer(
                    tiny, provider, interpolation=kind, precision=precision)
                backend = BACKENDS.create("vectorized", beamformer, cache,
                                          None)
                volumes[(kind, precision)] = backend.beamform_volume(
                    tiny_channel_data)
        assert cache.stats.misses == 4        # four distinct plans compiled
        assert volumes[(InterpolationKind.NEAREST, "float64")].dtype \
            == np.float64
        assert volumes[(InterpolationKind.NEAREST, "float32")].dtype \
            == np.float32
        # Interpolation actually changed the result (so a shared plan would
        # have been an observable bug, not a harmless dedup).
        assert not np.array_equal(
            volumes[(InterpolationKind.NEAREST, "float64")],
            volumes[(InterpolationKind.LINEAR, "float64")])


class TestPlanCache:
    def test_hit_and_miss_counting(self):
        cache = PlanCache(capacity=2)
        calls = []
        for _ in range(3):
            cache.get_or_build("a", lambda: calls.append(1) or "va")
        assert calls == [1]
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (2, 1, 0)
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        cache.get_or_build("a", lambda: "va")
        cache.get_or_build("b", lambda: "vb")
        cache.get_or_build("a", lambda: "va")   # refresh 'a' -> 'b' is LRU
        cache.get_or_build("c", lambda: "vc")   # evicts 'b'
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1
        assert len(cache) == 2

    def test_rebuild_after_eviction(self):
        cache = PlanCache(capacity=1)
        builds = []
        cache.get_or_build("a", lambda: builds.append("a") or 1)
        cache.get_or_build("b", lambda: builds.append("b") or 2)
        cache.get_or_build("a", lambda: builds.append("a") or 1)
        assert builds == ["a", "b", "a"]

    def test_clear_keeps_counters(self):
        cache = PlanCache()
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_shared_cache_serves_two_backends(self, beamformers,
                                              tiny_channel_data):
        beamformer = beamformers["tablesteer"]
        cache = PlanCache()
        first, second = (BACKENDS.create("vectorized", beamformer, cache,
                                         None) for _ in range(2))
        first.beamform_volume(tiny_channel_data)
        n_tiles = first.planner.n_tiles
        assert cache.stats.misses == n_tiles   # one segment per tile
        second.beamform_volume(tiny_channel_data)
        stats = cache.stats
        assert stats.misses == n_tiles         # the second compiled nothing
        assert stats.hits == n_tiles

    def test_off_length_frame_is_rejected_cache_bytes_kept(
            self, beamformers, tiny_channel_data):
        """A frame of another buffer length is refused and leaves the
        cached plan as charged: the bytes it charged at insert stay the
        bytes resident, before and after an eviction."""
        cache = PlanCache(capacity=1)
        backend = BACKENDS.create("vectorized", beamformers["tablesteer"],
                                  cache, None)
        backend.beamform_volume(tiny_channel_data)
        charged = cache.stats.bytes
        with pytest.raises(ValueError, match="sample"):
            backend.beamform_volume(np.pad(tiny_channel_data.samples,
                                           ((0, 0), (0, 7))))
        (cached,) = cache._entries.values()
        assert cached.nbytes == charged == cache.stats.bytes
        BACKENDS.create("vectorized", beamformers["exact"], cache,
                        None).beamform_volume(tiny_channel_data)
        (resident,) = cache._entries.values()
        assert cache.stats.evictions == 1
        assert cache.stats.bytes == resident.nbytes


class _Sized:
    """A fake plan exposing just the ``nbytes`` the cache tracks."""

    def __init__(self, nbytes):
        self.nbytes = nbytes


class TestPlanCacheByteBudget:
    def test_bytes_tracked_without_a_budget(self):
        cache = PlanCache()
        cache.get_or_build("a", lambda: _Sized(100))
        cache.get_or_build("b", lambda: _Sized(50))
        stats = cache.stats
        assert stats.bytes == 150 and stats.peak_bytes == 150
        assert stats.max_bytes is None

    def test_unsized_values_count_as_zero(self):
        cache = PlanCache()
        cache.get_or_build("a", lambda: "not a plan")
        assert cache.stats.bytes == 0

    def test_byte_eviction_in_lru_order(self):
        cache = PlanCache(max_bytes=300)
        cache.get_or_build("a", lambda: _Sized(100))
        cache.get_or_build("b", lambda: _Sized(100))
        cache.get_or_build("a", lambda: _Sized(100))  # refresh: 'b' is LRU
        cache.get_or_build("c", lambda: _Sized(150))  # 350 > 300: evict 'b'
        assert "a" in cache and "c" in cache and "b" not in cache
        stats = cache.stats
        assert stats.bytes == 250 and stats.evictions == 1

    def test_byte_budget_replaces_count_bound(self):
        # Four segments of 100 B fit an 800 B budget even though the
        # default entry capacity is 4: a fifth still fits, no eviction.
        cache = PlanCache(capacity=2, max_bytes=800)
        for key in "abcde":
            cache.get_or_build(key, lambda: _Sized(100))
        assert len(cache) == 5
        assert cache.stats.evictions == 0

    def test_size_hint_evicts_before_builder_runs(self):
        # The budget must hold even *while* the new segment is being
        # built: with a hint, resident bytes drop below budget-minus-hint
        # before the builder is invoked.
        cache = PlanCache(max_bytes=250)
        cache.get_or_build("a", lambda: _Sized(100))
        cache.get_or_build("b", lambda: _Sized(100))
        resident_at_build = []

        def build():
            resident_at_build.append(cache.stats.bytes)
            return _Sized(100)

        cache.get_or_build("c", build, size_hint=100)
        assert resident_at_build == [100]           # 'a' evicted pre-build
        assert cache.stats.bytes == 200 <= 250

    def test_budget_never_exceeded_across_a_sweep(self):
        # A tiled sweep: many equally-sized segments streamed through a
        # budget sized for two of them.  At no observable point do the
        # resident bytes exceed the budget.
        cache = PlanCache(max_bytes=200)
        for index in range(10):
            cache.get_or_build(index, lambda: _Sized(100), size_hint=100)
            assert cache.stats.bytes <= 200
        stats = cache.stats
        assert stats.peak_bytes == 200
        assert stats.evictions == 8
        assert len(cache) == 2

    def test_sole_oversized_entry_is_kept(self):
        # An entry larger than the whole budget is never evicted while it
        # is the only one — the caller holds it — but the overshoot is
        # visible in peak_bytes.
        cache = PlanCache(max_bytes=100)
        cache.get_or_build("big", lambda: _Sized(500))
        assert "big" in cache
        assert cache.stats.peak_bytes == 500

    def test_limit_bytes_tightens_never_loosens(self):
        cache = PlanCache(max_bytes=400)
        cache.get_or_build("a", lambda: _Sized(100))
        cache.get_or_build("b", lambda: _Sized(100))
        cache.limit_bytes(150)            # tightens: evicts down to 'b'
        assert cache.max_bytes == 150
        assert "a" not in cache and "b" in cache
        cache.limit_bytes(1000)           # looser bound is ignored
        assert cache.max_bytes == 150

    def test_limit_bytes_accepts_suffixed_strings(self):
        cache = PlanCache()
        cache.limit_bytes("64K")
        assert cache.max_bytes == 64 * 1024
        assert PlanCache(max_bytes="1M").max_bytes == 1 << 20

    def test_clear_resets_bytes_keeps_peak(self):
        cache = PlanCache(max_bytes=400)
        cache.get_or_build("a", lambda: _Sized(300))
        cache.clear()
        stats = cache.stats
        assert stats.bytes == 0 and stats.peak_bytes == 300

    def test_gauges_export_via_prometheus(self):
        from repro.observability import MetricsRegistry
        from repro.observability.export import render_prometheus

        metrics = MetricsRegistry()
        cache = PlanCache(metrics=metrics, max_bytes=250)
        cache.get_or_build("a", lambda: _Sized(100), size_hint=100)
        cache.get_or_build("b", lambda: _Sized(100), size_hint=100)
        cache.get_or_build("c", lambda: _Sized(100), size_hint=100)
        text = render_prometheus(metrics)
        assert "plan_cache_bytes 200" in text
        assert "plan_cache_peak_bytes 200" in text
        assert "plan_cache_evictions_total 1" in text


#: A quarter of the tiny system's untiled plan (the conformance matrix's).
TILE_BUDGET = plan_storage_bytes(8 * 8 * 16, 64, "float64") // 4

HELD_SCHEMES = {"focused": None, "planewave": {"n_angles": 3}}


class TestHeldTilesRunFirst:
    """A budgeted engine runs the tiles its cache still holds first, so a
    call hits every tile the previous call left resident instead of
    evicting it before its turn (the cyclic scan that defeats LRU)."""

    @staticmethod
    def _session(scheme, budget):
        return Session(EngineSpec(system="tiny", backend="vectorized",
                                  architecture="tablesteer", scheme=scheme,
                                  scheme_options=HELD_SCHEMES[scheme],
                                  memory_budget_bytes=budget, trace=True))

    @staticmethod
    def _batch(session):
        return [tuple(session.acquire_firings(request.phantom))
                for request in ScanSpec(scenario="static_point", frames=2)
                .build_frames(session.system)]

    @staticmethod
    def _resident(backends) -> list[int]:
        """Indices of the tiles whose entry the cache holds (a peek)."""
        (backend, *_) = backends
        return [tile.index for tile in backend.planner.tiles()
                if backend._entry_key(backends, tile) in backend.cache]

    @staticmethod
    def _digests(results) -> list[str]:
        return [hashlib.sha256(result.rf.tobytes()).hexdigest()
                for result in results]

    def _call(self, session, service, batch):
        """One batch: the tiles held before it, its run order, the tiles
        it compiled, and its volumes' digests."""
        held = self._resident(service.engine.backends)
        session.tracer.reset()
        digests = self._digests(service.submit_batch(batch))
        (execute,) = session.tracer.find("execute")
        order = [tile.attributes["index"] for tile in execute.find("tile")]
        compiled = [span.attributes["tile"]
                    for span in session.tracer.find("compile")]
        return held, order, compiled, digests

    @pytest.mark.parametrize("divisor", [1, 2],
                             ids=["TILE_BUDGET", "half"])
    @pytest.mark.parametrize("scheme", list(HELD_SCHEMES))
    def test_held_tiles_run_first(self, scheme, divisor):
        budget = TILE_BUDGET // divisor
        session = self._session(scheme, budget)
        batch = self._batch(session)
        oracle = self._digests(
            self._session(scheme, None).service().submit_batch(batch))
        service = session.service()
        n_tiles = service.engine.backends[0].planner.n_tiles
        for call in range(3):
            held, order, compiled, digests = self._call(session, service,
                                                        batch)
            if call == 0:
                assert held == [] and compiled == list(range(n_tiles))
            else:
                assert 0 < len(held) < n_tiles
                assert compiled == [index for index in range(n_tiles)
                                    if index not in held]
                assert order == held + compiled
            assert digests == oracle
            stats = session.cache.stats
            assert 0 < stats.peak_bytes <= budget == stats.max_bytes
        session.close()

    @pytest.mark.parametrize("scheme", list(HELD_SCHEMES))
    def test_a_second_service_hits_the_tiles_the_first_left(self, scheme):
        session = self._session(scheme, TILE_BUDGET)
        batch = self._batch(session)
        first, second = session.service(), session.service()
        _, _, _, oracle = self._call(session, first, batch)
        hits = session.cache.stats.hits
        held, order, compiled, digests = self._call(session, second, batch)
        assert 0 < len(held) < len(order)
        assert order[:len(held)] == held
        assert len(compiled) == len(order) - len(held)
        assert session.cache.stats.hits - hits == len(held)
        assert digests == oracle
        session.close()

    def test_several_held_tiles_run_in_index_order(self, beamformers,
                                                   tiny_channel_data):
        """A cache with room for two tiles: each later call runs the two
        it holds first, in index order, then compiles the rest."""
        beamformer = beamformers["tablesteer"]
        planner = TilePlanner.for_beamformer(beamformer, TILE_BUDGET // 2)
        tracer = Tracer()
        backend = VectorizedBackend(beamformer, planner, PlanCache(
            capacity=planner.n_tiles,
            max_bytes=2 * planner.memory_budget_bytes), tracer=tracer)
        oracle = BACKENDS.create("vectorized", beamformer, None, None) \
            .beamform_volume(tiny_channel_data)
        n_tiles, order = planner.n_tiles, []
        for call in range(3):
            held = self._resident([backend])
            assert held == sorted(order[-2:])
            before = backend.cache.stats
            tracer.reset()
            volume = backend.beamform_volume(tiny_channel_data)
            after = backend.cache.stats
            order = [tile.attributes["index"] for tile in tracer.find("tile")]
            assert order == held + [index for index in range(n_tiles)
                                    if index not in held]
            assert after.hits - before.hits == len(held)
            assert after.misses - before.misses == n_tiles - len(held)
            assert volume.tobytes() == oracle.tobytes()
        assert len(held) == 2 < n_tiles
