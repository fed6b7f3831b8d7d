"""Benchmark E11: streaming runtime throughput across backends x dtypes.

The software counterpart of the E9 hardware throughput rows: an 8-frame
cine sequence is streamed through the ``reference`` and ``vectorized``
backends (plus ``compiled`` on numba hosts) under both kernel
precisions, per-frame and batched.  A compile row times one budgeted
``small`` segment per delay architecture: the regime where segments are
regenerated on every batch.  Another times a 3-firing planewave group's
whole-grid plans compiled in one pass beside the per-firing loop, and a
``32M``-budgeted planewave stream row times the compounding regime whose
firings do not compile as a group.
The compiled-plan backends amortise delay generation through the
:class:`PlanCache`, so — like the paper's table-streaming architecture —
they must beat the regenerate-per-scanline reference path; and the fast
path of the kernel layer (``float32`` + batched execution) must beat the
exact ``float64`` per-frame path on the same backend.

Wall-clock *orderings* are inherently noisy on loaded CI runners, so the
speed assertions only fire when ``REPRO_BENCH_STRICT`` is set (any value
but ``0``/empty) — e.g. locally, or on a dedicated perf runner.
Correctness-side assertions (cache hit/miss bookkeeping, shapes, result
counts) always run; an unset flag merely reports the measured figures.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.acoustics.echo import EchoSimulator
from repro.acoustics.phantom import point_target
from repro.api import EngineSpec, ScanSpec
from repro.architectures import ARCHITECTURES
from repro.beamformer.das import DelayAndSumBeamformer
from repro.config import small_system, tiny_system
from repro.experiments import e11_runtime_throughput
from repro.kernels import TilePlanner, compile_plan, compile_plans
from repro.runtime import BeamformingService, PlanCache, static_cine
from repro.scenarios import SchemeEngine, acquire_firings, resolve_scheme

BENCH_STRICT = os.environ.get("REPRO_BENCH_STRICT", "") not in ("", "0")
"""Whether timing-ordering assertions are enforced (see module docstring)."""


def service_for(system, **fields) -> BeamformingService:
    """A service on a fresh plan cache, built from
    ``EngineSpec(system=system, **fields)``."""
    return BeamformingService(EngineSpec(system=system, **fields)
                              .build_engine(cache=PlanCache()))


def assert_faster(fast: float, slow: float, message: str) -> None:
    """Assert a throughput ordering — only under ``REPRO_BENCH_STRICT``.

    Without the flag the comparison still runs (so a report line can show
    the ratio) but a violation does not fail the suite: on an oversubscribed
    CI runner the ordering is a property of the neighbours, not the code.
    """
    if BENCH_STRICT:
        assert fast > slow, message


@pytest.fixture(scope="module")
def result():
    return e11_runtime_throughput.run(tiny_system(), architecture="tablefree",
                                      n_frames=8, batch=4)


def test_bench_runtime_backends(result, report):
    rows = result["backends"]
    report(
        "E11 (runtime): streaming backend x dtype throughput "
        f"(system '{result['system']}', {result['n_frames']} frames, "
        f"architecture {result['architecture']}, batch={result['batch']})",
        *(f"  {backend:<10s} {precision:<8s} "
          f"{row['frames_per_second']:8.2f} frames/s   "
          f"batched {row['batched_frames_per_second']:8.2f}   "
          f"{row['voxels_per_second']:.3e} voxels/s   "
          f"{row['speedup_vs_reference']:.2f}x vs reference   "
          f"cache {row['cache_hits']}h/{row['cache_misses']}m"
          for backend, by_precision in rows.items()
          for precision, row in by_precision.items()),
    )
    # The whole point of the compiled-plan runtime: precompiled (cached)
    # plans beat per-scanline regeneration (timing — strict mode only).
    assert_faster(rows["vectorized"]["float64"]["frames_per_second"],
                  rows["reference"]["float64"]["frames_per_second"],
                  "vectorized must beat the reference baseline")
    # Repeated frames are served from the cache, not recompiled — this is
    # correctness of the cache bookkeeping, asserted unconditionally.
    assert rows["vectorized"]["float64"]["cache_misses"] == 1
    assert rows["vectorized"]["float64"]["cache_hits"] == \
        result["n_frames"] - 1


def test_bench_float32_batched_beats_float64_per_frame(report):
    """The kernel layer's fast path must outrun its exact per-frame path.

    Measured on the ``small`` system (16k points x 256 elements), where the
    per-frame gather's working set falls out of the CPU caches: the batched
    float32 path chunks the gather over point blocks and moves half the
    bytes, so it must win.  Plans are compiled (cache-warmed) before timing
    so this isolates steady-state kernel throughput.
    """
    from repro.config import small_system

    system = small_system()
    grid_mid_depth = system.volume.depth_min + 0.5 * system.volume.depth_span
    data = EchoSimulator.from_config(system).simulate(
        point_target(depth=grid_mid_depth))
    cine = static_cine(data, 8)

    def best_fps(precision: str, batch_size: int) -> float:
        """Best of three runs — insulates the ordering assert from noise."""
        service = service_for(system, architecture="tablefree",
                              backend="vectorized",
                              precision=precision)
        service.submit_frame(data)   # compile the plan outside the clock
        best = 0.0
        for _ in range(3):
            service.reset_stats()
            service.stream_all(cine, batch_size=batch_size)
            best = max(best, service.stats().frames_per_second)
        return best

    exact = best_fps("float64", batch_size=1)
    fast = best_fps("float32", batch_size=8)

    report(f"E11 (runtime): small-system vectorized float32 batched "
           f"{fast:8.2f} frames/s vs float64 per-frame {exact:8.2f} frames/s "
           f"({fast / exact:.2f}x)"
           + ("" if BENCH_STRICT else "   [REPRO_BENCH_STRICT unset: "
              "ordering reported, not asserted]"))
    assert_faster(fast, exact,
                  "float32 batched must beat float64 per-frame on 'small'")


def test_bench_compiled_beats_vectorized(report):
    """The fused numba backend must beat the NumPy vectorized path.

    Measured on the ``small`` system (16k points x 256 elements) with
    warmed plans (JIT cost excluded — it is compile time, amortised by the
    PlanCache).  The fused kernel does no ``(n_points, n_elements)``
    temporaries and parallelises over voxel blocks, so the win should be
    large: >= 10x is asserted under ``REPRO_BENCH_STRICT`` (dedicated perf
    runner), and a loose >= 2x sanity bound always — if fusion plus
    threading cannot double NumPy's throughput, the backend is
    misconfigured, not merely on a noisy neighbour.
    """
    pytest.importorskip("numba")
    from repro.config import small_system

    system = small_system()
    grid_mid_depth = system.volume.depth_min + 0.5 * system.volume.depth_span
    data = EchoSimulator.from_config(system).simulate(
        point_target(depth=grid_mid_depth))
    cine = static_cine(data, 8)

    def best_fps(backend: str, batch_size: int) -> float:
        service = service_for(system, architecture="tablefree",
                              backend=backend)
        service.submit_frame(data)   # plan compile + JIT outside the clock
        best = 0.0
        for _ in range(3):
            service.reset_stats()
            service.stream_all(cine, batch_size=batch_size)
            best = max(best, service.stats().frames_per_second)
        return best

    per_frame = {b: best_fps(b, batch_size=1)
                 for b in ("vectorized", "compiled")}
    batched = {b: best_fps(b, batch_size=8)
               for b in ("vectorized", "compiled")}
    report(f"E11 (runtime): small-system compiled vs vectorized — "
           f"per-frame {per_frame['compiled']:8.2f} vs "
           f"{per_frame['vectorized']:8.2f} frames/s "
           f"({per_frame['compiled'] / per_frame['vectorized']:.2f}x), "
           f"batched {batched['compiled']:8.2f} vs "
           f"{batched['vectorized']:8.2f} frames/s "
           f"({batched['compiled'] / batched['vectorized']:.2f}x)"
           + ("" if BENCH_STRICT else "   [REPRO_BENCH_STRICT unset: "
              "10x bound reported, not asserted]"))
    # Unconditional sanity bound: fused + threaded must at least double
    # the NumPy path even on a loaded runner.
    assert per_frame["compiled"] >= 2 * per_frame["vectorized"], \
        "compiled must be >= 2x vectorized per-frame on 'small'"
    assert batched["compiled"] >= 2 * batched["vectorized"], \
        "compiled must be >= 2x vectorized batched on 'small'"
    if BENCH_STRICT:
        assert per_frame["compiled"] >= 10 * per_frame["vectorized"], \
            "compiled must be >= 10x vectorized per-frame on 'small'"
        assert batched["compiled"] >= 10 * batched["vectorized"], \
            "compiled must be >= 10x vectorized batched on 'small'"


def test_bench_compiled_frame(benchmark):
    """Micro-benchmark: one cached-plan fused frame (steady state)."""
    pytest.importorskip("numba")
    system = tiny_system()
    service = service_for(system, architecture="tablefree",
                          backend="compiled")
    grid_mid_depth = system.volume.depth_min + 0.5 * system.volume.depth_span
    data = EchoSimulator.from_config(system).simulate(
        point_target(depth=grid_mid_depth))
    service.submit_frame(data)  # warm the plan cache (includes JIT)
    result = benchmark(lambda: service.submit_frame(data))
    assert result.rf.shape == (system.volume.n_theta, system.volume.n_phi,
                               system.volume.n_depth)


def test_bench_vectorized_frame(benchmark):
    """Micro-benchmark: one cached-plan vectorized frame (steady state)."""
    system = tiny_system()
    service = service_for(system, architecture="tablefree",
                          backend="vectorized")
    grid_mid_depth = system.volume.depth_min + 0.5 * system.volume.depth_span
    data = EchoSimulator.from_config(system).simulate(
        point_target(depth=grid_mid_depth))
    service.submit_frame(data)  # warm the plan cache
    result = benchmark(lambda: service.submit_frame(data))
    assert result.rf.shape == (system.volume.n_theta, system.volume.n_phi,
                               system.volume.n_depth)


def test_bench_batched_float32_cine(benchmark):
    """Throughput of an 8-frame static cine on the fast kernel path."""
    system = tiny_system()
    service = service_for(system, architecture="tablefree",
                          backend="vectorized", precision="float32")
    grid_mid_depth = system.volume.depth_min + 0.5 * system.volume.depth_span
    data = EchoSimulator.from_config(system).simulate(
        point_target(depth=grid_mid_depth))
    service.submit_frame(data)  # warm the plan cache

    results = benchmark(lambda: service.stream_all(static_cine(data, 8),
                                                   batch_size=8))
    assert len(results) == 8


def test_bench_streamed_cine(benchmark):
    """Throughput of an 8-frame static cine submitted frame by frame."""
    system = tiny_system()
    service = service_for(system, architecture="tablefree",
                          backend="vectorized")
    grid_mid_depth = system.volume.depth_min + 0.5 * system.volume.depth_span
    data = EchoSimulator.from_config(system).simulate(
        point_target(depth=grid_mid_depth))
    service.submit_frame(data)  # warm the plan cache

    results = benchmark(lambda: service.stream_all(static_cine(data, 8)))
    assert len(results) == 8


@pytest.mark.parametrize("architecture", ["exact", "tablefree",
                                          "tablesteer", "tablesteer_float"])
def test_bench_compile_budgeted_segment(benchmark, architecture):
    """Compile layer per architecture: the first segment of a ``32M``-
    budgeted ``small`` engine (the nearest-sample CSR plan, compiled leaf by
    leaf), as a budgeted stream recompiles it on every batch.  Fixed-point
    ``tablesteer`` rounds each slab in its integer datapath;
    ``tablesteer_float`` keeps the float round of the other providers, so
    both paths stay measured.  The shared weights are built before timing,
    as a running engine holds them."""
    system = small_system()
    beamformer = DelayAndSumBeamformer(
        system, ARCHITECTURES.create(architecture, system))
    tile = next(iter(TilePlanner.for_beamformer(beamformer, "32M").tiles()))
    compile_plan(beamformer, tile=tile)
    plan = benchmark(compile_plan, beamformer, tile=tile)
    assert plan.matrix is not None
    assert plan.n_points == tile.n_points < system.volume.focal_point_count


@pytest.mark.parametrize("architecture", ["exact", "tablefree",
                                          "tablesteer"])
def test_bench_compile_firing_group(benchmark, report, architecture):
    """Compile layer of a firing group: the whole-grid plans of a 3-angle
    planewave ``small`` engine in one :func:`compile_plans` pass (each base
    slab generated once), beside the per-firing :func:`compile_plan` loop
    (best of three).  The shared weights are built before timing."""
    system = small_system()
    beamformer = DelayAndSumBeamformer(
        system, ARCHITECTURES.create(architecture, system))
    scheme = resolve_scheme(system, "planewave", {"n_angles": 3})
    firings = [backend.beamformer
               for backend in SchemeEngine(beamformer, scheme).backends]
    compile_plan(firings[0])
    loop = []
    for _ in range(3):
        start = time.perf_counter()
        alone = [compile_plan(firing) for firing in firings]
        loop.append(time.perf_counter() - start)
    grouped = []

    def timed():
        start = time.perf_counter()
        plans = compile_plans(firings)
        grouped.append(time.perf_counter() - start)
        return plans

    plans = benchmark.pedantic(timed, rounds=3, iterations=1)
    report(f"firing group compile ({architecture}, small, 3 firings): "
           f"grouped {min(grouped) * 1e3:.0f} ms vs per firing "
           f"{min(loop) * 1e3:.0f} ms"
           + ("" if BENCH_STRICT else "   [REPRO_BENCH_STRICT unset: "
              "ordering reported, not asserted]"))
    assert [plan.key for plan in plans] == [plan.key for plan in alone]
    assert_faster(1 / min(grouped), 1 / min(loop),
                  "a firing group must compile faster than its firings "
                  "one by one")


def test_bench_budgeted_planewave_stream(benchmark, report):
    """A ``32M``-budgeted 3-angle planewave stream on ``small``, batches of
    4 pre-recorded frames: tiles are sized so that a tile's three segments,
    one per firing, fit the budget together.  The first batch compiles
    each tile group once — one cache miss per tile group — and each later
    batch every group but those the cache still holds, which run first;
    never over budget."""
    system = small_system()
    service = service_for(system, architecture="tablesteer",
                          backend="vectorized", scheme="planewave",
                          scheme_options={"n_angles": 3},
                          memory_budget_bytes="32M")
    simulator = EchoSimulator.from_config(system)
    grid_mid_depth = system.volume.depth_min + 0.5 * system.volume.depth_span
    batch = [tuple(acquire_firings(simulator, service.scheme,
                                   point_target(depth=grid_mid_depth)))] * 4
    service.submit_batch(batch)
    groups = service.stats().cache.misses
    assert groups == service.engine.backends[0].planner.n_tiles > 1
    start = time.perf_counter()
    results = benchmark.pedantic(service.submit_batch, args=(batch,),
                                 rounds=3, iterations=1)
    seconds = (time.perf_counter() - start) / 3
    report(f"32M planewave stream (tablesteer, small, 3 firings x "
           f"{groups} tile groups): {4 / seconds:.2f} volumes/s")
    assert len(results) == 4
    stats = service.stats().cache
    resident = stats.size
    assert 0 < resident < groups
    assert stats.misses == groups + 3 * (groups - resident)
    assert stats.peak_bytes <= stats.max_bytes == 32 << 20


@pytest.mark.parametrize("scheme_name", ["focused", "planewave"])
def test_bench_acquire_firings(benchmark, report, scheme_name):
    """Echo simulation layer: one noisy ``small`` cyst acquisition, as the
    design-space sweep acquires it, under the focused scheme and a
    3-angle plane wave.  The scheme's firings share one element-major pass
    over the phantom; the plane wave is reported beside its firings
    simulated one by one (best of three), which it must beat."""
    system = small_system()
    simulator = EchoSimulator.from_config(system)
    scheme = resolve_scheme(system, scheme_name, {"n_angles": 3}
                            if scheme_name == "planewave" else None)
    phantom = ScanSpec(scenario="cyst", frames=1).build_frames(system)[0] \
        .phantom
    seeds = [0] + [(0, index) for index in range(1, scheme.firing_count)]
    loop = []
    for _ in range(3):
        start = time.perf_counter()
        alone = [simulator.simulate_event(phantom, event, 0.01, seed)
                 for event, seed in zip(scheme.events, seeds)]
        loop.append(time.perf_counter() - start)
    shared = []

    def timed():
        start = time.perf_counter()
        firings = acquire_firings(simulator, scheme, phantom,
                                  noise_std=0.01, seed=0)
        shared.append(time.perf_counter() - start)
        return firings

    firings = benchmark.pedantic(timed, rounds=3, iterations=1)
    report(f"echo simulation ({scheme_name}, small cyst, "
           f"{scheme.firing_count} firings): shared pass "
           f"{min(shared) * 1e3:.0f} ms vs per firing "
           f"{min(loop) * 1e3:.0f} ms"
           + ("" if BENCH_STRICT else "   [REPRO_BENCH_STRICT unset: "
              "ordering reported, not asserted]"))
    assert len(firings) == scheme.firing_count
    for data, expected in zip(firings, alone, strict=True):
        assert np.array_equal(data.samples, expected.samples)
    if scheme.firing_count > 1:
        assert_faster(1 / min(shared), 1 / min(loop),
                      "a scheme's firings must simulate faster in one "
                      "shared pass than one by one")
