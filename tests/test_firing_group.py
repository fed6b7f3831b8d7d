"""A transmit scheme's firings compile as one group.

Pins what :func:`repro.kernels.compile_plans` and the firing group of a
scheme engine's backends promise:

* every plan of a group is bit for bit (and keyed exactly as) the plan
  :func:`compile_plan` builds for its firing alone, over the same shared
  weight tensor — exact, TABLEFREE and TABLESTEER; float64 and float32
  nearest, linear and 18-bit quantized; whole grid and a tile that cuts
  scanlines; planewave, diverging and synthetic aperture;
* the shared base provider is asked for each slab once for the whole
  group, not once per firing;
* a scheme engine runs tile-major: a tile's F plans are one cache entry,
  looked up once (one miss per tile group, not one per plan), compiled
  under one ``compile`` span with ``firings=F``, made room for before the
  build, and weighing F under the count bound — budgeted or not.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.api import EngineSpec, ScanSpec, Session
from repro.architectures import ARCHITECTURES
from repro.beamformer.das import DelayAndSumBeamformer
from repro.beamformer.interpolation import InterpolationKind
from repro.kernels import (
    QuantizationSpec,
    TilePlanner,
    compile_plan,
    compile_plans,
    plan_storage_bytes,
)
from repro.kernels.ops import LeafLayout
from repro.kernels.plan import _RUN_ENTRIES, _blocks, _runs, leaf_ordered
from repro.runtime import backends
from repro.runtime.cache import PlanCache
from repro.scenarios import SchemeEngine, resolve_scheme

SCHEMES = {"planewave": {"n_angles": 3}, "diverging": None,
           "synthetic_aperture": {"every": 16}}

DATAPATHS = {
    "float64": ("float64", InterpolationKind.NEAREST, None),
    "float32": ("float32", InterpolationKind.NEAREST, None),
    "linear": ("float64", InterpolationKind.LINEAR, None),
    "q18": ("float64", InterpolationKind.NEAREST,
            QuantizationSpec.from_total_bits(18)),
}


class _Counting:
    """A delay provider that counts its bulk ``tile_delays_samples`` calls
    and otherwise is the provider it wraps."""

    def __init__(self, provider) -> None:
        self.provider = provider
        self.calls = 0

    def tile_delays_samples(self, *args):
        self.calls += 1
        return self.provider.tile_delays_samples(*args)

    def __getattr__(self, name):
        return getattr(self.provider, name)


def _firings(system, architecture, datapath, scheme):
    """The counting base provider and the scheme's per-firing
    beamformers over it."""
    precision, interpolation, quantization = DATAPATHS[datapath]
    base = _Counting(ARCHITECTURES.create(architecture, system))
    beamformer = DelayAndSumBeamformer(
        system, base, interpolation=interpolation, precision=precision,
        quantization=quantization)
    engine = SchemeEngine(beamformer,
                          resolve_scheme(system, scheme, SCHEMES[scheme]))
    return base, [backend.beamformer for backend in engine.backends]


def _slab_calls(beamformer, tile, variant=None) -> int:
    """Base slabs one firing's compile asks for: runs x leaves (CSR) or
    point blocks (natural)."""
    n_points = beamformer.grid.point_count
    start, stop = (0, n_points) if tile is None else (tile.start, tile.stop)
    n_elements = beamformer.transducer.element_count
    if not leaf_ordered(beamformer.interpolation, beamformer.quantization,
                         variant):
        return len(list(_blocks(start, stop, n_elements)))
    layout = LeafLayout.of(n_elements)
    n_depth = beamformer.grid.shape[-1]
    step = n_depth * max(1, _RUN_ENTRIES
                         // (layout.stored_leaves[0].size * n_depth))
    return len(list(_runs(start, stop, step))) * layout.n_leaves


def _cutting_tile(beamformer):
    """A :class:`TilePlanner` tile whose ends cut scanlines."""
    planner = TilePlanner.for_beamformer(
        beamformer, plan_storage_bytes(
            21, beamformer.transducer.element_count,
            beamformer.precision, beamformer.interpolation,
            quantization=beamformer.quantization),
        precision=beamformer.precision, granularity=7)
    tile = planner.tile(1)
    n_depth = beamformer.grid.shape[-1]
    assert tile.start % n_depth and tile.stop % n_depth
    return tile


@pytest.mark.parametrize("scheme", list(SCHEMES))
@pytest.mark.parametrize("datapath", list(DATAPATHS))
@pytest.mark.parametrize("architecture", ["exact", "tablefree",
                                          "tablesteer"])
@pytest.mark.parametrize("whole", [True, False], ids=["grid", "tile"])
def test_group_plans_are_the_plans_compiled_alone(tiny, architecture,
                                                  datapath, scheme, whole):
    base, beamformers = _firings(tiny, architecture, datapath, scheme)
    assert len(beamformers) > 1
    precision = DATAPATHS[datapath][0]
    tile = None if whole else _cutting_tile(beamformers[0])
    alone = [compile_plan(beamformer, precision, tile=tile)
             for beamformer in beamformers]
    slabs = _slab_calls(beamformers[0], tile)
    assert base.calls == len(beamformers) * slabs
    base.calls = 0
    group = compile_plans(beamformers, precision, tile=tile)
    assert base.calls == slabs
    assert len(group) == len(alone)
    for one, grouped in zip(alone, group):
        assert grouped.key == one.key
        assert grouped.grid_shape == one.grid_shape
        assert grouped.stored_weights is group[0].stored_weights
        assert grouped.stored_weights is one.stored_weights
        for name in ("flat", "upper", "fraction"):
            expected = getattr(one.stored_index, name)
            stored = getattr(grouped.stored_index, name)
            if expected is None:
                assert stored is None
            else:
                assert np.array_equal(stored, expected)
                assert stored.dtype == expected.dtype


@pytest.mark.parametrize("datapath", ["float64", "float32", "linear"])
@pytest.mark.parametrize("architecture", ["exact", "tablefree",
                                          "tablesteer"])
@pytest.mark.parametrize("whole", [True, False], ids=["grid", "tile"])
def test_compiled_group_plans_are_the_plans_compiled_alone(
        tiny, architecture, datapath, whole):
    """The ``compiled`` variant's natural-order tensors group alike."""
    pytest.importorskip("numba")

    base, beamformers = _firings(tiny, architecture, datapath, "planewave")
    precision = DATAPATHS[datapath][0]
    tile = None if whole else _cutting_tile(beamformers[0])
    alone = [compile_plan(beamformer, precision, variant="compiled",
                          tile=tile)
             for beamformer in beamformers]
    base.calls = 0
    group = compile_plans(beamformers, precision, variant="compiled",
                          tile=tile)
    assert base.calls == _slab_calls(beamformers[0], tile, "compiled")
    for one, grouped in zip(alone, group):
        assert type(grouped) is type(one) and grouped.key == one.key
        assert grouped.stored_weights is one.stored_weights
        assert np.array_equal(grouped.stored_index.flat,
                              one.stored_index.flat)


def test_a_compiled_group_is_refused_before_it_compiles(tiny, monkeypatch):
    """A quantized group, or any group without numba, is refused before a
    single base slab is generated."""
    from repro.kernels import BackendUnavailable, compiled

    quantized_base, quantized = _firings(tiny, "exact", "q18", "planewave")
    with pytest.raises(ValueError, match="does not support quantized"):
        compile_plans(quantized, variant="compiled")
    monkeypatch.setattr(compiled, "NUMBA_AVAILABLE", False)
    base, beamformers = _firings(tiny, "exact", "float64", "planewave")
    with pytest.raises(BackendUnavailable):
        compile_plans(beamformers, variant="compiled")
    with pytest.raises(ValueError, match="unknown plan variant"):
        compile_plans(beamformers, variant="gpu")
    assert quantized_base.calls == base.calls == 0


def test_a_group_shares_one_geometry(tiny):
    """Beamformers that differ in more than their delay providers cannot
    share one pass."""
    _, (event, *_) = _firings(tiny, "exact", "float64", "planewave")
    linear = DelayAndSumBeamformer(tiny, event.delays,
                                   interpolation=InterpolationKind.LINEAR)
    with pytest.raises(ValueError, match="differ only in their delay"):
        compile_plans([event, linear])


def _engines_on(cache, tiny, architectures):
    scheme = resolve_scheme(tiny, "planewave", SCHEMES["planewave"])
    return [SchemeEngine(DelayAndSumBeamformer(
        tiny, ARCHITECTURES.create(architecture, tiny)), scheme,
        cache=cache) for architecture in architectures]


def _run_two_groups(tiny, frame, cache):
    """Two planewave groups on ``cache``, each beamforming one frame twice
    over, alternately; their volumes."""
    engines = _engines_on(cache, tiny, ("exact", "tablesteer"))
    firings = [frame] * 3
    return [engine.beamform_volume(firings)
            for _ in range(2) for engine in engines]


def test_a_group_evicts_before_it_builds(tiny, tiny_channel_data,
                                         monkeypatch):
    """On a count-bounded cache smaller than one group, each group's
    build first evicts the other group's entry (3 plans weigh 3 slots),
    so the cache never holds more than one group; each build is one miss
    and one eviction, and the volumes are each engine's own."""
    cache, seen = PlanCache(capacity=1), []

    def recording(beamformers, *args, **kwargs):
        seen.append(len(cache))
        return compile_plans(beamformers, *args, **kwargs)

    monkeypatch.setattr(backends, "compile_plans", recording)
    volumes = _run_two_groups(tiny, tiny_channel_data, cache)
    stats = cache.stats
    assert seen == [0, 0, 0, 0]
    assert stats.size == 1 and stats.peak_bytes == stats.bytes
    assert (stats.misses, stats.hits, stats.evictions) == (4, 0, 3)
    firings = [tiny_channel_data] * 3
    alone = [engine.beamform_volume(firings) for engine in _engines_on(
        PlanCache(), tiny, ("exact", "tablesteer"))] * 2
    for volume, expected in zip(volumes, alone):
        assert volume.tobytes() == expected.tobytes()


def _compile_spans(tiny_channel_data, reopened):
    """Two planewave frames on a traced ``tiny`` service, after a frame
    and ``cache.clear()`` when ``reopened``: the ``compile`` spans and the
    cache counters."""
    session = Session(EngineSpec(system="tiny", backend="vectorized",
                                 scheme="planewave",
                                 scheme_options=SCHEMES["planewave"],
                                 trace=True))
    service = session.service()
    frame = tuple([tiny_channel_data] * 3)
    if reopened:
        service.submit_frame(frame)
        session.cache.clear()
    for _ in range(2):
        service.submit_frame(frame)
    return session.tracer.find("compile"), session.cache.stats


def test_an_engine_compiles_its_firings_once(tiny, tiny_channel_data):
    """One ``compile`` span builds every firing's plan (its bytes summed)
    into one cache entry: one miss, then one hit per frame."""
    (span,), stats = _compile_spans(tiny_channel_data, reopened=False)
    assert (stats.misses, stats.hits, stats.evictions) == (1, 1, 0)
    assert stats.size == 1
    assert span.attributes["firings"] == 3
    assert span.attributes["bytes"] == stats.bytes


def test_a_closed_engine_on_a_cleared_cache_compiles_its_firings_once(
        tiny, tiny_channel_data):
    """A service whose cache was cleared still compiles its firings as
    one group: one more ``compile`` span, one more miss."""
    spans, stats = _compile_spans(tiny_channel_data, reopened=True)
    assert [span.attributes["firings"] for span in spans] == [3, 3]
    assert (stats.misses, stats.hits, stats.evictions) == (2, 1, 0)
    assert spans[-1].attributes["bytes"] == stats.bytes


#: A quarter of the tiny system's untiled plan (the conformance matrix's).
TILE_BUDGET = plan_storage_bytes(8 * 8 * 16, 64, "float64") // 4


def _stream(system, budget, frames, batch_size):
    """A traced 3-angle planewave stream: its session and volumes."""
    session = Session(EngineSpec(system=system, backend="vectorized",
                                 architecture="tablesteer",
                                 scheme="planewave",
                                 scheme_options=SCHEMES["planewave"],
                                 memory_budget_bytes=budget, trace=True))
    results = session.stream(ScanSpec(scenario="static_point",
                                      frames=frames), batch_size=batch_size)
    return session, [result.rf for result in results]


@pytest.mark.parametrize("system, budget, frames, batch_size",
                         [("tiny", TILE_BUDGET, 4, 2),
                          ("small", "32M", 2, 2)],
                         ids=["tiny-TILE_BUDGET", "small-32M"])
def test_a_budgeted_batch_compiles_each_tile_group_once(system, budget,
                                                        frames, batch_size):
    """Under a budget that tiles the grid, a batch compiles each tile's
    three firings at most once, under one ``compile`` span with
    ``firings=3`` — one miss per tile group.  The first batch compiles
    every tile; each later one runs the ``r`` tiles the cache still holds
    first and compiles the rest, in index order.  The cache's peak stays
    within the budget; the volumes are the unbudgeted stream's, bit for
    bit."""
    session, volumes = _stream(system, budget, frames, batch_size)
    (backend, *_) = session.service().engine.backends
    n_tiles, batches = backend.planner.n_tiles, frames // batch_size
    assert n_tiles > 1
    stats = session.cache.stats
    resident = stats.size
    assert 0 < resident < n_tiles
    spans = session.tracer.find("compile")
    compiles = n_tiles + (batches - 1) * (n_tiles - resident)
    assert [span.attributes["firings"] for span in spans] == [3] * compiles
    expected, held = [], []
    for execute in session.tracer.find("execute"):
        missed = sorted(set(range(n_tiles)) - set(held))
        expected += missed
        held = ([tile.attributes["index"] for tile in execute.find("tile")]
                [-resident:])
    assert [span.attributes["tile"] for span in spans] == expected
    assert (stats.misses, stats.hits) \
        == (compiles, (batches - 1) * resident)
    assert 0 < stats.peak_bytes <= stats.max_bytes \
        == session.spec.memory_budget_bytes
    _, expected = _stream(system, None, frames, batch_size)
    for volume, oracle in zip(volumes, expected):
        assert volume.tobytes() == oracle.tobytes()


def test_groups_on_a_shared_cache_under_thread_contention(
        tiny, tiny_channel_data, monkeypatch):
    """Engines on more threads than cores share one cache, as server
    sessions do, with a shortened switch interval: every volume is the
    serial one, every group is built once, and each lookup counts exactly
    one hit or miss."""
    firings = [tiny_channel_data] * 3
    oracle = {architecture: engine.beamform_volume(firings)
              for architecture, engine in zip(
                  ("exact", "tablesteer"),
                  _engines_on(PlanCache(), tiny, ("exact", "tablesteer")))}
    built = []

    def counting(beamformers, *args, **kwargs):
        built.extend(beamformers)
        return compile_plans(beamformers, *args, **kwargs)

    monkeypatch.setattr(backends, "compile_plans", counting)
    cache = PlanCache(capacity=8)
    architectures = ["exact", "tablesteer"] * 3
    engines = _engines_on(cache, tiny, architectures)
    volumes: dict[int, list] = {}

    def run(index: int) -> None:
        volumes[index] = [engines[index].beamform_volume(firings)
                          for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(index,))
                   for index in range(len(engines))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for index, architecture in enumerate(architectures):
        for volume in volumes[index]:
            assert volume.tobytes() == oracle[architecture].tobytes()
    stats = cache.stats
    assert len(built) == 2 * 3 and stats.misses == 2
    assert stats.hits + stats.misses == len(engines) * 3
    assert stats.evictions == 0
