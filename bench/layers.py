"""Per-layer metrics: a decomposed, traced re-execution of each workload.

The benchmark opens its own :class:`repro.observability.Tracer` spans
around direct calls into each layer's public functions —
``ARCHITECTURES.create`` and ``volume_delays_samples`` (``core``);
``compile_plan``, the plans' own ``execute``/``execute_batch`` and, split
out, ``gather_interp``/``apply_weights``/``accumulate`` (``kernels``);
``acquire_cell_inputs``, ``score_volume`` and ``SweepStore.write``
(``scenarios``, ``sweep``) — and reads the plan cache's counters from
outside.  The decomposed stages must
reproduce the end-to-end volumes bit for bit; every volume that does not
counts as failed.  README.md maps each metric to the end-to-end metric it
should move.
"""

from __future__ import annotations

import shutil
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from repro.api import ARCHITECTURES as ARCHITECTURE_REGISTRY
from repro.api import Session
from repro.config import get_preset
from repro.hardware import required_delay_rate
from repro.kernels import (
    TilePlanner,
    accumulate,
    apply_weights,
    compile_plan,
    gather_interp,
    plan_key,
)
from repro.observability import write_trace
from repro.scenarios import SchemeEngine, score_volume
from repro.sweep import SweepStore, cell_key, resolved_cell_spec
from repro.sweep.executor import acquire_cell_inputs

from harness import Metric, OutputLog, median, scratch_dir

if TYPE_CHECKING:  # pragma: no cover - typing only
    from workloads import Workload

ARCHITECTURES = ("exact", "tablefree", "tablesteer")
CORE_REPEATS = 3
DECOMPOSE_PASSES = 3
"""Passes over the distinct inputs in a cine decomposition."""


# ------------------------------------------------------------------ core
def core_probe(system_name: str, tracer) -> dict[str, Metric]:
    """Delay generation per architecture on the workload's system, beside
    the paper's required rate (the ``paper`` preset at its volume rate)."""
    system = get_preset(system_name)
    required = required_delay_rate(get_preset("paper"))
    metrics = {}
    for name in ARCHITECTURES:
        builds, generations = [], []
        for _ in range(CORE_REPEATS):
            with tracer.span("provider_build", architecture=name) as span:
                provider = ARCHITECTURE_REGISTRY.create(name, system)
            builds.append(span.duration)
            with tracer.span("volume_delays", architecture=name) as span:
                delays = provider.volume_delays_samples()
                span.set(delays=int(delays.size))
            generations.append(span.duration)
        rate = delays.size / median(generations)
        metrics[f"core.delays_per_s.{name}"] = Metric(
            rate, "delays/s", CORE_REPEATS,
            f"{rate / required:.2e} of the paper's required "
            f"{required:.3g} delays/s")
        metrics[f"core.provider_build_s.{name}"] = Metric(
            median(builds), "s", CORE_REPEATS)
    return metrics


# --------------------------------------------------------------- kernels
def _compile(tracer, beamformer, precision, tile=None):
    with tracer.span("compile") as span:
        plan = compile_plan(beamformer, precision, tile=tile)
        span.set(bytes=int(plan.nbytes))
    return plan


def _execute(tracer, plan, frames: list[np.ndarray]) -> tuple[np.ndarray, bool]:
    """Run ``plan`` on ``frames`` as the program does (``execute`` for one
    frame, ``execute_batch`` for several), then again as separate
    ``gather_interp``/``apply_weights``/``accumulate`` calls under a
    ``split`` span.  Returns the program's flat rows and whether the split
    stages reproduced them bit for bit."""
    with tracer.span("execute"):
        if len(frames) == 1:
            flat = plan.execute(frames[0]).reshape(-1)
            samples = frames[0]
        else:
            flat = plan.execute_batch(frames).reshape(len(frames), -1)
            samples = np.stack(frames)
    with tracer.span("split"):
        index = plan.gather_index(samples.shape[-1])
        with tracer.span("gather") as span:
            gathered = gather_interp(samples, index)
            span.set(bytes=int(gathered.nbytes))
        with tracer.span("weights"):
            weighted = apply_weights(gathered, plan.weights)
        with tracer.span("accumulate"):
            split = accumulate(weighted)
    return flat, bool(np.array_equal(split, flat))


def decompose_frames(workload: "Workload", log: OutputLog
                     ) -> tuple[int, float]:
    """The cine workloads' frames, stage by stage, on the service's own
    beamformer: the whole-grid plan compiled once, or — under a memory
    budget — every tile segment compiled per batch, as the budgeted
    engine does.  Returns the volumes that differ (from the window's, or
    between the stages) and the median seconds per volume outside the
    ``split`` re-execution."""
    tracer = workload.tracer
    frames, per_call = workload.frames, workload.per_call
    mismatches = 0
    with Session(workload.spec) as session:
        service = session.service()
        beamformer, precision = service.beamformer, service.precision
        budget = workload.spec.memory_budget_bytes
        planner = None if budget is None else \
            TilePlanner.for_beamformer(beamformer, budget, precision=precision)
        plan = _compile(tracer, beamformer, precision) \
            if planner is None else None
        for _ in range(DECOMPOSE_PASSES):
            for first in range(0, len(frames), per_call):
                ids = range(first, first + per_call)
                batch = [np.asarray(frames[i].samples, dtype=precision.dtype)
                         for i in ids]
                with tracer.span("volume", frames=per_call):
                    if planner is None:
                        flat, same = _execute(tracer, plan, batch)
                    else:
                        flat = np.empty((per_call, planner.n_points),
                                        dtype=precision.dtype)
                        same = True
                        for tile in planner.tiles():
                            segment = _compile(tracer, beamformer, precision,
                                               tile)
                            rows, agrees = _execute(tracer, segment, batch)
                            flat[:, tile.rows] = rows
                            same = same and agrees
                volumes = flat.reshape((per_call, *beamformer.grid.shape))
                mismatches += sum(not (same and log.identical(i, volume))
                                  for i, volume in zip(ids, volumes))
    return mismatches, median(_outside_split(tracer.find("volume")))


def decompose_sweep(workload: "Workload", log: OutputLog
                    ) -> tuple[int, float]:
    """The sweep grid cell by cell, as the executor computes it: firings
    acquired once per scenario x scheme, one delay provider per
    architecture, one compiled plan per firing, compounding in event
    order, scoring and a store write.  Plans are kept by plan key, as the
    session's plan cache keeps them, so a later scenario reuses them.
    Returns the cells differing from the window's and the mean decomposed
    seconds per cell."""
    tracer = workload.tracer
    grid, spec = workload.grid, workload.spec
    mismatches = 0
    providers: dict = {}
    plans: dict = {}
    store = SweepStore(scratch_dir())
    session = Session(spec)
    try:
        for scenario in grid.scenarios:
            for scheme in grid.schemes:
                with tracer.span("acquire", scenario=scenario,
                                 scheme=scheme) as span:
                    firings, options = acquire_cell_inputs(
                        session, grid, scenario, scheme)
                    span.set(firings=len(firings))
                for architecture in grid.architectures:
                    with tracer.span("volume", frames=1, scheme=scheme,
                                     architecture=architecture):
                        volume, same = _decomposed_cell(
                            tracer, session, grid, providers, plans,
                            scenario, scheme, architecture, firings, options,
                            store)
                    mismatches += not (same and log.identical(
                        (scenario, scheme, architecture), volume))
    finally:
        session.close()
        shutil.rmtree(store.root, ignore_errors=True)
    cells = tracer.find("volume")
    acquired = sum(span.duration for span in tracer.find("acquire"))
    return mismatches, (sum(_outside_split(cells)) + acquired) / len(cells)


def _decomposed_cell(tracer, session, grid, providers, plans, scenario,
                     scheme, architecture, firings, options, store
                     ) -> tuple[np.ndarray, bool]:
    with tracer.span("pipeline"):
        pipeline = session.pipeline(architecture=architecture, scheme=scheme,
                                    provider=providers.get(architecture))
        providers[architecture] = pipeline.delay_provider
        engine = SchemeEngine(pipeline.beamformer, pipeline.scheme)
    volume, same = None, True
    for backend, firing in zip(engine.backends, firings):
        key = plan_key(backend.beamformer, pipeline.precision)
        if key not in plans:
            plans[key] = _compile(tracer, backend.beamformer,
                                  pipeline.precision)
        plan = plans[key]
        flat, agrees = _execute(tracer, plan, [plan.coerce_samples(firing)])
        contribution = flat.reshape(plan.grid_shape)
        same = same and agrees
        with tracer.span("compound"):
            volume = contribution if volume is None else volume + contribution
    with tracer.span("score"):
        metrics = score_volume(session.system, volume, scenario=scenario,
                               options=options)
    with tracer.span("store_write"):
        cell_spec = resolved_cell_spec(session.spec, grid, scenario, scheme,
                                       architecture, session.spec.backend)
        store.write(cell_key(cell_spec), volume, metrics, cell_spec)
    return volume, same


# ---------------------------------------------------------- observability
def _replay(workload: "Workload", log: OutputLog
            ) -> tuple[float, float, int, list]:
    """Alternate calls between a fresh engine built with the program's
    own tracing off and a twin built with it on.  Returns the median
    seconds per volume untraced and traced, the replayed volumes that
    differ from the window's, and the twin's span roots."""
    twin = type(workload)(workload.scale, workload.seed)
    walls: dict[bool, list[float]] = {False: [], True: []}
    differing = 0
    try:
        workload.build(trace=False)
        twin.build(trace=True)
        for k in range(workload.replay_calls):
            order = ((False, workload), (True, twin)) if k % 2 == 0 \
                else ((True, twin), (False, workload))
            for traced, engine in order:
                start = time.perf_counter()
                outputs = engine.replay_step(k)
                walls[traced].append((time.perf_counter() - start)
                                     / len(outputs))
                differing += sum(not log.identical(input_id, volume)
                                 for input_id, volume in outputs)
    finally:
        workload.close()
        twin.close()
    return median(walls[False]), median(walls[True]), differing, twin.spans


# --------------------------------------------------------------- assembly
def _outside_split(units) -> list[float]:
    """Seconds per volume of each ``volume`` span, less its ``split``
    re-execution: what the program's own calls took."""
    return [(unit.duration - sum(span.duration for span in unit.find("split")))
            / unit.attributes["frames"] for unit in units]


def _per_volume(units, stage: str, attribute: str | None = None
                ) -> list[float]:
    """One sample per bench ``volume`` span: the summed duration (or
    ``attribute``) of its ``stage`` spans, per frame of the unit."""
    return [sum(span.attributes[attribute] if attribute else span.duration
                for span in unit.find(stage)) / unit.attributes["frames"]
            for unit in units]


def per_layer(workload: "Workload", window, trace_path: Path
              ) -> tuple[dict[str, Metric], dict[str, Metric], int]:
    """The declared per-layer metrics, printed-only extras and the count
    of volumes that failed the decomposition or the replays."""
    tracer = workload.tracer
    failed, decomposed = workload.decompose(window)
    untraced, traced, replay_failed, program_spans = _replay(workload,
                                                             window.log)
    failed += replay_failed
    metrics = core_probe(workload.scale.system, tracer)
    write_trace(trace_path, [*tracer.roots, *program_spans])

    units = tracer.find("volume")
    n = len(units)
    stage = {name: _per_volume(units, name)
             for name in ("gather", "weights", "accumulate", "execute",
                          "compound", "score", "store_write")}
    compile_spans = tracer.find("compile")
    compiles = [span.duration for span in compile_spans]
    # Whole plan sets (one cell's plans, one pass over the tiles), from the
    # volume spans that compiled anything; the cine plan compiles outside.
    compile_sets = [sum(span.duration for span in unit.find("compile"))
                    for unit in units if unit.find("compile")]
    acquires = tracer.find("acquire")
    firings = sum(span.attributes.get("firings", 1) for span in acquires)
    cache = workload.cache_counts
    lookups = cache["hits"] + cache["misses"]
    service = workload.service_seconds(window)

    def ms(name: str, value: float, samples: int) -> None:
        metrics[name] = Metric(value * 1e3, "ms", samples)

    metrics["kernels.compile_s"] = Metric(
        median(compile_sets) if compile_sets else sum(compiles), "s",
        len(compiles), "every plan or segment a volume compiles")
    ms("kernels.compile_ms_per_volume",
       cache["misses"] / window.completed * median(compiles),
       window.completed)
    for name in ("gather", "weights", "accumulate"):
        ms(f"kernels.{name}_ms", median(stage[name]), n)
    ms("kernels.execute_ms", median(stage["execute"]), n)
    metrics["kernels.gather_bytes_per_frame"] = Metric(
        median(_per_volume(units, "gather", "bytes")), "bytes", n,
        "computed from the gathered array's size")
    metrics["kernels.plan_bytes"] = Metric(
        max(span.attributes["bytes"] for span in compile_spans),
        "bytes", len(compiles), "largest plan or segment compiled")
    metrics["runtime.plan_cache.hit_ratio"] = Metric(
        cache["hits"] / lookups if lookups else 0.0, "ratio", lookups)
    metrics["runtime.plan_cache.evictions"] = Metric(
        cache["evictions"], "count", lookups)
    metrics["runtime.plan_cache.peak_bytes"] = Metric(
        cache["peak_bytes"], "bytes", lookups)
    ms("runtime.overhead_ms", service - decomposed, window.completed)
    ms("scenarios.compound_ms", median(stage["compound"]), n)
    ms("scenarios.score_ms", median(stage["score"]), n)
    ms("acoustics.simulate_ms",
       sum(span.duration for span in acquires) / firings, firings)
    ms("sweep.store_write_ms", median(stage["store_write"]), n)
    metrics["observability.trace_overhead_frac"] = Metric(
        traced / untraced - 1.0, "fraction", 2 * workload.replay_calls,
        f"replays: traced {traced * 1e3:.3g} ms vs untraced "
        f"{untraced * 1e3:.3g} ms per volume")

    extras: dict[str, Metric] = {}
    for scheme, seconds in workload.cell_seconds.items():
        extras[f"sweep.cell_ms.{scheme}"] = Metric(
            median(seconds) * 1e3, "ms", len(seconds), "untraced window")
    if workload.cell_seconds:
        extras["sweep.acquire_ms"] = Metric(
            median([span.duration for span in acquires]) * 1e3, "ms",
            len(acquires), "per scenario x scheme")
    return metrics, extras, failed
