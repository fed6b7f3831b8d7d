"""The three workloads: inputs from a seed, set-up, a timed window, an oracle.

Every workload drives the program through its public surface only
(``repro.api``, ``repro.sweep``) from one client thread, on backends that
run on one thread, so a run measures the program rather than how the
host schedules threads.  All run the ``small`` preset in ``float64`` with
a little channel noise, so the seed changes every input.  Why each
workload exists is recorded in BENCHMARK.json and README.md.
"""

from __future__ import annotations

import gc
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np
from repro.api import EngineSpec, ScanSpec, Session, SweepSpec
from repro.kernels import TOLERANCES, Precision
from repro.observability import Tracer
from repro.sweep import SweepExecutor, SweepStore

import layers
from harness import (
    Metric,
    Outcome,
    Window,
    closed_loop,
    median,
    scratch_dir,
    tail,
)
from layers import ARCHITECTURES

NOISE_STD = 0.01
DISTINCT_INPUTS = 8
WARMUP_VOLUMES = 8
SETUP_REPEATS = 5
BATCH_SIZE = 4
TOLERANCE = TOLERANCES[Precision.FLOAT64]


@dataclass(frozen=True)
class Scale:
    """Window length and problem size.  The benchmark uses the default
    sizes; the harness tests shrink everything to a fraction of a second."""

    seconds: float
    """The timed window (``--seconds``; ``run_seconds`` by default)."""
    system: str = "small"
    memory_budget: str = "32M"
    sweep_scenarios: tuple[str, ...] = ("static_point", "cyst")


def cine_frames(spec: EngineSpec, seed: int, tracer) -> list:
    """The pre-simulated ``moving_point`` frames generated from ``seed``;
    each simulation runs under an ``acquire`` span of ``tracer``."""
    session = Session(spec)
    scan = ScanSpec(scenario="moving_point", frames=DISTINCT_INPUTS,
                    noise_std=NOISE_STD, seed=seed)
    frames = []
    for request in scan.build_frames(session.system):
        with tracer.span("acquire", firings=1):
            frames.append(session.acquire(
                request.phantom, noise_std=request.noise_std,
                seed=request.seed))
    return frames


class Workload:
    """Set-up, warm-up, timed window and oracle of one workload.

    ``build`` constructs the engine from scratch and produces the first
    volume (that span is the set-up time); ``step(k)`` is one closed-loop
    call returning ``(input_id, volume)`` pairs; ``references`` computes
    the oracle volumes on the ``reference`` backend.  ``tracer`` holds
    the bench's own spans; ``spans`` collects the program's span roots
    when an engine was built traced.
    """

    name = ""
    per_call = 1
    replay_calls = 3 * DISTINCT_INPUTS
    """Calls in each of the traced and untraced replays (see ``layers``)."""

    def __init__(self, scale: Scale, seed: int) -> None:
        self.scale = scale
        self.seed = seed
        self.session: Session | None = None
        self.tracer = Tracer()
        self.spans: list = []
        self.cell_seconds: dict[str, list[float]] = {}
        self.cache_counts = {"hits": 0, "misses": 0, "evictions": 0,
                             "peak_bytes": 0}

    def build(self, trace: bool = False) -> None:
        raise NotImplementedError

    def close(self) -> None:
        if self.session is not None:
            self.spans.extend(self.session.tracer.roots)
            self.session.close()
            self.session = None

    def step(self, k: int) -> list[tuple[Any, np.ndarray]]:
        raise NotImplementedError

    def replay_step(self, k: int) -> list[tuple[Any, np.ndarray]]:
        return self.step(k)

    def _count_cache(self, before, after) -> None:
        for name in ("hits", "misses", "evictions"):
            self.cache_counts[name] += getattr(after, name) \
                - (getattr(before, name) if before is not None else 0)
        self.cache_counts["peak_bytes"] = max(self.cache_counts["peak_bytes"],
                                              after.peak_bytes)

    def window(self, seconds: float) -> Window:
        """Closed loop for ``seconds``, and over every input at least once
        (the traced re-execution compares against each input's output)."""
        before = self.session.cache.stats
        window = closed_loop(seconds, self.step, self.per_call,
                             min_calls=-(-DISTINCT_INPUTS // self.per_call))
        self._count_cache(before, self.session.cache.stats)
        return window

    def service_seconds(self, window: Window) -> float:
        """Untraced seconds per volume spent inside the program."""
        return median(window.call_walls) / self.per_call

    def references(self) -> dict:
        raise NotImplementedError

    def decompose(self, window: Window) -> tuple[int, float]:
        """Re-execute the window's inputs stage by stage under the bench's
        tracer (see :mod:`layers`)."""
        return layers.decompose_frames(self, window.log)


class CineResident(Workload):
    """One client submitting frames to a service whose plan stays cached."""

    name = "cine_resident"

    def __init__(self, scale: Scale, seed: int) -> None:
        super().__init__(scale, seed)
        self.spec = EngineSpec(system=scale.system, architecture="tablesteer",
                               backend="vectorized", precision="float64")
        self.frames = cine_frames(self.spec, seed, self.tracer)

    def build(self, trace: bool = False) -> None:
        self.session = Session(self.spec.with_updates(trace=trace))
        self.service = self.session.service()
        self.step(0)

    def step(self, k: int) -> list[tuple[Any, np.ndarray]]:
        i = k % len(self.frames)
        return [(i, self.service.submit_frame(self.frames[i]).rf)]

    def references(self) -> dict:
        spec = self.spec.with_updates(backend="reference",
                                      memory_budget_bytes=None)
        with Session(spec) as session:
            service = session.service()
            return {i: service.submit_frame(frame).rf
                    for i, frame in enumerate(self.frames)}


class CineBudgeted(CineResident):
    """The same cine under a plan-memory budget the plan does not fit, so
    every batch compiles its tile segments again."""

    name = "cine_budgeted"
    per_call = BATCH_SIZE
    replay_calls = 3 * DISTINCT_INPUTS // BATCH_SIZE

    def __init__(self, scale: Scale, seed: int) -> None:
        super().__init__(scale, seed)
        self.spec = self.spec.with_updates(
            memory_budget_bytes=scale.memory_budget)

    def step(self, k: int) -> list[tuple[Any, np.ndarray]]:
        ids = [(k * BATCH_SIZE + b) % len(self.frames)
               for b in range(BATCH_SIZE)]
        results = self.service.stream([self.frames[i] for i in ids],
                                      batch_size=BATCH_SIZE)
        return [(i, result.rf) for i, result in zip(ids, results)]


class TimedStore(SweepStore):
    """A sweep store noting when each cell landed: the executor writes a
    cell as soon as it is computed."""

    def __init__(self, root: str) -> None:
        super().__init__(root)
        self.landed: list[tuple[float, str]] = []

    def write(self, key, volume, metrics, spec):
        path = super().write(key, volume, metrics, spec)
        self.landed.append((time.perf_counter(), spec["scheme"]))
        return path


class SweepDesignSpace(Workload):
    """A scenario x scheme x architecture grid, each run into a fresh store.

    A sweep user waits for the whole grid, so each volume's latency is the
    wall time of the grid run that produced it.
    """

    name = "sweep_design_space"
    replay_calls = 3

    def __init__(self, scale: Scale, seed: int) -> None:
        super().__init__(scale, seed)
        self.spec = EngineSpec(system=scale.system, architecture="tablesteer",
                               backend="vectorized", precision="float64",
                               scheme="planewave",
                               scheme_options={"n_angles": 3})
        self.grid = SweepSpec(scenarios=scale.sweep_scenarios,
                              schemes=("focused", "planewave"),
                              architectures=ARCHITECTURES,
                              noise_std=NOISE_STD, seed=seed)
        self.per_call = len(self.grid.scenarios) * len(self.grid.schemes) \
            * len(ARCHITECTURES)
        self.first_cell = SweepSpec(scenarios=("static_point",),
                                    schemes=("focused",),
                                    architectures=("tablesteer",),
                                    noise_std=NOISE_STD, seed=seed)
        self._trace = False

    def _sweep(self, grid: SweepSpec, spec: EngineSpec,
               store: bool = True) -> tuple[dict, Session, list]:
        """One sweep as a user runs it: a session, an executor, a store.

        Returns the results, the (closed) session and the cells' landing
        times ``(seconds since start, scheme)``.
        """
        directory = scratch_dir() if store else None
        session = Session(spec)
        try:
            executor = SweepExecutor(
                session, store=TimedStore(directory) if store else None)
            start = time.perf_counter()
            results = executor.run(grid)
            landed = [(when - start, scheme) for when, scheme
                      in (executor.store.landed if store else [])]
            return results, session, landed
        finally:
            self.spans.extend(session.tracer.roots)
            session.close()
            if directory is not None:
                shutil.rmtree(directory, ignore_errors=True)

    def build(self, trace: bool = False) -> None:
        self._trace = trace
        self.replay_step(0)

    def step(self, k: int) -> list[tuple[Any, np.ndarray]]:
        results, session, landed = self._sweep(self.grid, self.spec)
        self._count_cache(None, session.cache.stats)
        previous = 0.0
        for when, scheme in landed:
            self.cell_seconds.setdefault(scheme, []).append(when - previous)
            previous = when
        return [(key, cell["volume"]) for key, cell in results.items()]

    def replay_step(self, k: int) -> list[tuple[Any, np.ndarray]]:
        results, _, _ = self._sweep(
            self.first_cell, self.spec.with_updates(trace=self._trace))
        return [(key, cell["volume"]) for key, cell in results.items()]

    def window(self, seconds: float) -> Window:
        return closed_loop(seconds, self.step, self.per_call)

    def service_seconds(self, window: Window) -> float:
        """Mean seconds per cell: cells of one grid differ by design."""
        return window.wall / window.completed

    def references(self) -> dict:
        """Every architecture's ``static_point`` cells, both schemes, on the
        ``reference`` backend; the other scenarios are not checked."""
        results, _, _ = self._sweep(
            SweepSpec(scenarios=("static_point",), schemes=self.grid.schemes,
                      architectures=ARCHITECTURES, noise_std=NOISE_STD,
                      seed=self.seed),
            self.spec.with_updates(backend="reference"), store=False)
        return {key: cell["volume"] for key, cell in results.items()}

    def close(self) -> None:
        """Each sweep closes its own session."""

    def decompose(self, window: Window) -> tuple[int, float]:
        return layers.decompose_sweep(self, window.log)


WORKLOADS = {workload.name: workload
             for workload in (CineResident, CineBudgeted, SweepDesignSpace)}


def run(name: str, scale: Scale, seed: int,
        trace_path: Path | None = None) -> Outcome:
    """Run one workload: set-up, warm-up, timed window, oracle.

    Without ``trace_path`` the outcome carries the end-to-end metrics.
    With it, the outcome carries the per-layer metrics of
    :func:`layers.per_layer` (the same window plus a decomposed, traced
    re-execution), and the spans are written there as JSON lines.
    """
    workload = WORKLOADS[name](scale, seed)
    repeats = 1 if trace_path is not None else SETUP_REPEATS
    setups = []
    for repeat in range(repeats):
        if repeat:
            workload.close()
        gc.collect()
        start = time.perf_counter()
        workload.build()
        setups.append(time.perf_counter() - start)
    try:
        for k in range(WARMUP_VOLUMES // workload.per_call):
            workload.step(k)
        window = workload.window(scale.seconds)
    finally:
        workload.close()
    if not window.latencies:
        raise RuntimeError(f"{name}: no volume completed in the window")
    failed = window.errors + window.log.mismatches(workload.references(),
                                                   TOLERANCE)
    extras = {"failed_frac": Metric(failed / window.attempted, "fraction",
                                    window.attempted,
                                    "errors + oracle mismatches")}
    latency_tail = tail(window.latencies)
    if latency_tail is not None:
        p, value = latency_tail
        extras[f"latency_p{p}_ms"] = Metric(value * 1e3, "ms",
                                            window.completed)
    if trace_path is None:
        metrics = {
            "volumes_per_s": Metric(window.completed / window.wall,
                                    "volumes/s", window.completed),
            "latency_p50_ms": Metric(median(window.latencies) * 1e3, "ms",
                                     window.completed),
            "setup_s": Metric(median(setups), "s", len(setups)),
            "peak_rss_mb": Metric(window.rss_mb, "MiB", 1,
                                  "ru_maxrss after the first timed call"),
        }
    else:
        metrics, layer_extras, layer_failed = layers.per_layer(
            workload, window, trace_path)
        extras.update(layer_extras)
        failed += layer_failed
    return Outcome(metrics=metrics, extras=extras,
                   attempted=window.attempted, failed=failed)
