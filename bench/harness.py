"""Measurement helpers shared by every workload.

Statistics that carry their sample counts, the oracle bookkeeping that
lets every returned volume be checked without keeping every volume, the
closed-loop load generator, and the report printer.  Nothing
here imports the program: the workloads hand in callables.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
"""Results, traces and scratch stores: all inside the checkout."""

TAIL_PERCENTILES = (99, 95, 90)
MIN_SAMPLES_BEYOND_TAIL = 15
"""A tail percentile is reported only with this many samples above it."""


def load_declaration() -> dict:
    """The metric names, units, directions and bounds from BENCHMARK.json."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def warn(message: str) -> None:
    """Report to stderr: stdout ends with the result object."""
    print(f"bench: {message}", file=sys.stderr, flush=True)


def scratch_dir() -> str:
    """A fresh directory under :data:`OUT_DIR`, for sweep stores."""
    (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(dir=OUT_DIR / "tmp")


# ------------------------------------------------------------- statistics
@dataclass(frozen=True)
class Metric:
    """One measured value, its unit and the number of samples behind it."""

    value: float
    unit: str
    n: int
    note: str = ""


def median(samples: Sequence[float]) -> float:
    """Median of a non-empty sample (numpy's linear interpolation)."""
    if len(samples) == 0:
        raise ValueError("median of an empty sample")
    return float(np.median(np.asarray(samples, dtype=float)))


def tail(samples: Sequence[float]) -> tuple[int, float] | None:
    """``(p, value)`` for the highest percentile of :data:`TAIL_PERCENTILES`
    with at least :data:`MIN_SAMPLES_BEYOND_TAIL` samples above it, or
    ``None`` when the sample is too small for any of them."""
    n = len(samples)
    for p in TAIL_PERCENTILES:
        if math.floor(n * (100 - p) / 100) >= MIN_SAMPLES_BEYOND_TAIL:
            return p, float(np.percentile(np.asarray(samples, dtype=float), p))
    return None


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far [MiB] (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------- oracle
def within_tolerance(actual: np.ndarray, reference: np.ndarray,
                     tolerance: Any) -> bool:
    """Whether ``actual`` matches ``reference`` under a pinned
    :class:`repro.kernels.Tolerance` (shape mismatches never match)."""
    if np.shape(actual) != np.shape(reference):
        return False
    try:
        tolerance.assert_allclose(actual, reference)
    except AssertionError:
        return False
    return True


class OutputLog:
    """A digest of every output volume, keyed by the input that made it.

    One copy of each distinct ``(input, digest)`` pair is kept, so the
    oracle checks every output after the timed window while memory holds
    only the distinct volumes (one per input when the program is
    deterministic).
    """

    def __init__(self) -> None:
        self._counts: Counter = Counter()
        self._first: dict[tuple, np.ndarray] = {}

    def record(self, input_id: Any, volume: np.ndarray) -> None:
        volume = np.ascontiguousarray(volume)
        digest = hashlib.blake2b(volume.data, digest_size=16).digest()
        key = (input_id, volume.shape, volume.dtype.str, digest)
        if key not in self._first:
            self._first[key] = volume.copy()
        self._counts[key] += 1

    def mismatches(self, references: Mapping[Any, np.ndarray],
                   tolerance: Any) -> int:
        """Outputs that do not match their input's reference volume.

        Outputs of inputs absent from ``references`` are not checked.
        """
        bad = 0
        for key, volume in self._first.items():
            if key[0] in references and not within_tolerance(
                    volume, references[key[0]], tolerance):
                bad += self._counts[key]
        return bad

    def identical(self, input_id: Any, volume: np.ndarray) -> bool:
        """Whether ``volume`` equals, bit for bit, every output recorded for
        ``input_id`` (and at least one was recorded)."""
        recorded = [other for key, other in self._first.items()
                    if key[0] == input_id]
        return bool(recorded) and all(np.array_equal(volume, other)
                                      for other in recorded)


# ---------------------------------------------------------- load generators
@dataclass
class Window:
    """What a timed window produced."""

    latencies: list[float] = field(default_factory=list)
    """Seconds per completed volume."""
    call_walls: list[float] = field(default_factory=list)
    """Seconds per successful call (a call may return several volumes)."""
    wall: float = 0.0
    attempted: int = 0
    errors: int = 0
    log: OutputLog = field(default_factory=OutputLog)
    rss_mb: float = 0.0
    """Peak RSS once the first call of the window had returned [MiB].
    Later calls repeat work already done, yet the high-water mark still
    rose during the window in about half of the runs, by one 30 MiB step
    that stayed resident: memory the process kept, not memory the work
    needed."""

    @property
    def completed(self) -> int:
        return len(self.latencies)


def closed_loop(seconds: float, step: Callable[[int], Sequence[tuple]],
                per_call: int, min_calls: int = 1) -> Window:
    """Call ``step(k)`` back to back for ``seconds``.

    A call starts only if one more call as long as the last fits in the
    window, so the window never overruns by a whole call (a sweep call
    takes most of it); at least ``min_calls`` calls are made.  ``step``
    returns ``(input_id, volume)`` pairs, ``per_call`` of them; each
    volume's latency is the wall time of the call that returned it.  A
    call that raises counts ``per_call`` errors and the loop goes on.
    """
    window = Window()
    start = time.perf_counter()
    end = start + seconds
    k, wall = 0, 0.0
    while k < min_calls or time.perf_counter() + wall <= end:
        window.attempted += per_call
        t0 = time.perf_counter()
        try:
            outputs = step(k)
        except Exception as exc:  # counted, reported, and the load goes on
            window.errors += per_call
            warn(f"call {k} failed: {exc!r}")
        else:
            wall = time.perf_counter() - t0
            window.call_walls.append(wall)
            for input_id, volume in outputs:
                window.latencies.append(wall)
                window.log.record(input_id, volume)
            if not window.rss_mb:
                window.rss_mb = peak_rss_mb()
        k += 1
    window.wall = time.perf_counter() - start
    return window


# ----------------------------------------------------------------- report
@dataclass
class Outcome:
    """Everything one workload run reports."""

    metrics: dict[str, Metric]
    """The declared metrics of the mode (end-to-end or per-layer)."""
    extras: dict[str, Metric]
    """Printed and written, but not declared (not gated)."""
    attempted: int
    failed: int


def check_declared(metrics: Mapping[str, Metric], declared: Iterable[dict],
                   what: str) -> None:
    """Refuse a result whose metric names or units differ from the
    declaration in BENCHMARK.json."""
    expected = {entry["name"]: entry["unit"] for entry in declared}
    produced = {name: metric.unit for name, metric in metrics.items()}
    if produced != expected:
        raise RuntimeError(
            f"{what} metrics {sorted(produced.items())} differ from "
            f"BENCHMARK.json {sorted(expected.items())}")


def result_line(outcome: Outcome) -> dict:
    """The final stdout object: correctness, counts and the metric values."""
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metric.value, "unit": metric.unit}
                    for name, metric in outcome.metrics.items()},
    }


def render(workload: str, outcome: Outcome) -> str:
    """Human table: every metric with its unit and sample count."""
    lines = [f"[{workload}]"]
    rows = {**outcome.metrics, **outcome.extras}
    width = max(len(name) for name in rows)
    for name, metric in rows.items():
        lines.append(f"  {name:<{width}}  {metric.value:>14.6g} "
                     f"{metric.unit:<10} n={metric.n}"
                     + (f"  ({metric.note})" if metric.note else ""))
    lines.append(f"  attempted={outcome.attempted} failed={outcome.failed}")
    return "\n".join(lines)
