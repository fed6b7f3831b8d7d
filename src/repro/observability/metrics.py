"""Counters, gauges and percentile histograms behind one registry.

The quantitative side of the observability layer: where spans
(:mod:`repro.observability.tracing`) answer *where one run spent its
time*, metrics aggregate *how the system behaves over many frames* —
service latency percentiles, cache hit/miss counts, frames/s, voxels/s.
:class:`repro.runtime.cache.PlanCache` and
:class:`repro.runtime.service.BeamformingService` keep their counters as
instruments of a :class:`MetricsRegistry` instead of ad-hoc integer
attributes, so every figure the runtime reports is also exportable as a
Prometheus-style snapshot (:func:`repro.observability.render_prometheus`)
without a second bookkeeping path.

Three instrument types, deliberately minimal:

* :class:`Counter` — monotonically increasing float (``_total`` names);
* :class:`Gauge` — a value that can go up and down (sizes, rates);
* :class:`Histogram` — exact running count/sum/min/max, and percentiles
  computed with :func:`numpy.percentile` over the most recent
  :attr:`Histogram.WINDOW` observations kept exactly (no bucketing error,
  and a long-running server's memory stays bounded).

Instruments are get-or-create by name: asking a registry twice for the
same counter returns the same object, and asking for an existing name as
a different type raises :class:`MetricError` — name collisions surface
immediately instead of silently splitting a series.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterator, Sequence, Union

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
]


class MetricError(ValueError):
    """Raised on instrument misuse (type collisions, negative counts)."""


class Counter:
    """A monotonically increasing value (frames processed, cache hits)."""

    __slots__ = ("name", "description", "_value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current total."""
        return self._value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative: counters never go down)."""
        if amount < 0:
            raise MetricError(
                f"counter {self.name!r} cannot decrease (inc by {amount})")
        self._value += amount

    def reset(self) -> None:
        """Zero the counter (stats-reset support; not a Prometheus op)."""
        self._value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Counter({self.name!r}, value={self._value:g})"


class Gauge:
    """A point-in-time value (cache size, sustained frames/s)."""

    __slots__ = ("name", "description", "_value")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._value = 0.0

    @property
    def value(self) -> float:
        """Current value."""
        return self._value

    def set(self, value: float) -> None:
        """Replace the value."""
        self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the value by ``amount`` (may be negative)."""
        self._value += amount

    def reset(self) -> None:
        """Zero the gauge."""
        self._value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Gauge({self.name!r}, value={self._value:g})"


class Histogram:
    """Running totals plus a window of exact recent observations.

    ``count``/``sum``/``min``/``max`` are exact running values over every
    observation.  The most recent :attr:`WINDOW` observations are kept
    exactly, so ``percentile(q)`` agrees with ``numpy.percentile`` over that
    window bit for bit (pinned in the tests) while a long-running service
    holds a bounded amount of memory.  The empty histogram reports 0.0
    everywhere — the guard that keeps a fresh/reset service's ``stats()``
    away from ``np.mean([])``.
    """

    WINDOW = 65_536
    """Observations kept for percentiles and :attr:`values`."""

    __slots__ = ("name", "description", "_window", "_count", "_sum", "_min",
                 "_max")

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self.reset()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._window.append(value)
        self._count += 1
        self._sum += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    # ------------------------------------------------------------ summaries
    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of observations (0.0 when empty)."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean observation (0.0 when empty)."""
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        """Smallest observation (0.0 when empty)."""
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        """Largest observation (0.0 when empty)."""
        return self._max if self._count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the window (linear interpolation; 0.0
        when empty)."""
        return self.percentiles((q,))[0]

    def percentiles(self, qs: Sequence[float]) -> list[float]:
        """The ``qs``-th percentiles of the window (0.0 each when empty):
        one copy of the window and one :func:`numpy.percentile` call for
        all of them, each equal to :meth:`percentile` bit for bit."""
        if not self._window:
            return [0.0] * len(qs)
        return [float(value) for value in np.percentile(self.values, qs)]

    @property
    def values(self) -> np.ndarray:
        """Copy of the windowed observations, oldest first."""
        return np.fromiter(self._window, dtype=float, count=len(self._window))

    def summary(self) -> dict[str, float]:
        """Count/sum/mean/min/max plus the p50/p95/p99 service quantiles."""
        p50, p95, p99 = self.percentiles((50, 95, 99))
        return {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }

    def reset(self) -> None:
        """Drop every observation."""
        self._window = deque(maxlen=self.WINDOW)
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Histogram({self.name!r}, count={self.count})"


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """Named instruments, get-or-create, with a JSON-safe snapshot.

    One registry typically spans one logical unit — a
    :class:`repro.runtime.BeamformingService` and the
    :class:`repro.runtime.cache.PlanCache` it owns, or a whole
    :class:`repro.api.Session` — so a single
    :func:`repro.observability.render_prometheus` call exports the unit's
    complete state.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}

    # ------------------------------------------------------------- creation
    def _get_or_create(self, cls, name: str, description: str) -> Instrument:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, description)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise MetricError(
                f"metric {name!r} is already registered as "
                f"{type(instrument).__name__}, not {cls.__name__}")
        return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(Gauge, name, description)

    def histogram(self, name: str, description: str = "") -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_create(Histogram, name, description)

    def remove(self, name: str) -> Instrument | None:
        """Unregister the instrument ``name`` and return it (``None`` if
        absent).  Holders keep a working instrument; a later get-or-create
        under ``name`` makes a fresh one."""
        return self._instruments.pop(name, None)

    # ------------------------------------------------------------- contents
    def get(self, name: str) -> Instrument | None:
        """The instrument registered under ``name`` (``None`` if absent)."""
        return self._instruments.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def __iter__(self) -> Iterator[Instrument]:
        return iter(self._instruments.values())

    def names(self) -> tuple[str, ...]:
        """Registered names in registration order."""
        return tuple(self._instruments)

    # -------------------------------------------------------------- export
    def snapshot(self) -> dict[str, object]:
        """JSON-safe state: scalars for counters/gauges, summaries for
        histograms."""
        out: dict[str, object] = {}
        for name, instrument in self._instruments.items():
            if isinstance(instrument, Histogram):
                out[name] = instrument.summary()
            else:
                out[name] = instrument.value
        return out

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Adopt ``other``'s instruments (by reference) under absent names.

        Names already present are kept — merging a cache's registry into a
        service view never clobbers the service's own instruments.  Returns
        ``self`` for chaining.
        """
        for name, instrument in other._instruments.items():
            self._instruments.setdefault(name, instrument)
        return self

    def reset(self) -> None:
        """Reset every instrument (counters/gauges to 0, histograms empty)."""
        for instrument in self._instruments.values():
            instrument.reset()
