"""LRU cache for compiled beamforming plans.

Compiling a :class:`repro.kernels.BeamformingPlan` — generating every
(point, element) delay and weight and rounding the delays into a gather
index — is by far the most expensive part of beamforming a volume
in software, exactly the bottleneck the paper attacks in hardware.  In a
streaming setting the probe geometry is fixed across a cine sequence, so the
plan is identical for every frame; :class:`PlanCache` stores it under
:func:`repro.kernels.plan_key` (system digest + delay architecture +
apodization + interpolation + dtype) so that only the first frame of a
sequence pays the compile cost, and engines differing in any of those
components can never be served each other's plan.  The cache is a plain LRU
whose hit/miss/eviction counters are
:class:`repro.observability.Counter` instruments of a
:class:`repro.observability.MetricsRegistry` — the runtime's stats (and the
regression tests) assert on them to prove that repeated frames skip
compilation, and the same instruments export as a Prometheus-style snapshot
without a second bookkeeping path.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable, TypeVar

from ..observability.metrics import MetricsRegistry

T = TypeVar("T")


@dataclass(frozen=True)
class CacheStats:
    """Counters describing how a :class:`PlanCache` has been used."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    bytes: int = 0
    peak_bytes: int = 0
    max_bytes: int | None = None

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0 when never used)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """A small LRU cache mapping plan keys to compiled plans.

    Parameters
    ----------
    capacity:
        Maximum number of plans kept (an entry holding a firing group's F
        plans counts F, and one heavier than the bound is kept alone); the
        least recently *used* entry is evicted when a new key is inserted
        into a full cache.  Each entry for
        a paper-scale system can be hundreds of megabytes, so the default is
        deliberately small.
    metrics:
        Optional :class:`repro.observability.MetricsRegistry` the cache
        registers its ``plan_cache_*`` counters in — pass the owning
        service's/session's registry to co-locate the cache series with the
        rest of its metrics.  Without one the cache keeps a private
        registry, so :attr:`stats` always works.
    max_bytes:
        Optional plan-memory budget in bytes (or a suffixed string like
        ``"8G"``, parsed by
        :func:`repro.kernels.tiling.parse_memory_budget`).  When set, the
        byte budget **replaces** the entry-count bound: the cache evicts
        least-recently-used entries by their tracked ``nbytes`` until the
        budget holds — a count bound of 4 would thrash a tiled sweep whose
        segments are deliberately sized to the budget.  On a miss with a
        ``size_hint`` the eviction happens *before* the builder runs, so
        resident plan bytes plus the segment being built never exceed the
        budget mid-sweep.  Tracked/peak bytes export as the
        ``plan_cache_bytes`` / ``plan_cache_peak_bytes`` gauges (peak is
        the number E9 reports against the budget); bytes are tracked even
        without a budget, so the gauges are always meaningful.
    """

    def __init__(self, capacity: int = 4,
                 metrics: MetricsRegistry | None = None,
                 max_bytes: int | str | None = None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be at least 1")
        self.capacity = capacity
        if max_bytes is not None:
            from ..kernels.tiling import parse_memory_budget
            max_bytes = parse_memory_budget(max_bytes)
        self.max_bytes = max_bytes
        # One cache is shared by every session of a BeamformingServer, whose
        # worker threads look plans up concurrently — all entry/counter
        # mutation happens under this lock.  Compilation runs under it too:
        # serialising two identical misses into one compile is cheaper than
        # compiling the same plan twice on both threads.
        self._lock = threading.RLock()
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._hits = self.metrics.counter(
            "plan_cache_hits_total", "plan-cache lookups served from cache")
        self._misses = self.metrics.counter(
            "plan_cache_misses_total", "plan-cache lookups that compiled")
        self._evictions = self.metrics.counter(
            "plan_cache_evictions_total", "plans evicted by the LRU bound")
        self._bytes = 0
        self._peak_bytes = 0
        self._bytes_gauge = self.metrics.gauge(
            "plan_cache_bytes", "tracked bytes of resident cached plans")
        self._peak_gauge = self.metrics.gauge(
            "plan_cache_peak_bytes",
            "high-water mark of resident cached plan bytes")

    # ------------------------------------------------------------- lookups
    @staticmethod
    def _plans(value: object) -> tuple:
        """The plans one entry holds: a firing group's tile is the tuple of
        its firings' plans; any other value is one plan."""
        return value if isinstance(value, tuple) else (value,)

    @classmethod
    def _entry_bytes(cls, value: object) -> int:
        """Tracked size of one entry (plans expose ``nbytes``; 0 otherwise)."""
        return sum(int(getattr(plan, "nbytes", 0) or 0)
                   for plan in cls._plans(value))

    def _evict_oldest(self) -> None:
        """Drop the least-recently-used entry (caller holds the lock)."""
        _, value = self._entries.popitem(last=False)
        self._bytes -= self._entry_bytes(value)
        self._evictions.inc()
        self._bytes_gauge.set(self._bytes)

    def get_or_build(self, key: Hashable, builder: Callable[[], T], *,
                     size_hint: int | None = None, plans: int = 1) -> T:
        """Return the cached value for ``key``, building (and storing) it on miss.

        Thread-safe: concurrent callers asking for the same missing key
        block until the first caller's ``builder()`` finishes and then all
        receive the one built value (one miss, n-1 hits).

        A firing group's tile is one entry, the tuple of its plans
        (:meth:`repro.runtime.backends.VectorizedBackend.compound`), which
        the count bound counts as that many plans.  ``plans`` and
        ``size_hint`` predict the plan count and bytes of the value about
        to be built, and room is made for them *before* the builder runs,
        so resident plus in-flight values never exceed the bound.
        """
        with self._lock:
            if key in self._entries:
                self._hits.inc()
                self._entries.move_to_end(key)
                return self._entries[key]  # type: ignore[return-value]
            self._misses.inc()
            if self.max_bytes is None:
                while self._entries and plans + sum(
                        len(self._plans(value))
                        for value in self._entries.values()) > self.capacity:
                    self._evict_oldest()
            elif size_hint is not None:
                while self._entries and \
                        self._bytes + int(size_hint) > self.max_bytes:
                    self._evict_oldest()
            value = builder()
            self._entries[key] = value
            self._bytes += self._entry_bytes(value)
            if self.max_bytes is not None:
                # Never evict the entry just inserted (the caller uses it).
                while self._bytes > self.max_bytes and len(self._entries) > 1:
                    self._evict_oldest()
            self._peak_bytes = max(self._peak_bytes, self._bytes)
            self._bytes_gauge.set(self._bytes)
            self._peak_gauge.set(self._peak_bytes)
            return value

    def limit_bytes(self, max_bytes: int | str) -> None:
        """Impose (or tighten) the byte budget; never loosens an existing
        one.  Evicts immediately if the current contents already overflow
        the new bound."""
        from ..kernels.tiling import parse_memory_budget
        budget = parse_memory_budget(max_bytes)
        with self._lock:
            self.max_bytes = budget if self.max_bytes is None \
                else min(self.max_bytes, budget)
            while self._bytes > self.max_bytes and len(self._entries) > 1:
                self._evict_oldest()

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------ lifecycle
    def clear(self) -> None:
        """Drop all entries (counters and the byte high-water mark are kept)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0
            self._bytes_gauge.set(0)

    @property
    def stats(self) -> CacheStats:
        """Consistent snapshot of the usage counters.

        Taken under the cache lock: concurrent server workers mutate
        ``size``/``bytes``/``peak_bytes`` together inside
        :meth:`get_or_build`, so an unlocked read could observe a torn
        combination (e.g. the new entry counted in ``size`` but not yet in
        ``bytes``).
        """
        with self._lock:
            return CacheStats(hits=int(self._hits.value),
                              misses=int(self._misses.value),
                              evictions=int(self._evictions.value),
                              size=len(self._entries),
                              capacity=self.capacity,
                              bytes=int(self._bytes),
                              peak_bytes=int(self._peak_bytes),
                              max_bytes=self.max_bytes)
