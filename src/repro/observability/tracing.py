"""Span-based tracing for the beamforming execution stack.

A :class:`Tracer` records a tree of named, timed :class:`Span` objects —
the per-stage breakdown the paper's throughput argument needs in software:
how much of a frame's latency is plan ``compile`` versus the fused
sparse ``spmv`` of a float nearest plan (or the echo-buffer ``gather`` and
``weights``/``accumulate`` arithmetic of a chunked one) versus scheme
``compound`` versus acoustic ``simulate``.  The runtime layers
(:class:`repro.kernels.BeamformingPlan`, the execution backends,
:class:`repro.scenarios.SchemeEngine` — given one by
:meth:`repro.api.EngineSpec.build_engine` — and the
:class:`repro.runtime.BeamformingService` that runs it) open spans around
those stages.

Tracing is **opt-in and observation-only**: the default is
:data:`NULL_TRACER`, whose :meth:`~NullTracer.span` returns one shared
no-op context manager (no allocation, no timing), so untraced execution
pays a single attribute lookup per instrumented stage — and a traced run
computes bit-identical volumes, because spans only ever *time* stages.

Span taxonomy (see ``docs/observability.md`` for the full table):

``frame`` > ``simulate`` / ``beamform`` > ``compound`` > ``execute`` >
``tile`` > ``compile`` / ``spmv`` (float nearest plans) or ``gather`` /
``weights`` / ``accumulate`` (linear and quantized plans, per point
chunk) or ``fused`` (compiled plans), plus ``batch``, ``sweep`` and
``cell`` at the session level.

Thread-safety: each thread nests spans on its own stack, and root
registration is locked, so one tracer may observe a multi-threaded run
without corrupting the tree.  A span opened on a pool thread with no span
open on that thread is a root (a server worker's ``serve`` span is one).

A process-wide default tracer can be installed with
:func:`set_default_tracer` / :func:`use_tracer`; every layer that takes
``tracer=None`` falls back to it through :func:`resolve_tracer`.  This is
what lets ``repro run E11 --trace`` trace experiments that build their own
sessions internally.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "get_default_tracer",
    "resolve_tracer",
    "set_default_tracer",
    "use_tracer",
]


class Span:
    """One named, timed stage of a run; nests into a tree.

    Spans are created by :meth:`Tracer.span` and used as single-shot
    context managers::

        with tracer.span("gather") as span:
            gathered = gather_interp(samples, index)
            span.set(bytes=gathered.nbytes)

    ``start`` is seconds since the tracer's epoch (its construction), so
    sibling spans order by ``start``; ``duration`` is wall seconds.
    A span rebuilt by the JSON-lines importer has no tracer and cannot be
    re-entered.
    """

    __slots__ = ("name", "attributes", "start", "duration", "children",
                 "_tracer")

    def __init__(self, name: str, attributes: dict[str, Any] | None = None,
                 tracer: "Tracer | None" = None) -> None:
        self.name = name
        self.attributes: dict[str, Any] = dict(attributes or {})
        self.start = 0.0
        self.duration = 0.0
        self.children: list["Span"] = []
        self._tracer = tracer

    # -------------------------------------------------------- span protocol
    def __enter__(self) -> "Span":
        if self._tracer is None:
            raise RuntimeError(
                f"span {self.name!r} is detached (imported or already "
                "closed); create spans with Tracer.span()")
        self._tracer._open(self)
        self.start = self._tracer._now()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = self._tracer._now() - self.start
        self._tracer._close(self)
        return False

    def set(self, **attributes: Any) -> "Span":
        """Attach (or overwrite) attributes; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    # ------------------------------------------------------------ inspection
    @property
    def self_seconds(self) -> float:
        """Duration not covered by child spans (this stage's own work)."""
        return max(0.0, self.duration - sum(child.duration
                                            for child in self.children))

    def walk(self, depth: int = 0) -> Iterator[tuple["Span", int]]:
        """Depth-first iteration of the subtree as ``(span, depth)`` pairs."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def find(self, name: str) -> list["Span"]:
        """Every span named ``name`` in this subtree (depth-first order)."""
        return [span for span, _ in self.walk() if span.name == name]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Span({self.name!r}, duration={self.duration:.6f}, "
                f"children={len(self.children)})")


class Tracer:
    """Collects a span tree; hand one to an engine/server/plan to profile.

    Usage::

        tracer = Tracer()
        engine = EngineSpec(system="tiny").build_engine(tracer=tracer)
        BeamformingService(engine).submit_frame(phantom)
        print(render_span_tree(tracer))

    (``Session(EngineSpec(..., trace=True))`` builds one for the session,
    read back as ``session.tracer``.)

    Spans opened while another span of the *same thread* is active nest
    under it; spans opened with no active span become roots.  The most
    recent :attr:`MAX_ROOTS` roots are kept, so a traced server or stream
    holds a bounded tree however long it runs.
    """

    MAX_ROOTS = 4_096
    """Root spans kept; opening one more drops the oldest."""

    enabled = True
    """Class-level flag; lets hot paths skip attribute computation with
    ``if tracer.enabled: ...`` when even building span attributes would
    cost something."""

    def __init__(self) -> None:
        self._epoch = perf_counter()
        self._local = threading.local()
        self._roots: deque[Span] = deque(maxlen=self.MAX_ROOTS)
        self._lock = threading.Lock()

    # ----------------------------------------------------------- internals
    def _now(self) -> float:
        return perf_counter() - self._epoch

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, span: Span) -> None:
        stack = self._stack()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self._roots.append(span)
        stack.append(span)

    def _close(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate mismatched exits (a span leaked across an exception in
        # user code) instead of corrupting every later frame's nesting.
        while stack:
            if stack.pop() is span:
                break

    # ------------------------------------------------------------- surface
    def span(self, name: str, **attributes: Any) -> Span:
        """A new span named ``name``; use it as a context manager."""
        return Span(name, attributes, tracer=self)

    @property
    def roots(self) -> tuple[Span, ...]:
        """Top-level spans recorded so far (across all threads), oldest
        first: the most recent :attr:`MAX_ROOTS`."""
        with self._lock:
            return tuple(self._roots)

    def walk(self) -> Iterator[tuple[Span, int]]:
        """Depth-first iteration over every recorded span."""
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        """Every recorded span named ``name``."""
        return [span for span, _ in self.walk() if span.name == name]

    @property
    def span_count(self) -> int:
        """Total number of recorded spans."""
        return sum(1 for _ in self.walk())

    @property
    def total_seconds(self) -> float:
        """Wall seconds covered by the root spans."""
        return sum(root.duration for root in self.roots)

    def reset(self) -> None:
        """Drop every recorded span (the epoch is kept)."""
        with self._lock:
            self._roots = deque(maxlen=self.MAX_ROOTS)
        self._local = threading.local()


class _NullSpan:
    """The shared no-op span: enters, exits and sets attributes for free."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The do-nothing tracer every layer defaults to.

    ``span()`` returns one shared, stateless context manager, so the
    disabled-instrumentation cost of a stage is a single method call —
    the overhead bound is pinned in ``tests/test_observability.py``.
    """

    enabled = False

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    @property
    def roots(self) -> tuple:
        return ()

    def walk(self) -> Iterator:
        return iter(())

    def find(self, name: str) -> list:
        return []

    @property
    def span_count(self) -> int:
        return 0

    @property
    def total_seconds(self) -> float:
        return 0.0

    def reset(self) -> None:
        pass


NULL_TRACER = NullTracer()
"""The process-wide no-op tracer instance (safe to share everywhere)."""


_default_tracer: "Tracer | NullTracer" = NULL_TRACER


def get_default_tracer() -> "Tracer | NullTracer":
    """The process-wide default tracer (:data:`NULL_TRACER` unless set)."""
    return _default_tracer


def set_default_tracer(tracer: "Tracer | NullTracer | None"
                       ) -> "Tracer | NullTracer":
    """Install ``tracer`` as the process default; returns the previous one.

    ``None`` restores :data:`NULL_TRACER`.  Every constructor that takes
    ``tracer=None`` resolves to this default, which is how the CLI's
    ``--trace`` flag reaches sessions built deep inside an experiment.
    """
    global _default_tracer
    previous = _default_tracer
    _default_tracer = NULL_TRACER if tracer is None else tracer
    return previous


@contextmanager
def use_tracer(tracer: "Tracer | NullTracer"):
    """Context manager installing ``tracer`` as the default, then restoring."""
    previous = set_default_tracer(tracer)
    try:
        yield tracer
    finally:
        set_default_tracer(previous)


def resolve_tracer(tracer: "Tracer | NullTracer | None"
                   ) -> "Tracer | NullTracer":
    """``None`` -> the process default tracer; anything else passes through."""
    return _default_tracer if tracer is None else tracer
