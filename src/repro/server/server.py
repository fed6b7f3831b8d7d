"""The multi-session beamforming server.

One :class:`BeamformingServer` is the "heavy traffic" layer over the
single-stream :class:`repro.runtime.BeamformingService`: N concurrent
probe *sessions* — each its own engine (any registered architecture /
backend / scheme / quantisation, described by an
:class:`repro.api.EngineSpec`) — are multiplexed over one pool of
beamforming worker threads.  The moving parts:

* **Sessions** (:meth:`BeamformingServer.open_session` ->
  :class:`SessionHandle`): a bounded pending-frame queue and a private
  :class:`repro.runtime.BeamformingService`; frames enter through
  :meth:`SessionHandle.submit`.  Frames of one session execute strictly in submission order (at most one
  in flight), so a session's output stream is deterministic.
* **Scheduling**: workers pick the next frame round-robin across sessions
  with pending work — one slow session cannot starve the others.
* **Backpressure** (:class:`repro.server.spec.BackpressurePolicy`): a
  full session queue blocks the submitter, drops its oldest queued frame,
  or refuses the new one; every drop resolves the frame's
  :class:`FrameTicket` with :class:`FrameDropped` and increments visible
  drop counters.
* **Plan sharing**: every session's engine compiles through one shared
  (thread-safe) :class:`repro.runtime.PlanCache` keyed by
  :func:`repro.kernels.plan_key` — two sessions on the same probe/engine
  configuration pay one compile between them, sessions on different
  configurations can never exchange plans.
* **Observability**: per-session queue-depth gauges, drop/frame counters
  and latency histograms (p50/p95/p99 quantiles in the Prometheus
  export), aggregated server totals, and a ``serve`` span root per frame
  carrying the session id.

Bit-identity: beamforming happens in the session's own
``BeamformingService`` on ordinary kernels — the server adds queueing and
scheduling, never arithmetic — so each session's volumes are bit-identical
to :class:`repro.pipeline.ImagingPipeline` on the same spec, including
under concurrent load (pinned in the conformance matrix).

Typical use::

    from repro.server import BeamformingServer
    from repro.api import EngineSpec

    with BeamformingServer(EngineSpec(system="small")) as server:
        probes = [server.open_session() for _ in range(8)]
        tickets = [probe.submit(frame) for probe in probes]
        volumes = [ticket.result().rf for ticket in tickets]
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, fields
from typing import Any, Mapping, Sequence

from ..acoustics.echo import EchoSimulator
from ..api.specs import EngineSpec
from ..observability.metrics import MetricsRegistry
from ..observability.tracing import resolve_tracer
from ..runtime.cache import PlanCache
from ..runtime.scheduler import FrameResult
from ..runtime.service import BeamformingService
from .spec import BackpressurePolicy, ServerSpec, resolve_policy

__all__ = [
    "BeamformingServer",
    "FrameDropped",
    "FrameTicket",
    "ServerClosed",
    "ServerStats",
    "SessionHandle",
    "SessionStats",
]


class ServerClosed(RuntimeError):
    """Submission to (or via) a closed server or session."""


class FrameDropped(RuntimeError):
    """A frame was shed by a ``drop_oldest``/``drop_latest`` policy.

    Raised by :meth:`FrameTicket.result`; carries enough context to tell
    *which* frame the policy sacrificed.
    """

    def __init__(self, session_id: str, frame_id: int,
                 policy: BackpressurePolicy) -> None:
        super().__init__(
            f"frame {frame_id} of session {session_id!r} dropped by the "
            f"{policy.value} backpressure policy")
        self.session_id = session_id
        self.frame_id = frame_id
        self.policy = policy


class FrameTicket:
    """Async handle to one submitted frame: await it, or block on it.

    Thin facade over a :class:`concurrent.futures.Future`.  ``result()``
    returns the :class:`repro.runtime.FrameResult` (or raises
    :class:`FrameDropped` / :class:`ServerClosed` / the beamforming
    error); ``await ticket`` does the same inside an asyncio coroutine.
    """

    __slots__ = ("session_id", "frame_id", "_future")

    def __init__(self, session_id: str, frame_id: int) -> None:
        self.session_id = session_id
        self.frame_id = frame_id
        self._future: "Future[FrameResult]" = Future()

    def result(self, timeout: float | None = None) -> FrameResult:
        """Block until the frame retires and return its result."""
        return self._future.result(timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The frame's error (``None`` on success); blocks like ``result``."""
        return self._future.exception(timeout)

    def done(self) -> bool:
        """Whether the frame has retired (result, drop or error)."""
        return self._future.done()

    def dropped(self) -> bool:
        """Whether the frame retired by being shed (never beamformed)."""
        return (self._future.done()
                and isinstance(self._future.exception(), FrameDropped))

    def add_done_callback(self, fn) -> None:
        """Run ``fn(ticket)`` when the frame retires (see
        :meth:`concurrent.futures.Future.add_done_callback`)."""
        self._future.add_done_callback(lambda _future: fn(self))

    def __await__(self):
        """Awaitable inside an asyncio event loop: ``await ticket``."""
        import asyncio
        return asyncio.wrap_future(self._future).__await__()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self._future.done() else "pending"
        return (f"FrameTicket(session={self.session_id!r}, "
                f"frame={self.frame_id}, {state})")


@dataclass
class _QueuedFrame:
    """One pending submission (internal)."""

    ticket: FrameTicket
    payload: Any
    noise_std: float
    seed: int
    submitted_at: float


def _metric_id(session_id: str) -> str:
    """Session id sanitised for embedding in Prometheus metric names."""
    return re.sub(r"[^A-Za-z0-9_]", "_", session_id)


class _SessionState:
    """Server-internal record of one open session."""

    def __init__(self, server: "BeamformingServer", session_id: str,
                 engine: EngineSpec, service: BeamformingService,
                 capacity: int, policy: BackpressurePolicy,
                 lock: threading.RLock) -> None:
        self.session_id = session_id
        self.engine = engine
        self.service = service
        self.capacity = capacity
        self.policy = policy
        self.queue: "deque[_QueuedFrame]" = deque()
        self.in_flight = False
        self.closed = False
        self.next_frame_id = 0
        # block-policy submitters wait here; workers notify on dequeue.
        self.space = threading.Condition(lock)
        sid = _metric_id(session_id)
        metrics = server.metrics
        self.depth_gauge = metrics.gauge(
            f"server_session_{sid}_queue_depth",
            f"pending frames of session {session_id}")
        self.frames_counter = metrics.counter(
            f"server_session_{sid}_frames_total",
            f"frames beamformed for session {session_id}")
        self.drops_counter = metrics.counter(
            f"server_session_{sid}_drops_total",
            f"frames shed by backpressure for session {session_id}")
        self.latency = metrics.histogram(
            f"server_session_{sid}_latency_seconds",
            f"submit-to-result latency of session {session_id} "
            "(queue wait included)")


@dataclass(frozen=True)
class SessionStats:
    """Point-in-time figures for one session."""

    session_id: str
    frames: int
    drops: int
    queue_depth: int
    p50_latency_seconds: float
    p95_latency_seconds: float
    p99_latency_seconds: float


@dataclass(frozen=True)
class ServerStats:
    """Aggregate figures over every session of a server."""

    workers: int
    frames: int
    drops: int
    voxels: int
    p50_latency_seconds: float
    p95_latency_seconds: float
    p99_latency_seconds: float
    sessions: tuple[SessionStats, ...]


class SessionHandle:
    """Client-side handle to one open session (the submit/await API).

    Obtained from :meth:`BeamformingServer.open_session`; all methods are
    thread-safe.  Closing the handle (or using it as a context manager)
    drains the session and releases its engine.
    """

    def __init__(self, server: "BeamformingServer",
                 state: _SessionState) -> None:
        self._server = server
        self._state = state

    # -------------------------------------------------------------- naming
    @property
    def session_id(self) -> str:
        """The session's unique id (metric names embed it)."""
        return self._state.session_id

    @property
    def engine(self) -> EngineSpec:
        """The engine spec this session beamforms with."""
        return self._state.engine

    @property
    def queue_depth(self) -> int:
        """Frames currently queued (excludes the one in flight)."""
        return len(self._state.queue)

    # ---------------------------------------------------------- submission
    def submit(self, frame: Any, noise_std: float = 0.0, seed: int = 0,
               timeout: float | None = None) -> FrameTicket:
        """Submit one frame; returns immediately with a :class:`FrameTicket`.

        ``frame`` is anything the session's service accepts: raw
        :class:`repro.acoustics.echo.ChannelData`, a per-firing tuple for a
        multi-firing scheme, a phantom (simulated server-side), or a
        pre-built :class:`repro.runtime.FrameRequest`.  Under the ``block``
        policy a full queue blocks up to ``timeout`` seconds (``None`` =
        forever); the drop policies never block.
        """
        return self._server._submit(self._state, frame, noise_std, seed,
                                    timeout=timeout)

    # ------------------------------------------------------------- waiting
    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted frame of this session retired.

        Returns ``False`` on timeout, ``True`` otherwise.
        """
        return self._server._drain(self._state, timeout)

    def stats(self) -> SessionStats:
        """Snapshot of the session's counters and latency percentiles."""
        state = self._state
        p50, p95, p99 = state.latency.percentiles((50, 95, 99))
        return SessionStats(
            session_id=state.session_id,
            frames=int(state.frames_counter.value),
            drops=int(state.drops_counter.value),
            queue_depth=len(state.queue),
            p50_latency_seconds=p50, p95_latency_seconds=p95,
            p99_latency_seconds=p99)

    # ----------------------------------------------------------- lifecycle
    def close(self, drain: bool = True) -> None:
        """Close the session; with ``drain`` (default) finish queued frames
        first, otherwise cancel them (tickets resolve
        :class:`ServerClosed`)."""
        self._server._close_session(self._state, drain=drain)

    def __enter__(self) -> "SessionHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SessionHandle({self.session_id!r}, "
                f"queued={self.queue_depth})")


class BeamformingServer:
    """Multiplexes N beamforming sessions over one worker pool.

    Parameters
    ----------
    spec:
        A :class:`repro.server.ServerSpec` (or its dict form) describing
        the deployment, or a bare :class:`repro.api.EngineSpec` (or its
        dict form with engine keys) used as the default session engine
        with server defaults.  ``None`` = all defaults.
    cache:
        Optional shared :class:`repro.runtime.PlanCache`; ``None`` creates
        one private to the server.  Either way every session compiles
        through it, so sessions with equal plan keys share plans.
    tracer:
        Optional :class:`repro.observability.Tracer`; each frame executes
        under a ``serve`` span (session id + frame id attributes) rooted
        on its worker thread.
    metrics:
        Optional :class:`repro.observability.MetricsRegistry` for the
        server's (and all sessions') instruments; ``None`` creates one.
    simulator:
        Optional pre-built :class:`repro.acoustics.echo.EchoSimulator` for
        the default engine's system (e.g. a :class:`repro.api.Session`'s
        shared one); sessions on other systems still get their own.
    """

    def __init__(self, spec: "ServerSpec | EngineSpec | Mapping | None" = None,
                 *,
                 cache: PlanCache | None = None,
                 tracer: Any = None,
                 metrics: MetricsRegistry | None = None,
                 simulator: EchoSimulator | None = None) -> None:
        if spec is None:
            spec = ServerSpec()
        elif isinstance(spec, EngineSpec) or (
                isinstance(spec, Mapping)
                and not {f.name for f in fields(ServerSpec)} & set(spec)):
            # Accept an EngineSpec (document) where a ServerSpec is
            # expected: a mapping without server keys is the engine.
            spec = ServerSpec(engine=spec)
        else:
            spec = ServerSpec.coerce(spec, "spec")
        self.spec = spec
        self.workers = spec.resolve_workers()
        self.tracer = resolve_tracer(tracer)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.cache = cache if cache is not None \
            else PlanCache(metrics=self.metrics)
        self._lock = threading.RLock()
        self._work = threading.Condition(self._lock)
        self._sessions: dict[str, _SessionState] = {}
        self._order: list[str] = []
        self._cursor = 0
        self._closed = False
        self._next_session = 0
        # Sessions on the same physical system share one echo simulator.
        self._simulators: dict[str, EchoSimulator] = {}
        if simulator is not None:
            key = self.spec.engine.resolve_system().cache_key()
            self._simulators[key] = simulator
        self._frames = self.metrics.counter(
            "server_frames_total", "frames beamformed across all sessions")
        self._drops = self.metrics.counter(
            "server_drops_total", "frames shed by backpressure, all sessions")
        self._errors = self.metrics.counter(
            "server_errors_total", "frames whose beamforming raised")
        self._voxels = self.metrics.counter(
            "server_voxels_total", "voxels reconstructed across all sessions")
        self._sessions_gauge = self.metrics.gauge(
            "server_sessions_active", "currently open sessions")
        self._latency = self.metrics.histogram(
            "server_latency_seconds",
            "submit-to-result latency across all sessions")
        self._threads = [
            threading.Thread(target=self._worker_loop, daemon=True,
                             name=f"repro-serve-{i}")
            for i in range(self.workers)]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------- sessions
    def open_session(self, spec: "EngineSpec | Mapping | None" = None,
                     session_id: str | None = None,
                     queue_capacity: int | None = None,
                     policy: "BackpressurePolicy | str | None" = None
                     ) -> SessionHandle:
        """Open one probe session and return its :class:`SessionHandle`.

        ``spec`` overrides the server's default engine for this session
        (an :class:`repro.api.EngineSpec` or its dict form); queue bound
        and backpressure policy default to the server spec's.
        """
        engine = self.spec.engine if spec is None \
            else EngineSpec.coerce(spec, "session spec")
        capacity = queue_capacity if queue_capacity is not None \
            else self.spec.queue_capacity
        if capacity < 1:
            raise ValueError("queue_capacity must be a positive integer")
        resolved_policy = resolve_policy(
            policy if policy is not None else self.spec.policy)
        with self._lock:
            if self._closed:
                raise ServerClosed("cannot open a session on a closed server")
            if self.spec.max_sessions is not None and \
                    len(self._sessions) >= self.spec.max_sessions:
                raise ServerClosed(
                    f"server is at its max_sessions bound "
                    f"({self.spec.max_sessions})")
            if session_id is None:
                session_id = f"s{self._next_session}"
                self._next_session += 1
            if session_id in self._sessions:
                raise ValueError(f"session id {session_id!r} already open")
            service = self._build_service(engine)
            state = _SessionState(self, session_id, engine, service,
                                  capacity, resolved_policy, self._lock)
            self._sessions[session_id] = state
            self._order.append(session_id)
            self._sessions_gauge.set(len(self._sessions))
        return SessionHandle(self, state)

    def _build_service(self, engine: EngineSpec) -> BeamformingService:
        """One session's engine, sharing the server cache and simulator."""
        if self.spec.session_memory_budget_bytes is not None \
                and engine.memory_budget_bytes is None:
            # Server-wide default; an engine carrying its own budget (even
            # a larger one) tiles to it.  Either way the budget bounds the
            # one shared cache, for every session.
            engine = engine.with_updates(
                memory_budget_bytes=self.spec.session_memory_budget_bytes)
        system = engine.resolve_system()
        simulator = self._simulators.get(system.cache_key())
        if simulator is None:
            simulator = EchoSimulator.from_config(system)
            self._simulators[system.cache_key()] = simulator
        return BeamformingService(engine.build_engine(
            cache=self.cache, simulator=simulator, tracer=self.tracer))

    # ----------------------------------------------------------- submission
    def _submit(self, state: _SessionState, payload: Any, noise_std: float,
                seed: int, timeout: float | None) -> FrameTicket:
        with self._lock:
            if self._closed or state.closed:
                raise ServerClosed(
                    f"session {state.session_id!r} is closed")
            ticket = FrameTicket(state.session_id, state.next_frame_id)
            state.next_frame_id += 1
            dropped: _QueuedFrame | None = None
            if len(state.queue) >= state.capacity:
                if state.policy is BackpressurePolicy.BLOCK:
                    ok = state.space.wait_for(
                        lambda: len(state.queue) < state.capacity
                        or self._closed or state.closed,
                        timeout=timeout)
                    if self._closed or state.closed:
                        raise ServerClosed(
                            f"session {state.session_id!r} closed while "
                            "blocked on a full queue")
                    if not ok:
                        raise TimeoutError(
                            f"queue of session {state.session_id!r} still "
                            f"full after {timeout} s (block policy)")
                elif state.policy is BackpressurePolicy.DROP_OLDEST:
                    dropped = state.queue.popleft()
                else:  # DROP_LATEST: shed the new frame itself.
                    state.drops_counter.inc()
                    self._drops.inc()
                    ticket._future.set_exception(FrameDropped(
                        state.session_id, ticket.frame_id, state.policy))
                    return ticket
            state.queue.append(_QueuedFrame(
                ticket, payload, noise_std, seed, time.perf_counter()))
            state.depth_gauge.set(len(state.queue))
            if dropped is not None:
                state.drops_counter.inc()
                self._drops.inc()
            self._work.notify()
        if dropped is not None:
            # Resolve outside the lock: ticket callbacks are user code.
            dropped.ticket._future.set_exception(FrameDropped(
                state.session_id, dropped.ticket.frame_id, state.policy))
        return ticket

    # ------------------------------------------------------------ scheduling
    def _next_work(self) -> "tuple[_QueuedFrame, _SessionState] | None":
        """Round-robin dequeue across sessions; ``None`` = shut down."""
        with self._work:
            while True:
                n = len(self._order)
                for offset in range(n):
                    sid = self._order[(self._cursor + offset) % n]
                    state = self._sessions[sid]
                    if state.queue and not state.in_flight:
                        self._cursor = (self._cursor + offset + 1) % n
                        item = state.queue.popleft()
                        state.in_flight = True
                        state.depth_gauge.set(len(state.queue))
                        state.space.notify()
                        return item, state
                if self._closed:
                    return None
                self._work.wait()

    def _worker_loop(self) -> None:
        while True:
            work = self._next_work()
            if work is None:
                return
            item, state = work
            result: FrameResult | None = None
            error: BaseException | None = None
            try:
                with self.tracer.span("serve", session=state.session_id,
                                      frame_id=item.ticket.frame_id):
                    result = state.service.submit_frame(
                        item.payload, noise_std=item.noise_std,
                        seed=item.seed)
            except BaseException as exc:  # propagate through the ticket
                error = exc
            latency = time.perf_counter() - item.submitted_at
            with self._lock:
                state.in_flight = False
                if error is None:
                    self._frames.inc()
                    state.frames_counter.inc()
                    self._voxels.inc(result.voxel_count)
                    self._latency.observe(latency)
                    state.latency.observe(latency)
                else:
                    self._errors.inc()
                # The session may have become idle (drain()) or runnable
                # again for another worker.
                self._work.notify_all()
            if error is None:
                item.ticket._future.set_result(result)
            else:
                item.ticket._future.set_exception(error)

    # --------------------------------------------------------------- waiting
    def _drain(self, state: _SessionState, timeout: float | None) -> bool:
        with self._work:
            return self._work.wait_for(
                lambda: not state.queue and not state.in_flight,
                timeout=timeout)

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every session's queue is empty and nothing is in
        flight; ``False`` on timeout."""
        with self._work:
            return self._work.wait_for(
                lambda: all(not s.queue and not s.in_flight
                            for s in self._sessions.values()),
                timeout=timeout)

    # ----------------------------------------------------------------- stats
    def stats(self) -> ServerStats:
        """Aggregate + per-session figures (always safe to call)."""
        with self._lock:
            sessions = tuple(
                SessionHandle(self, state).stats()
                for state in self._sessions.values())
        p50, p95, p99 = self._latency.percentiles((50, 95, 99))
        return ServerStats(
            workers=self.workers,
            frames=int(self._frames.value),
            drops=int(self._drops.value),
            voxels=int(self._voxels.value),
            p50_latency_seconds=p50, p95_latency_seconds=p95,
            p99_latency_seconds=p99,
            sessions=sessions)

    def export_metrics(self) -> MetricsRegistry:
        """The server's complete exportable metric state.

        A fresh registry adopting (by reference) the server's own
        instruments — totals, per-session queue-depth gauges, drop/frame
        counters and latency histograms (quantiles render as Prometheus
        ``summary`` series) — plus the shared plan cache's counters.
        """
        exported = MetricsRegistry()
        exported.merge(self.metrics)
        exported.merge(self.cache.metrics)
        return exported

    # ------------------------------------------------------------- lifecycle
    def _cancel_queue(self, state: _SessionState) -> list[_QueuedFrame]:
        """Pop every pending frame (caller must hold the lock)."""
        cancelled = list(state.queue)
        state.queue.clear()
        state.depth_gauge.set(0)
        state.space.notify_all()
        return cancelled

    def _close_session(self, state: _SessionState, drain: bool) -> None:
        with self._lock:
            if state.session_id not in self._sessions:
                return  # already closed
        if drain:
            self._drain(state, timeout=None)
        with self._lock:
            if state.session_id not in self._sessions:
                return
            state.closed = True
            cancelled = self._cancel_queue(state)
            del self._sessions[state.session_id]
            self._order.remove(state.session_id)
            # Per-session series live only while the session is open.  The
            # state keeps its instruments (SessionHandle.stats(), the frame
            # in flight), and unregistering them in the step that frees
            # the id means a re-opened id starts from fresh ones.
            for instrument in (state.depth_gauge, state.frames_counter,
                               state.drops_counter, state.latency):
                self.metrics.remove(instrument.name)
            self._cursor = 0
            self._sessions_gauge.set(len(self._sessions))
            self._work.notify_all()
        for item in cancelled:
            item.ticket._future.set_exception(ServerClosed(
                f"session {state.session_id!r} closed before frame "
                f"{item.ticket.frame_id} ran"))

    def close(self, drain: bool = True) -> None:
        """Shut the server down.

        With ``drain`` (default) every queued frame finishes first; without
        it pending frames are cancelled (tickets resolve
        :class:`ServerClosed`).  Worker threads are joined.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            # Draining marks the sessions closed only after the queues empty.
            if not drain:
                for state in self._sessions.values():
                    state.closed = True
        if drain:
            self.drain(timeout=None)
        cancelled: list[tuple[_SessionState, list[_QueuedFrame]]] = []
        with self._lock:
            self._closed = True
            for state in self._sessions.values():
                state.closed = True
                cancelled.append((state, self._cancel_queue(state)))
            self._sessions.clear()
            self._order.clear()
            self._sessions_gauge.set(0)
            self._work.notify_all()
        for state, items in cancelled:
            for item in items:
                item.ticket._future.set_exception(ServerClosed(
                    f"server closed before frame {item.ticket.frame_id} "
                    f"of session {state.session_id!r} ran"))
        for thread in self._threads:
            thread.join()

    def __enter__(self) -> "BeamformingServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------- plumbing
    @property
    def session_ids(self) -> Sequence[str]:
        """Ids of the currently open sessions (submission order)."""
        with self._lock:
            return tuple(self._order)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"BeamformingServer(workers={self.workers}, "
                f"sessions={len(self._sessions)}, "
                f"policy={self.spec.policy.value!r})")
