"""The streaming beamforming service: frames in, volumes + metrics out.

:class:`BeamformingService` is the facade over the whole runtime subsystem.
It runs one engine — a delay architecture, an execution backend and a
:class:`repro.kernels.Precision` policy, built from an
:class:`repro.api.EngineSpec` by :meth:`repro.api.EngineSpec.build_engine`.
It simulates acquisitions when a frame arrives as a phantom, beamforms
each frame (or batches of frames at once), and keeps per-frame latency
plus aggregate throughput counters — the software analogue of the paper's
volumes-per-second budget (Section II-C).  Compiled
:class:`repro.kernels.BeamformingPlan` artifacts flow through a shared
:class:`repro.runtime.cache.PlanCache`, so a cine sequence pays the plan
compilation cost exactly once.

Typical use::

    from repro.api import EngineSpec, Session
    from repro.runtime import moving_point_cine

    session = Session(EngineSpec(system="small", architecture="tablesteer",
                                 backend="vectorized"))
    service = session.service()
    for result in service.stream(moving_point_cine(service.system, 8)):
        print(result.frame_id, result.latency_seconds)
    print(service.stats().frames_per_second)
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ..acoustics.echo import ChannelData
from ..acoustics.phantom import Phantom
from ..observability.metrics import MetricsRegistry
from .cache import CacheStats
from .scheduler import FrameRequest, FrameResult

if TYPE_CHECKING:  # pragma: no cover - repro.scenarios builds on this package
    from ..scenarios.engine import SchemeEngine


@dataclass(frozen=True)
class RuntimeStats:
    """Aggregate throughput figures over every frame the service processed."""

    backend: str
    precision: str
    frames: int
    voxels: int
    acquire_seconds: float
    beamform_seconds: float
    mean_latency_seconds: float
    max_latency_seconds: float
    cache: CacheStats
    quantization: str | None = None
    """Datapath description when the service runs the bit-true quantized
    kernel path (see :meth:`repro.kernels.QuantizationSpec.describe`)."""

    scheme: str | None = None
    """Transmit-scheme summary (``name (n firings)``) when the service
    compounds a non-trivial scheme; ``None`` for the focused baseline."""

    p50_latency_seconds: float = 0.0
    """Median per-frame latency (0.0 before any frame was processed)."""

    p95_latency_seconds: float = 0.0
    """95th-percentile per-frame latency (0.0 before any frame)."""

    p99_latency_seconds: float = 0.0
    """99th-percentile per-frame latency — the tail figure a real-time
    volume-rate budget is actually constrained by (0.0 before any frame)."""

    @property
    def total_seconds(self) -> float:
        """Total processing time across acquisition and beamforming."""
        return self.acquire_seconds + self.beamform_seconds

    @property
    def frames_per_second(self) -> float:
        """Sustained volume rate over the beamforming time alone."""
        return self.frames / self.beamform_seconds if self.beamform_seconds else 0.0

    @property
    def voxels_per_second(self) -> float:
        """Sustained reconstruction rate in voxels/s."""
        return self.voxels / self.beamform_seconds if self.beamform_seconds else 0.0


class BeamformingService:
    """Streaming frame-to-volume beamforming over one engine.

    ``engine`` is the :class:`repro.scenarios.SchemeEngine` built by
    :meth:`repro.api.EngineSpec.build_engine` (normally via
    :meth:`repro.api.Session.service`); the service reads its system,
    beamformer, precision, quantisation, scheme, plan cache, tracer and
    memory budget off it.  Every frame runs through that engine: a
    multi-firing scheme simulates one acquisition per event and coherently
    compounds the per-firing volumes; the focused baseline is a one-firing
    engine on the bare architecture.  The tracer opens ``frame`` /
    ``simulate`` / ``beamform`` spans (nesting the backend's
    ``compile``/``execute``/``gather``/… spans) around every frame.

    ``metrics`` is the :class:`repro.observability.MetricsRegistry` the
    service registers its instruments in (frame/voxel counters, the
    latency histogram); ``None`` creates a private registry.  See
    :meth:`export_metrics` for the exported view.
    """

    def __init__(self, engine: "SchemeEngine",
                 metrics: MetricsRegistry | None = None) -> None:
        self.engine = engine
        self.system = engine.system
        self.beamformer = engine.beamformer
        self.precision = engine.precision
        self.quantization = engine.quantization
        self.scheme = engine.scheme
        self.cache = engine.cache
        self.tracer = engine.tracer
        self.memory_budget_bytes = engine.memory_budget_bytes
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Monotonic id source for auto-assigned frames; unlike the stats
        # counters it survives reset_stats(), so ids never repeat within
        # one service lifetime.
        self._next_frame_id = 0
        self._frames = self.metrics.counter(
            "service_frames_total", "frames beamformed by this service")
        self._voxels = self.metrics.counter(
            "service_voxels_total", "voxels reconstructed by this service")
        self._acquire_seconds = self.metrics.counter(
            "service_acquire_seconds_total",
            "wall seconds spent simulating acquisitions")
        self._beamform_seconds = self.metrics.counter(
            "service_beamform_seconds_total",
            "wall seconds spent beamforming frames")
        self._latency = self.metrics.histogram(
            "service_latency_seconds",
            "per-frame latency (acquire + beamform) in seconds")

    # ------------------------------------------------------------ identity
    @property
    def backend_name(self) -> str:
        """Name of the active execution backend."""
        return self.engine.backends[0].name

    # ------------------------------------------------------------- frames
    def _coerce_request(self, frame: FrameRequest | ChannelData | Phantom,
                        noise_std: float, seed: int) -> FrameRequest:
        """Wrap a raw payload in a :class:`FrameRequest` with a fresh id.

        Under a multi-firing scheme, pre-recorded frames arrive as a
        sequence of per-firing :class:`ChannelData` (one per scheme
        event), carried in the request's ``channel_data`` slot.
        """
        if isinstance(frame, FrameRequest):
            request = frame
        elif isinstance(frame, ChannelData):
            request = FrameRequest(frame_id=self._next_frame_id,
                                   channel_data=frame)
        elif isinstance(frame, (tuple, list)):
            firings = tuple(frame)
            if not firings or not all(isinstance(firing, ChannelData)
                                      for firing in firings):
                # Without this, a malformed sequence would fall into the
                # phantom branch and die deep in the echo simulator.
                raise ValueError(
                    "a per-firing frame must be a non-empty sequence of "
                    "ChannelData (one per scheme event)")
            request = FrameRequest(frame_id=self._next_frame_id,
                                   channel_data=firings)
        else:
            request = FrameRequest(frame_id=self._next_frame_id, phantom=frame,
                                   noise_std=noise_std, seed=seed)
        # Auto-assigned ids continue above the highest id seen, so mixing
        # explicit FrameRequests with raw payloads cannot collide either.
        self._next_frame_id = max(self._next_frame_id, request.frame_id + 1)
        return request

    def _acquire(self, request: FrameRequest
                 ) -> tuple[tuple[ChannelData, ...], float]:
        """One request's per-firing channel data + acquisition time spent.

        A bare :class:`ChannelData` is a one-firing frame.  The engine
        checks the firing count when it beamforms.
        """
        payload = request.channel_data
        if isinstance(payload, ChannelData):
            return (payload,), 0.0
        if payload is not None:
            return tuple(payload), 0.0
        start = time.perf_counter()
        with self.tracer.span("simulate"):
            firings = tuple(self.engine.acquire(
                request.phantom, noise_std=request.noise_std,
                seed=request.seed))
        return firings, time.perf_counter() - start

    def _record(self, result: FrameResult) -> FrameResult:
        """Fold one frame's figures into the aggregate instruments."""
        self._frames.inc()
        self._voxels.inc(result.voxel_count)
        self._acquire_seconds.inc(result.acquire_seconds)
        self._beamform_seconds.inc(result.beamform_seconds)
        self._latency.observe(result.latency_seconds)
        return result

    def submit_frame(self, frame: FrameRequest | ChannelData | Phantom,
                     noise_std: float = 0.0, seed: int = 0) -> FrameResult:
        """Beamform one frame and record its latency.

        ``frame`` may be a full :class:`FrameRequest`, raw
        :class:`ChannelData`, or a :class:`Phantom` (simulated first using
        ``noise_std``/``seed``).
        """
        request = self._coerce_request(frame, noise_std, seed)
        with self.tracer.span("frame", frame_id=request.frame_id):
            firings, acquire_seconds = self._acquire(request)

            start = time.perf_counter()
            with self.tracer.span("beamform"):
                rf = self.engine.beamform_volume(
                    firings, frame_id=request.frame_id)
            beamform_seconds = time.perf_counter() - start

        return self._record(FrameResult(
            frame_id=request.frame_id, rf=rf, backend=self.backend_name,
            acquire_seconds=acquire_seconds,
            beamform_seconds=beamform_seconds))

    def submit_batch(self,
                     frames: Sequence[FrameRequest | ChannelData | Phantom],
                     noise_std: float = 0.0, seed: int = 0
                     ) -> list[FrameResult]:
        """Beamform several frames in one batched kernel execution.

        All frames are beamformed in one
        :meth:`ExecutionBackend.compound` call (one stacked gather per
        firing and tile on the plan-based backends), which amortises
        per-frame dispatch; the batch's beamform time is attributed evenly across its
        frames so the aggregate throughput stats stay comparable with
        per-frame submission.
        """
        requests = [self._coerce_request(frame, noise_std, seed)
                    for frame in frames]
        if not requests:
            return []
        with self.tracer.span("batch", frames=len(requests)):
            acquired = [self._acquire(request) for request in requests]

            start = time.perf_counter()
            with self.tracer.span("beamform"):
                volumes = self.engine.beamform_batch(
                    [firings for firings, _ in acquired],
                    frame_ids=[request.frame_id for request in requests])
            per_frame_seconds = (time.perf_counter() - start) / len(requests)

        # copy() decouples each frame's lifetime from the whole batch
        # buffer — a retained single FrameResult must not pin n_frames
        # volumes in memory.
        return [self._record(FrameResult(
            frame_id=request.frame_id, rf=volumes[i].copy(),
            backend=self.backend_name, acquire_seconds=acquire_seconds,
            beamform_seconds=per_frame_seconds))
            for i, (request, (_, acquire_seconds))
            in enumerate(zip(requests, acquired))]

    def stream(self, frames: Iterable[FrameRequest],
               batch_size: int = 1) -> Iterator[FrameResult]:
        """Beamform a sequence of frames lazily, in submission order.

        With ``batch_size > 1``, frames are grouped and each group runs
        through :meth:`submit_batch` (results are still yielded one by one,
        so downstream consumers are agnostic to the batching).
        """
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if batch_size == 1:
            for request in frames:
                yield self.submit_frame(request)
            return
        pending: list[FrameRequest] = []
        for request in frames:
            pending.append(request)
            if len(pending) == batch_size:
                yield from self.submit_batch(pending)
                pending = []
        if pending:
            yield from self.submit_batch(pending)

    def stream_all(self, frames: Iterable[FrameRequest],
                   batch_size: int = 1) -> list[FrameResult]:
        """Eager variant of :meth:`stream` returning all results at once."""
        return list(self.stream(frames, batch_size=batch_size))

    # -------------------------------------------------------------- stats
    def stats(self) -> RuntimeStats:
        """Aggregate metrics over every frame processed so far.

        Every figure comes straight off the metrics instruments; the
        latency histogram reports 0.0 for mean/max/percentiles on a fresh
        or freshly reset service (no observations yet), so ``stats()`` is
        always safe to call.
        """
        latency = self._latency
        p50, p95, p99 = latency.percentiles((50, 95, 99))
        return RuntimeStats(
            backend=self.backend_name,
            precision=self.precision.value,
            frames=int(self._frames.value),
            voxels=int(self._voxels.value),
            acquire_seconds=self._acquire_seconds.value,
            beamform_seconds=self._beamform_seconds.value,
            mean_latency_seconds=latency.mean,
            max_latency_seconds=latency.max,
            cache=self.cache.stats,
            quantization=self.quantization.describe()
            if self.quantization is not None else None,
            scheme=None if self.scheme.is_trivial()
            else self.scheme.describe(),
            p50_latency_seconds=p50, p95_latency_seconds=p95,
            p99_latency_seconds=p99)

    def export_metrics(self) -> MetricsRegistry:
        """The service's complete exportable metric state.

        A fresh registry adopting (by reference) the service's own
        instruments, the plan cache's counters (merged in from the cache's
        registry, which a shared cache fills across services), and derived
        ``service_frames_per_second`` / ``service_voxels_per_second``
        gauges — the payload behind the CLI's ``--metrics-out``.
        """
        exported = MetricsRegistry()
        exported.merge(self.metrics)
        exported.merge(self.cache.metrics)
        stats = self.stats()
        exported.gauge(
            "service_frames_per_second",
            "sustained volume rate over beamforming time"
        ).set(stats.frames_per_second)
        exported.gauge(
            "service_voxels_per_second",
            "sustained reconstruction rate over beamforming time"
        ).set(stats.voxels_per_second)
        return exported

    def reset_stats(self) -> None:
        """Zero the stats instruments (the plan cache is kept).

        Only the service's own instruments are reset — a plan cache's
        counters describe the cache (which survives the reset), and on a
        shared cache they belong to other services too.  Auto-assigned
        frame ids are *not* reset either: they come from a separate
        monotonic counter, so frames submitted after a reset never reuse
        ids of frames submitted before it.
        """
        for instrument in (self._frames, self._voxels, self._acquire_seconds,
                           self._beamform_seconds, self._latency):
            instrument.reset()
