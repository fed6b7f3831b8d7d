"""The Session facade: one spec, shared substrates, many engines.

A :class:`Session` resolves an :class:`repro.api.specs.EngineSpec` once —
system config, echo simulator, transducer, focal grid and the shared
delay-table cache — and then vends imaging pipelines, streaming services
and architecture/backend sweeps bound to those shared objects.  Building
the substrates once is what makes comparative studies honest (every
variant sees the same probe, grid and channel data) and cheap (nothing is
rebuilt per variant).
"""

from __future__ import annotations

from typing import Any, Mapping

from ..acoustics.echo import ChannelData, EchoSimulator
from ..acoustics.phantom import Phantom
from ..geometry.volume import FocalGrid
from ..kernels import Precision
from ..observability.metrics import MetricsRegistry
from ..observability.tracing import Tracer, get_default_tracer
from ..pipeline.imaging import ImagingPipeline
from ..runtime.cache import PlanCache
from ..runtime.scheduler import FrameResult
from ..runtime.service import BeamformingService
from ..scenarios import SCHEMES, SchemeEngine, TransmitScheme, \
    acquire_firings, resolve_scheme
from .specs import EngineSpec, ScanSpec, SweepSpec, name_override

__all__ = ["Session"]

_INHERIT = object()
"""Default sentinel for per-call overrides whose ``None`` spelling is
meaningful: for ``quantization``, ``None`` explicitly *disables* the
spec-level quantisation (yielding the float variant), while leaving the
argument out inherits the spec."""


class Session:
    """Engine builder bound to one :class:`EngineSpec`.

    Usage::

        from repro.api import EngineSpec, Session

        session = Session(EngineSpec(system="tiny", architecture="tablesteer",
                                     backend="vectorized"))
        image = session.pipeline().image_phantom(phantom)
        results = session.stream(ScanSpec(frames=8))
        channel_data = session.acquire(phantom)
        images = {name: session.pipeline(architecture=name)
                  .image_plane(channel_data)
                  for name in ("exact", "tablefree")}

    The simulator, transducer, focal grid and delay-table cache are built
    once in the constructor and shared by every pipeline/service the
    session vends — including across ``architecture=``/``backend=``
    overrides, so sweeps differ only in what the spec says they differ in.

    Pipelines and services hold no resource of their own (their plans
    live in the shared cache), so the session does not track them: one
    dropped by the caller is freed.  Only the servers it vends, which run
    worker threads, are closed by :meth:`close`.
    """

    def __init__(self, spec: EngineSpec | Mapping | None = None) -> None:
        spec = EngineSpec() if spec is None else EngineSpec.coerce(spec)
        self.spec = spec
        self.system = spec.resolve_system()
        self.simulator = EchoSimulator.from_config(self.system)
        self.transducer = self.simulator.transducer
        self.grid = FocalGrid.from_config(self.system)
        self.scheme = resolve_scheme(self.system, spec.scheme,
                                     spec.scheme_options)
        # spec.trace=True records a live span tree on this session;
        # otherwise the session inherits the process default tracer (a
        # no-op unless e.g. the CLI's --trace installed one).
        self.tracer = Tracer() if spec.trace else get_default_tracer()
        self.metrics = MetricsRegistry()
        # A spec-level memory budget byte-bounds the shared cache: every
        # pipeline/service/server this session vends then streams tiled
        # plan segments through it instead of overflowing it.  Without a
        # budget, it holds ``cache_capacity`` plans; an entry holding more
        # (a compounding engine's firings) is kept alone.
        self.cache = PlanCache(capacity=spec.cache_capacity,
                               metrics=self.metrics,
                               max_bytes=spec.memory_budget_bytes)
        self._servers: list[Any] = []

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close every server this session vended, joining its workers.

        The shared simulator, grid and plan cache stay.  Idempotent, and
        the session remains usable.  The session is a context manager::

            with Session(spec) as session:
                server = session.server(workers=2)
        """
        servers, self._servers = self._servers, []
        for server in reversed(servers):
            server.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------ builders
    def _variant(self, *, architecture: str | None = None,
                 backend: str | None = None,
                 architecture_options: Any = None,
                 backend_options: Any = None,
                 precision: Precision | str | None = None,
                 quantization: Any = _INHERIT,
                 scheme: str | None = None,
                 scheme_options: Any = None,
                 memory_budget_bytes: Any = _INHERIT) -> EngineSpec:
        """The session spec with per-call overrides (see :meth:`pipeline`),
        validated exactly like a spec document."""
        changes: dict[str, Any] = {}
        for name, value, options in (
                ("architecture", architecture, architecture_options),
                ("backend", backend, backend_options),
                ("scheme", scheme, scheme_options)):
            changes.update(name_override(name, getattr(self.spec, name),
                                         value, options))
        if precision is not None:
            changes["precision"] = precision
        if quantization is not _INHERIT:
            changes["quantization"] = quantization
        if memory_budget_bytes is not _INHERIT:
            changes["memory_budget_bytes"] = memory_budget_bytes
        return self.spec.with_updates(**changes) if changes else self.spec

    def _scheme(self, name: str, options: Any) -> TransmitScheme:
        """The transmit scheme ``name`` with ``options``; the session's own
        when unchanged."""
        if options is not None:
            options = SCHEMES.get(name).make_options(options)
        if (name, options) == (self.spec.scheme, self.spec.scheme_options):
            return self.scheme
        return resolve_scheme(self.system, name, options)

    def _engine(self, cache: PlanCache | None, provider: Any,
                overrides: dict[str, Any]) -> SchemeEngine:
        """The engine of one vended facade, over the shared substrates."""
        spec = self._variant(**overrides)
        return spec.build_engine(
            cache=cache if cache is not None else self.cache,
            simulator=self.simulator, grid=self.grid, tracer=self.tracer,
            provider=provider,
            scheme=self._scheme(spec.scheme, spec.scheme_options))

    def pipeline(self, cache: PlanCache | None = None, provider: Any = None,
                 **overrides: Any) -> ImagingPipeline:
        """An :class:`ImagingPipeline` over the shared substrates.

        ``overrides`` swap the variant while the simulator, transducer,
        grid and cache stay shared: ``architecture``, ``backend`` and
        ``scheme`` (each with its ``*_options``), ``precision``,
        ``quantization`` and ``memory_budget_bytes``.  Each defaults to
        the session spec.  Switching the architecture, backend or scheme
        drops the spec's options for it (they belong to the spec's
        variant) unless options are given; options alone re-derive the
        spec's variant — the rule of :func:`repro.api.specs.name_override`,
        which the CLI's name flags share.  ``quantization=None``
        explicitly *disables* a spec-level quantisation (e.g. to compare
        the float and bit-true variants of one quantized session); likewise
        ``memory_budget_bytes=None`` lifts a spec-level budget.

        ``cache`` replaces the session's plan cache for this one
        pipeline; a pre-built ``provider`` skips delay-generator
        construction entirely.
        """
        return ImagingPipeline(self._engine(cache, provider, overrides))

    def service(self, cache: PlanCache | None = None,
                **overrides: Any) -> BeamformingService:
        """A streaming :class:`BeamformingService` over the shared
        substrates; ``cache`` and ``overrides`` as in :meth:`pipeline`."""
        return BeamformingService(self._engine(cache, None, overrides))

    def server(self, spec: "ServerSpec | Mapping | None" = None,
               workers: int | None = None,
               queue_capacity: int | None = None,
               policy: Any = None) -> "BeamformingServer":
        """A multi-session :class:`repro.server.BeamformingServer` whose
        default engine is this session's spec.

        The server shares the session's plan cache (all its sessions
        compile through it), simulator, tracer and metrics registry.  Pass
        a full :class:`repro.server.ServerSpec` to control everything, or
        just the common knobs; a spec's ``engine`` must be left at the
        default — the session's own spec is the engine.  The server is
        closed by :meth:`close`.
        """
        from ..server import BeamformingServer, ServerSpec

        if spec is None:
            spec = ServerSpec(engine=self.spec)
        else:
            spec = ServerSpec.coerce(spec)
            if spec.engine != EngineSpec():
                raise ValueError(
                    "Session.server() binds the session's own spec as the "
                    "server engine; leave the ServerSpec's engine at its "
                    "default (or build a BeamformingServer directly)")
            spec = spec.with_updates(engine=self.spec)
        changes: dict[str, Any] = {}
        if workers is not None:
            changes["workers"] = workers
        if queue_capacity is not None:
            changes["queue_capacity"] = queue_capacity
        if policy is not None:
            changes["policy"] = policy
        if changes:
            spec = spec.with_updates(**changes)
        server = BeamformingServer(spec, cache=self.cache,
                                   tracer=self.tracer, metrics=self.metrics,
                                   simulator=self.simulator)
        self._servers.append(server)
        return server

    # ------------------------------------------------------------- running
    def acquire(self, phantom: Phantom, noise_std: float = 0.0,
                seed: int = 0) -> ChannelData:
        """Simulate one insonification with the shared simulator."""
        with self.tracer.span("simulate"):
            return self.simulator.simulate(phantom, noise_std=noise_std,
                                           seed=seed)

    def acquire_firings(self, phantom: Phantom,
                        scheme: Any = None, scheme_options: Any = None,
                        noise_std: float = 0.0,
                        seed: int = 0) -> list[ChannelData]:
        """Simulate every firing of a transmit scheme (spec's by default).

        Returns one :class:`ChannelData` per scheme event, acquired with
        the shared simulator, ready for
        :meth:`repro.pipeline.ImagingPipeline.compound_volume`.  The scheme
        override resolves as in :meth:`pipeline`, but no engine spec is
        built: a memory budget too small to beamform the scheme's firings
        does not refuse to simulate them.
        """
        changes = name_override("scheme", self.spec.scheme, scheme,
                                scheme_options)
        resolved = self._scheme(
            changes.get("scheme", self.spec.scheme),
            changes.get("scheme_options", self.spec.scheme_options))
        with self.tracer.span("simulate", firings=resolved.firing_count):
            return acquire_firings(self.simulator, resolved, phantom,
                                   noise_std=noise_std, seed=seed)

    def stream(self, scan: ScanSpec | Mapping | None = None,
               batch_size: int = 1,
               **service_overrides: Any) -> list[FrameResult]:
        """Stream a :class:`ScanSpec` cine through a spec-configured service.

        ``batch_size > 1`` groups frames into batched kernel executions
        (see :meth:`BeamformingService.submit_batch`).
        """
        scan = ScanSpec() if scan is None else ScanSpec.coerce(scan)
        return self.service(**service_overrides).stream_all(
            scan.build_frames(self.system), batch_size=batch_size)

    def sweep(self, spec: SweepSpec | Mapping | str) -> dict[tuple, dict]:
        """Run a scenario x scheme x architecture (x backend) grid.

        ``spec`` is a :class:`repro.api.SweepSpec`, its dict form or its
        JSON text.  Each scenario's phantom is built from its registry
        entry, its firings are acquired once per scheme and shared across
        every architecture/backend variant, and each cell maps
        ``(scenario, scheme, architecture[, backend])`` to
        ``{"volume": rf, "metrics": {...}}`` with the
        :func:`repro.scenarios.score_volume` figures of merit.

        The grid runs through :class:`repro.sweep.SweepExecutor` without a
        store; store-backed, resumable runs build the executor directly
        and are bit-identical by construction.  To compare architectures
        on one acquisition, loop over :meth:`pipeline` (see the class
        docstring).
        """
        from ..sweep.executor import SweepExecutor
        spec = SweepSpec.from_json(spec) if isinstance(spec, str) \
            else SweepSpec.coerce(spec)
        return SweepExecutor(self).run(spec)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        system = self.system.name
        return (f"Session(system={system!r}, "
                f"architecture={self.spec.architecture!r}, "
                f"backend={self.spec.backend!r})")
