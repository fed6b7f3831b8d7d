"""Declarative, serialisable specs for engines and scans.

An :class:`EngineSpec` describes *everything needed to build a beamforming
engine* — system (preset name or inline :class:`repro.config.SystemConfig`),
delay architecture + options, execution backend + options, apodization,
interpolation and cache sizing — as one frozen, JSON-round-trippable
document, and :meth:`EngineSpec.build_engine` is the one place that builds
that engine.  A :class:`ScanSpec` describes *what to image*: a registered cine
scenario plus frame count, noise and seed.  Together they make a whole run
portable: ship the JSON, rebuild the identical engine anywhere with
``Session(EngineSpec.from_json(text))``.

Architecture/backend names and options are validated eagerly against the
registries (:data:`repro.architectures.ARCHITECTURES`,
:data:`repro.runtime.backends.BACKENDS`, :data:`SCENARIOS`), so a typo in a
spec file fails at load time with the list of registered names, not deep in
a run.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..acoustics.echo import EchoSimulator
from ..architectures import ARCHITECTURES, architecture_name
from ..beamformer.das import ApodizationSettings, DelayAndSumBeamformer, \
    DelayProvider
from ..beamformer.interpolation import InterpolationKind
from ..config import PRESETS, SystemConfig, get_preset
from ..geometry.volume import FocalGrid
from ..kernels import Precision, QuantizationSpec, TilePlanner, \
    parse_memory_budget, resolve_precision
from ..registry import SpecDocument, check_count, decode_options
from ..runtime.backends import BACKENDS
from ..runtime.cache import PlanCache
from ..runtime.scheduler import FrameRequest
from ..scenarios import SCENARIOS, SCHEMES, SchemeEngine, TransmitScheme, \
    resolve_scheme

__all__ = [
    "EngineSpec",
    "ScanSpec",
    "SweepSpec",
    "SCENARIOS",
    "SCHEMES",
    "apply_overrides",
    "parse_assignment",
]


def _check_noise(noise_std: float) -> None:
    """Channel noise must be a finite, non-negative standard deviation."""
    if not math.isfinite(noise_std) or noise_std < 0:
        raise ValueError("noise_std must be finite and non-negative")


# ------------------------------------------------------------- engine spec
@dataclass(frozen=True)
class EngineSpec(SpecDocument):
    """Declarative description of one complete beamforming engine.

    Fields accept both rich objects and their plain-dict/JSON forms (the
    constructor coerces and validates either way), so specs can be built in
    code or loaded from documents interchangeably::

        EngineSpec(system="tiny", architecture="tablesteer",
                   architecture_options={"total_bits": 14})
        EngineSpec.from_json(path.read_text())
    """

    system: str | SystemConfig = "small"
    """Preset name (see :data:`repro.config.PRESETS`) or inline config."""

    architecture: str = "exact"
    """Registered delay-architecture name."""

    architecture_options: Any = None
    """Options dataclass/dict for the architecture (``None`` = defaults)."""

    backend: str = "reference"
    """Registered execution-backend name."""

    backend_options: Any = None
    """Options dataclass/dict for the backend (``None`` = defaults)."""

    apodization: ApodizationSettings = field(
        default_factory=ApodizationSettings)
    """Receive apodization settings (dict form accepted)."""

    interpolation: InterpolationKind = InterpolationKind.NEAREST
    """Echo-sample interpolation strategy (name or enum)."""

    precision: Precision = Precision.FLOAT64
    """Kernel execution dtype policy (``"float64"`` exact /
    ``"float32"`` fast; name or :class:`repro.kernels.Precision`)."""

    quantization: Any = None
    """Bit-true fixed-point execution spec
    (:class:`repro.kernels.QuantizationSpec`, its dict form, a total bit
    width like ``18``, or a delay Q-format string like ``"U13.5"``);
    ``None`` keeps the float kernel path."""

    scheme: str = "focused"
    """Registered transmit-scheme name (see
    :data:`repro.scenarios.SCHEMES`): how each volume is insonified —
    ``focused`` (the paper baseline), ``planewave``,
    ``synthetic_aperture`` or ``diverging``."""

    scheme_options: Any = None
    """Options dataclass/dict for the scheme (``None`` = defaults)."""

    cache_capacity: int = 4
    """Capacity of the session's shared compiled-plan LRU cache, in plans.

    A compounding engine's firings are one entry of F plans, kept alone
    when F exceeds the capacity, so it never thrashes its own plans.
    Under ``memory_budget_bytes`` the byte bound replaces this one."""

    trace: bool = False
    """Record a span trace of every session operation.

    ``True`` makes the session construct a live
    :class:`repro.observability.Tracer` (instead of inheriting the process
    default, normally a no-op) and thread it through its services,
    pipelines and sweeps; read the result back via ``Session.tracer`` or
    the CLI's ``--trace`` / ``--trace-out`` flags.  Tracing is
    observation-only — traced volumes are bit-identical to untraced."""

    memory_budget_bytes: int | str | None = None
    """Plan-memory budget for the engine, in bytes (suffixed strings like
    ``"8G"`` accepted; normalised to an int at validation).

    ``None`` (the default) keeps the historical unbounded behaviour.  With
    a budget, the session's :class:`repro.runtime.cache.PlanCache` is
    byte-bounded, and :class:`repro.kernels.TilePlanner` sizes the plan
    tiles of every engine's backends to it — as many as the budget needs,
    each holding one segment per firing of the scheme, streamed through the
    cache, bit-identical to untiled execution (see ``docs/memory.md``).
    A budget too small to hold one scanline per firing of the resolved
    system and scheme is rejected here with an actionable error naming the
    minimum."""

    def __post_init__(self) -> None:
        system = self.system
        if isinstance(system, dict):
            system = SystemConfig.from_dict(system)
        elif isinstance(system, str):
            if system not in PRESETS:
                raise ValueError(
                    f"unknown system preset {system!r}; "
                    f"available: {', '.join(sorted(PRESETS))}")
        elif isinstance(system, SystemConfig):
            system.validate()
        else:
            raise ValueError(
                "system must be a preset name, a SystemConfig or its dict "
                f"form, got {type(system).__name__}")
        object.__setattr__(self, "system", system)

        arch_name = architecture_name(self.architecture)
        arch_entry = ARCHITECTURES.get(arch_name)
        object.__setattr__(self, "architecture", arch_name)
        if self.architecture_options is not None:
            object.__setattr__(self, "architecture_options",
                               arch_entry.make_options(self.architecture_options))

        backend_entry = BACKENDS.get(self.backend)
        if self.backend_options is not None:
            object.__setattr__(self, "backend_options",
                               backend_entry.make_options(self.backend_options))

        if not isinstance(self.scheme, str):
            raise ValueError(
                "scheme must be a registered scheme name (a pre-built "
                "TransmitScheme goes to build_engine(scheme=...), not to "
                f"a JSON spec), got {type(self.scheme).__name__}")
        scheme_entry = SCHEMES.get(self.scheme)
        if self.scheme_options is not None:
            object.__setattr__(self, "scheme_options",
                               scheme_entry.make_options(self.scheme_options))

        if isinstance(self.apodization, dict):
            object.__setattr__(self, "apodization",
                               decode_options(ApodizationSettings,
                                              self.apodization))
        object.__setattr__(self, "interpolation",
                           InterpolationKind(self.interpolation))
        object.__setattr__(self, "precision",
                           resolve_precision(self.precision))
        object.__setattr__(self, "quantization",
                           QuantizationSpec.coerce(self.quantization))
        if self.quantization is not None:
            # Fail at spec validation, not deep inside an engine build —
            # including a delay format too narrow for the system's echo
            # buffer, which would otherwise saturate every delay.
            self.quantization.validate_for(
                self.precision, self.interpolation,
                self.resolve_system().echo_buffer_samples)
        check_count("cache_capacity", self.cache_capacity)
        if not isinstance(self.trace, bool):
            raise ValueError("trace must be a boolean")
        if self.memory_budget_bytes is not None:
            budget = parse_memory_budget(self.memory_budget_bytes)
            # Plan the tiling eagerly against the resolved system: a budget
            # too small for one scanline per firing (a tile's firings share
            # the budget) fails at spec load with the minimum stated, not
            # at first frame.
            system = self.resolve_system()
            TilePlanner(
                (system.volume.n_theta, system.volume.n_phi,
                 system.volume.n_depth),
                system.transducer.element_count, budget,
                precision=self.precision, interpolation=self.interpolation,
                quantization=self.quantization,
                firings=resolve_scheme(system, self.scheme,
                                       self.scheme_options).firing_count)
            object.__setattr__(self, "memory_budget_bytes", budget)

    # ------------------------------------------------------------ building
    def resolve_system(self) -> SystemConfig:
        """The concrete :class:`SystemConfig` this spec describes."""
        if isinstance(self.system, str):
            return get_preset(self.system)
        return self.system

    def build_engine(self, *, cache: PlanCache | None = None,
                     simulator: EchoSimulator | None = None,
                     grid: FocalGrid | None = None, tracer: Any = None,
                     provider: DelayProvider | None = None,
                     scheme: TransmitScheme | None = None) -> SchemeEngine:
        """The one :class:`repro.scenarios.SchemeEngine` this spec describes.

        The service, the pipeline, a server session and a sweep cell all
        run the engine built here.  Every argument is a shared substrate
        that is built when left out:

        * ``cache`` — the compiled-plan cache; by default a private one
          sized like a session's (``cache_capacity``, byte-bounded by
          ``memory_budget_bytes``);
        * ``simulator`` — the echo simulator the engine acquires with;
          the engine's beamformer reuses its system and transducer;
        * ``grid`` — the focal grid;
        * ``tracer`` — the span tracer; the process default when left out
          (a :class:`repro.api.Session` passes its own);
        * ``provider`` — a pre-built delay provider for this spec's
          architecture (a sweep shares one per architecture);
        * ``scheme`` — this spec's transmit scheme, pre-resolved.
        """
        if simulator is None:
            simulator = EchoSimulator.from_config(self.resolve_system())
        system = simulator.system
        if provider is None:
            provider = ARCHITECTURES.create(self.architecture, system,
                                            options=self.architecture_options)
        if scheme is None:
            scheme = resolve_scheme(system, self.scheme, self.scheme_options)
        if cache is None:
            cache = PlanCache(capacity=self.cache_capacity,
                              max_bytes=self.memory_budget_bytes)
        beamformer = DelayAndSumBeamformer(
            system, provider, apodization=self.apodization,
            interpolation=self.interpolation,
            transducer=simulator.transducer, grid=grid,
            precision=self.precision, quantization=self.quantization)
        # A budget tiles every per-firing backend and byte-bounds the
        # (possibly shared) plan cache.
        return SchemeEngine(
            beamformer, scheme, backend=self.backend,
            backend_options=self.backend_options, cache=cache,
            tracer=tracer, memory_budget_bytes=self.memory_budget_bytes,
            simulator=simulator)


# ---------------------------------------------------------- scan scenarios
# The SCENARIOS registry and its builders live in repro.scenarios.scan
# (imported above and re-exported here); new scenarios register there.


@dataclass(frozen=True)
class ScanSpec(SpecDocument):
    """Declarative description of one cine acquisition to stream."""

    scenario: str = "moving_point"
    """Registered scenario name (see :data:`SCENARIOS`)."""

    frames: int = 8
    """Number of cine frames."""

    noise_std: float = 0.0
    """Additive channel-noise standard deviation."""

    seed: int = 0
    """Base random seed for simulation."""

    options: Any = None
    """Scenario options dataclass/dict (``None`` = scenario defaults)."""

    def __post_init__(self) -> None:
        entry = SCENARIOS.get(self.scenario)
        check_count("frames", self.frames)
        _check_noise(self.noise_std)
        if self.options is not None:
            object.__setattr__(self, "options",
                               entry.make_options(self.options))

    def build_frames(self, system: SystemConfig) -> list[FrameRequest]:
        """Materialise the cine sequence for ``system``."""
        entry = SCENARIOS.get(self.scenario)
        return entry.factory(system, self, entry.make_options(self.options))


# ------------------------------------------------------------- sweep spec
@dataclass(frozen=True)
class SweepSpec(SpecDocument):
    """Declarative scenario x scheme x architecture (x backend) grid.

    One JSON document describes a whole comparative study; feed it to
    :meth:`repro.api.Session.sweep` (``spec=``) to image every cell over
    the session's shared substrates and score it with the
    :mod:`repro.scenarios.scoring` hook::

        Session(EngineSpec(system="tiny")).sweep(spec={
            "scenarios": ["static_point", "cyst"],
            "schemes": ["focused", "planewave"],
            "architectures": ["exact", "tablesteer"],
        })

    Every name is validated eagerly against its registry.
    """

    scenarios: tuple[str, ...] = ("static_point",)
    """Registered scan scenarios; the first frame of each cine is imaged."""

    schemes: tuple[str, ...] = ("focused",)
    """Registered transmit schemes; channel data are acquired once per
    scenario x scheme and shared by every variant.  Options resolve like
    every per-call override: a name matching the session spec's scheme
    keeps the spec's scheme options, other names use their registered
    defaults."""

    architectures: tuple[str, ...] | None = None
    """Delay architectures (``None`` = the session spec's only)."""

    backends: tuple[str, ...] | None = None
    """Execution backends; ``None`` keeps the session spec's backend and
    leaves the backend out of the result keys."""

    noise_std: float = 0.0
    """Additive channel-noise standard deviation."""

    seed: int = 0
    """Base random seed for phantom construction and noise."""

    score: bool = True
    """Attach the FWHM/CNR/gCNR metric dict to every cell."""

    def __post_init__(self) -> None:
        for field_name, registry in (("scenarios", SCENARIOS),
                                     ("schemes", SCHEMES)):
            names = self._name_tuple(field_name)
            if not names:
                raise ValueError(f"{field_name} must not be empty")
            for name in names:
                registry.get(name)
            object.__setattr__(self, field_name, names)
        for field_name, registry in (("architectures", ARCHITECTURES),
                                     ("backends", BACKENDS)):
            if getattr(self, field_name) is not None:
                names = self._name_tuple(field_name)
                if not names:
                    raise ValueError(f"{field_name} must not be empty")
                for name in names:
                    registry.get(name)
                object.__setattr__(self, field_name, names)
        _check_noise(self.noise_std)

    def resolve_grid(self, default_architecture: str, default_backend: str
                     ) -> tuple[tuple[str, ...], tuple[str, ...], bool]:
        """Concrete ``(architectures, backends, keyed_by_backend)`` axes.

        ``None`` axes fall back to the session spec's single
        architecture/backend; the returned flag says whether result keys
        carry the backend component (they do exactly when the spec named
        backends explicitly).  One resolution shared by
        :meth:`repro.api.Session.sweep` and
        :class:`repro.sweep.SweepExecutor`, so in-process and
        store-backed runs always agree on the grid — and on the cell
        keys.
        """
        architectures = self.architectures or (default_architecture,)
        backends = self.backends or (default_backend,)
        return architectures, backends, self.backends is not None

    def _name_tuple(self, field_name: str) -> tuple[str, ...]:
        """Coerce a name-list field, rejecting a bare string.

        ``{"scenarios": "cyst"}`` in a hand-written document would
        otherwise iterate character by character and fail with a baffling
        ``unknown scenario 'c'``.
        """
        value = getattr(self, field_name)
        if isinstance(value, str):
            raise ValueError(
                f"{field_name} must be a list of names, not the string "
                f"{value!r}")
        return tuple(value)


# ---------------------------------------------------------------- overrides
def parse_assignment(text: str) -> tuple[str, Any]:
    """Split a ``key=value`` override; values parse as JSON, else strings.

    ``architecture_options.total_bits=14`` -> ``("architecture_options.total_bits", 14)``;
    ``backend=reference`` -> ``("backend", "reference")``.
    """
    key, sep, raw = text.partition("=")
    key = key.strip()
    if not sep or not key:
        raise ValueError(f"override must look like key=value, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw.strip()
    return key, value


def apply_overrides(data: dict, assignments: Iterable[str]) -> dict:
    """Apply dotted-path ``key=value`` overrides to a spec dict (pure).

    Intermediate mappings are created on demand, so
    ``architecture_options.delta=0.5`` works even when the spec had
    ``architecture_options: null``.
    """
    data = copy.deepcopy(data)
    for text in assignments:
        key, value = parse_assignment(text)
        parts = key.split(".")
        node = data
        for depth, part in enumerate(parts[:-1]):
            child = node.get(part)
            if child is None:
                child = {}
                node[part] = child
            elif not isinstance(child, dict):
                # E.g. descending into a preset *name* with system.foo=...;
                # clobbering the scalar would silently discard the preset.
                raise ValueError(
                    f"cannot apply override {key!r}: "
                    f"{'.'.join(parts[:depth + 1])!r} is {child!r}, "
                    f"not a mapping")
            node = child
        node[parts[-1]] = value
    return data
