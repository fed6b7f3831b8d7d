"""repro.api: the declarative, registry-driven public surface.

Three ideas compose here:

* **Registries** (:data:`ARCHITECTURES`, :data:`BACKENDS`,
  :data:`SCENARIOS`) — open name -> plugin maps.  A new delay architecture,
  execution backend or scan scenario is one ``@REGISTRY.register(...)``
  with a factory and an options dataclass; every consumer (pipelines,
  services, CLI, specs) resolves names through the registry, so no other
  file changes.
* **Specs** (:class:`EngineSpec`, :class:`ScanSpec`) — frozen, validated,
  JSON-round-trippable documents describing a whole engine and a whole
  acquisition.  ``EngineSpec.from_dict(spec.to_dict())`` rebuilds an
  equivalent engine anywhere.
* **Session** (:class:`Session`) — resolves a spec once (system, simulator,
  transducer, grid, shared delay-table cache) and vends pipelines,
  streaming services and architecture/backend sweeps over those shared
  substrates.

Quick start::

    from repro.api import EngineSpec, ScanSpec, Session

    spec = EngineSpec(system="tiny", architecture="tablesteer",
                      backend="vectorized")
    session = Session(spec)
    for result in session.stream(ScanSpec(scenario="moving_point", frames=8)):
        print(result.frame_id, result.latency_seconds)

Extending (a complete new architecture, nothing else to edit)::

    from dataclasses import dataclass
    from repro.api import ARCHITECTURES

    @dataclass(frozen=True)
    class MyOptions:
        gain: float = 1.0

    @ARCHITECTURES.register("mine", options=MyOptions, description="...")
    def _build(system, options):
        return MyDelayProvider(system, options.gain)

    Session(EngineSpec(system="tiny", architecture="mine")).pipeline()
"""

from ..architectures import ARCHITECTURES
from ..registry import (
    Registry,
    RegistryEntry,
    RegistryError,
    decode_options,
    encode_options,
)
from ..kernels import Precision, QuantizationSpec
from ..runtime.backends import BACKENDS
from ..scenarios import (
    CystOptions,
    DivergingOptions,
    FocusedOptions,
    MovingPointOptions,
    MovingScatterersOptions,
    MultiCystOptions,
    PlaneWaveOptions,
    SpeckleOptions,
    StaticPointOptions,
    SyntheticApertureOptions,
    TransmitEvent,
    TransmitScheme,
    WireGridOptions,
    score_volume,
)
from ..server.spec import BackpressurePolicy, ServerSpec
from ..sweep.spec import SweepRunSpec
from .session import Session
from .specs import (
    SCENARIOS,
    SCHEMES,
    EngineSpec,
    ScanSpec,
    SweepSpec,
    apply_overrides,
    parse_assignment,
)

__all__ = [
    "ARCHITECTURES",
    "BACKENDS",
    "SCENARIOS",
    "SCHEMES",
    "BackpressurePolicy",
    "EngineSpec",
    "ServerSpec",
    "Precision",
    "QuantizationSpec",
    "ScanSpec",
    "Session",
    "SweepRunSpec",
    "SweepSpec",
    "Registry",
    "RegistryEntry",
    "RegistryError",
    "CystOptions",
    "DivergingOptions",
    "FocusedOptions",
    "MovingPointOptions",
    "MovingScatterersOptions",
    "MultiCystOptions",
    "PlaneWaveOptions",
    "SpeckleOptions",
    "StaticPointOptions",
    "SyntheticApertureOptions",
    "TransmitEvent",
    "TransmitScheme",
    "WireGridOptions",
    "apply_overrides",
    "parse_assignment",
    "decode_options",
    "encode_options",
    "score_volume",
]
