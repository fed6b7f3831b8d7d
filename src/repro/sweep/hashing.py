"""Content-addressed identity for sweep grid cells.

A sweep cell's result is a pure function of its fully-resolved
configuration: the physical system, the scenario (and its registered
options), the transmit scheme, the delay architecture, the execution
backend, the apodization/interpolation/precision/quantisation policy and
the noise/seed pair.  :func:`resolved_cell_spec` canonicalises all of that
into one plain JSON-safe dict — reusing the :func:`repro.kernels.plan_key`
idiom of hashing *resolved* components (``SystemConfig.cache_key()``
digests the physics name-independently; options encode through
:func:`repro.registry.encode_options` after the same inherit-if-name-
matches rule :meth:`repro.api.Session.pipeline` applies) — and
:func:`cell_key` digests it into the stable hex key the
:class:`repro.sweep.SweepStore` files artifacts under.

What is deliberately *excluded*: observation-only spec fields (``trace``,
``cache_capacity``) and ``memory_budget_bytes`` — tiled execution is
pinned bit-identical to untiled by the conformance matrix, so a budget
changes how a cell is computed, never what it computes.  Backend options
*are* included even though conforming backends are bit-identical: options
like fastmath deliberately trade exactness, so they must key apart.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from ..api.specs import EngineSpec, SweepSpec
from ..architectures import ARCHITECTURES
from ..registry import encode_options
from ..runtime.backends import BACKENDS
from ..scenarios import SCENARIOS, SCHEMES

__all__ = ["CELL_SPEC_FORMAT", "cell_key", "resolved_cell_spec"]

CELL_SPEC_FORMAT = 1
"""Version stamp baked into every cell spec (and therefore every key).

Bump it whenever the *meaning* of a stored artifact changes — e.g. the
scoring schema or the acquisition recipe — so stale stores miss instead
of serving results computed under the old semantics.
"""


def _resolved_options(engine_name: str, engine_options: Any,
                      registry: Any, name: str) -> dict | None:
    """Registry options for ``name``, resolved like a per-call override.

    Mirrors :meth:`repro.api.Session._variant`: a grid axis value
    matching the session spec's name inherits the spec's options, any
    other name uses its registered defaults.  The *resolved* instance is
    then encoded, so a cell keyed today still matches after a registry
    default changes its spelled form (defaults are materialised, not
    implied).
    """
    options = engine_options if name == engine_name else None
    return encode_options(registry.get(name).make_options(options))


def resolved_cell_spec(engine: EngineSpec, sweep: SweepSpec, scenario: str,
                       scheme: str, architecture: str, backend: str) -> dict:
    """The canonical JSON-safe document identifying one grid cell."""
    return {
        "format": CELL_SPEC_FORMAT,
        "system": engine.resolve_system().cache_key(),
        "scenario": scenario,
        "scenario_options": encode_options(
            SCENARIOS.get(scenario).make_options(None)),
        "scheme": scheme,
        "scheme_options": _resolved_options(
            engine.scheme, engine.scheme_options, SCHEMES, scheme),
        "architecture": architecture,
        "architecture_options": _resolved_options(
            engine.architecture, engine.architecture_options,
            ARCHITECTURES, architecture),
        "backend": backend,
        "backend_options": _resolved_options(
            engine.backend, engine.backend_options, BACKENDS, backend),
        "apodization": encode_options(engine.apodization),
        "interpolation": engine.interpolation.value,
        "precision": engine.precision.value,
        "quantization": encode_options(engine.quantization),
        "noise_std": sweep.noise_std,
        "seed": sweep.seed,
        "score": sweep.score,
    }


def cell_key(spec: dict) -> str:
    """Stable sha256 hex digest of a canonical cell-spec document.

    Canonical JSON (sorted keys, no whitespace variance) is the hashed
    form, so dict construction order never leaks into the key.  Also used
    directly by experiment-level store reuse (E6 hands it a small custom
    document) — any JSON-safe mapping hashes.
    """
    text = json.dumps(spec, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
