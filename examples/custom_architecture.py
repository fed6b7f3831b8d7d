"""Registering a custom delay architecture — the registry extension point.

The paper studies a closed family of delay-generation architectures; the
:mod:`repro.api` registries make that family open.  This example adds a toy
architecture — exact delays with a constant extra offset, modelling e.g. an
uncompensated fixed pipeline latency — in ~10 lines, then runs it through
the full imaging pipeline and streaming service *without modifying any
repro module*:

1. subclass :class:`repro.core.DelayProvider` with a ``grid`` and one
   method, ``delays_samples`` — the base derives every grid accessor;
2. define an options dataclass (this is also the JSON schema of the knob);
3. register a factory under a public name with ``@ARCHITECTURES.register``;
4. name the architecture in an :class:`repro.api.EngineSpec` like any
   built-in — pipelines, services, sweeps, spec files and the CLI all
   resolve it through the registry.

Usage::

    python examples/custom_architecture.py
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.api import ARCHITECTURES, EngineSpec, Session
from repro.acoustics import point_target
from repro.core import DelayProvider, ExactDelayEngine


# ----------------------------------------------------- the custom plugin
@dataclass(frozen=True)
class OffsetOptions:
    """Design knobs of the toy architecture (doubles as its spec schema)."""

    offset_samples: float = 2.0
    """Constant delay offset added to every (point, element) pair."""


class OffsetDelayEngine(DelayProvider):
    """Exact delays plus a constant offset — a minimal ``DelayProvider``:
    a ``grid`` and ``delays_samples``, from which the base derives the
    scanline, nappe, tile and volume accessors."""

    def __init__(self, inner: ExactDelayEngine, offset_samples: float) -> None:
        self.inner = inner
        self.grid = inner.grid
        self.offset_samples = offset_samples

    def delays_samples(self, points: np.ndarray) -> np.ndarray:
        return self.inner.delays_samples(points) + self.offset_samples


def register() -> None:
    """Register ``exact_offset`` (idempotent so re-imports keep working)."""
    if "exact_offset" in ARCHITECTURES:
        return

    @ARCHITECTURES.register(
        "exact_offset", options=OffsetOptions,
        description="exact delays plus a constant offset (toy plugin)")
    def _build(system, options):
        return OffsetDelayEngine(ExactDelayEngine.from_config(system),
                                 options.offset_samples)


# ------------------------------------------------------------ demo drive
def main() -> None:
    register()

    # One depth pixel of the tiny grid is ~40 samples two-way, so a
    # 40-sample uncompensated latency should displace the peak visibly.
    offset = 40.0
    spec = EngineSpec(system="tiny", architecture="exact_offset",
                      architecture_options={"offset_samples": offset})
    print("Engine spec (portable JSON):")
    print(spec.to_json())

    session = Session(spec)
    depth = float(session.grid.depths[len(session.grid.depths) // 2])
    phantom = point_target(depth=depth)

    # The plugin flows through pipeline/service like any built-in: image
    # one acquisition with it and with the exact engine.
    channel_data = session.acquire(phantom)
    images = {name: session.pipeline(architecture=name)
              .image_plane(channel_data)
              for name in ("exact", "exact_offset")}
    peaks = {name: np.unravel_index(int(np.argmax(img)), img.shape)
             for name, img in images.items()}
    shift = peaks["exact_offset"][1] - peaks["exact"][1]
    print(f"\nPeak depth index: exact={peaks['exact'][1]}, "
          f"exact_offset={peaks['exact_offset'][1]} "
          f"(shifted {shift} px by the {offset}-sample offset)")

    service = session.service(backend="vectorized")
    result = service.submit_frame(phantom)
    print(f"Streamed one frame through architecture "
          f"'{session.spec.architecture}' on backend '{result.backend}': "
          f"volume {result.rf.shape}, "
          f"latency {result.latency_seconds * 1e3:.1f} ms")


if __name__ == "__main__":
    main()
