"""The delay-generation architecture registry.

This is the open counterpart of the paper's fixed architecture family: each
entry bundles a factory ``(system, options) -> DelayProvider``, an options
dataclass describing its numerical design knobs, and a one-line description.
The four built-in entries reproduce the paper's design space —

``exact``
    Float64 two-way geometric delays, the ground-truth reference engine.
``tablefree``
    On-the-fly computation with the piecewise-linear square root
    (Section IV); options: :class:`repro.core.tablefree.TableFreeConfig`.
``tablesteer``
    Reference table plus steering corrections in fixed point (Section V);
    options: :class:`repro.core.tablesteer.TableSteerConfig`.
``tablesteer_float``
    TABLESTEER with the quantisation disabled, isolating the algorithmic
    (far-field Taylor) error.

— and a new architecture is one ``@ARCHITECTURES.register(...)`` plus an
options dataclass, with no edits to the pipeline, runtime, CLI or spec
layers (they all resolve names through this registry).
"""

from __future__ import annotations

from .config import SystemConfig
from .core.exact import ExactDelayEngine
from .core.tablefree import TableFreeConfig, TableFreeDelayGenerator
from .core.tablesteer import TableSteerConfig, TableSteerDelayGenerator
from .registry import Registry

ARCHITECTURES = Registry("architecture")
"""Registry of delay-generation architectures (factory: ``(system, options)``)."""


def architecture_name(architecture) -> str:
    """Normalise an architecture selector (enum member or string) to its name."""
    return getattr(architecture, "value", architecture)


@ARCHITECTURES.register(
    "exact",
    description="float64 two-way geometric delays (ground truth)")
def _build_exact(system: SystemConfig, options: None) -> ExactDelayEngine:
    return ExactDelayEngine.from_config(system)


@ARCHITECTURES.register(
    "tablefree", options=TableFreeConfig,
    description="on-the-fly delays via piecewise-linear sqrt (Section IV)")
def _build_tablefree(system: SystemConfig,
                     options: TableFreeConfig) -> TableFreeDelayGenerator:
    return TableFreeDelayGenerator.from_config(system, options)


@ARCHITECTURES.register(
    "tablesteer", options=TableSteerConfig,
    description="reference table + fixed-point steering corrections "
                "(Section V)")
def _build_tablesteer(system: SystemConfig,
                      options: TableSteerConfig) -> TableSteerDelayGenerator:
    return TableSteerDelayGenerator.from_config(system, options)


@ARCHITECTURES.register(
    "tablesteer_float",
    description="TABLESTEER without quantisation (algorithmic error only)")
def _build_tablesteer_float(system: SystemConfig,
                            options: None) -> TableSteerDelayGenerator:
    return TableSteerDelayGenerator.from_config(
        system, TableSteerConfig(total_bits=None))
