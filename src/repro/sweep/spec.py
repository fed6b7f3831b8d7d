"""Declarative spec for one persistent/resumable sweep run.

A :class:`SweepRunSpec` bundles *what to sweep* (an
:class:`repro.api.EngineSpec` + :class:`repro.api.SweepSpec`, both
accepted in dict/JSON form) with *how to run it*: the content-addressed
store directory and the resume/overwrite policy.  Like every other spec
in the repo it is frozen, eagerly validated and JSON-round-trippable, so
a whole study — grid, engine and execution policy — ships as one
document for ``repro sweep --spec``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..api.specs import EngineSpec, SweepSpec
from ..registry import SpecDocument

__all__ = ["SweepRunSpec"]


@dataclass(frozen=True)
class SweepRunSpec(SpecDocument):
    """Everything needed to execute (or resume) one sweep run."""

    engine: EngineSpec = field(default_factory=EngineSpec)
    """Session engine the grid runs over (dict form accepted)."""

    sweep: SweepSpec = field(default_factory=SweepSpec)
    """The scenario x scheme x architecture (x backend) grid itself."""

    store: str | None = None
    """Content-addressed result store directory (``None`` = in-memory
    only: no artifacts, no resume — every run recomputes)."""

    resume: bool = True
    """Serve cells already completed in the store instead of recomputing
    them (the point of content addressing).  Ignored without a store."""

    overwrite: bool = False
    """Recompute and refresh every cell even when the store already holds
    it; takes precedence over ``resume``."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine",
                           EngineSpec.coerce(self.engine, "engine"))
        object.__setattr__(self, "sweep",
                           SweepSpec.coerce(self.sweep, "sweep"))
        if self.store is not None and not isinstance(self.store, str):
            raise ValueError(
                f"store must be a path string, got {type(self.store).__name__}")
        for name in ("resume", "overwrite"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"{name} must be a boolean")
