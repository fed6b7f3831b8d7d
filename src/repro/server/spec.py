"""Declarative, JSON-round-trippable server configuration.

A :class:`ServerSpec` is to :class:`repro.server.BeamformingServer` what
:class:`repro.api.EngineSpec` is to a single engine: one frozen, validated
document describing the whole multi-session deployment — the default
per-session engine (a nested ``EngineSpec``), the worker-pool width, the
per-session queue bound and its backpressure policy, and the session
limits.  Ship the JSON, rebuild the identical server anywhere with
``BeamformingServer(ServerSpec.from_json(text))`` or
``repro serve --spec server.json``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from enum import Enum

from ..api.specs import EngineSpec
from ..registry import SpecDocument, check_count

__all__ = ["BackpressurePolicy", "ServerSpec"]


class BackpressurePolicy(str, Enum):
    """What a full per-session queue does to the next submission.

    ``BLOCK``
        The submitting caller waits for a slot — lossless, the default,
        and the only policy under which server output covers every
        submitted frame (the conformance row runs with this).
    ``DROP_OLDEST``
        The oldest *queued* frame is evicted to admit the new one; its
        ticket resolves with :class:`repro.server.FrameDropped`.  Keeps
        the queue fresh — a live imaging display wants the newest frames.
    ``DROP_LATEST``
        The new submission itself is refused (its ticket resolves with
        :class:`repro.server.FrameDropped` immediately); queued frames are
        never disturbed, so in-flight ordering is exactly preserved.

    Every drop increments the session's and the server's drop counters —
    loss is always visible in ``export_metrics()``.
    """

    BLOCK = "block"
    DROP_OLDEST = "drop_oldest"
    DROP_LATEST = "drop_latest"


def resolve_policy(policy: "BackpressurePolicy | str | None"
                   ) -> BackpressurePolicy:
    """Coerce a policy name (or ``None`` -> ``BLOCK``) to the enum."""
    if policy is None:
        return BackpressurePolicy.BLOCK
    try:
        return BackpressurePolicy(policy)
    except ValueError:
        names = ", ".join(p.value for p in BackpressurePolicy)
        raise ValueError(
            f"unknown backpressure policy {policy!r}; "
            f"available: {names}") from None


def default_workers() -> int:
    """Worker-pool width when the spec leaves ``workers`` at ``None``."""
    return max(1, min(4, os.cpu_count() or 1))


@dataclass(frozen=True)
class ServerSpec(SpecDocument):
    """Declarative description of one multi-session beamforming server."""

    engine: EngineSpec = field(default_factory=EngineSpec)
    """Default per-session engine (nested :class:`repro.api.EngineSpec`;
    dict form accepted).  Sessions opened without their own spec use it
    verbatim, and sessions on the same system share its simulator."""

    workers: int | None = None
    """Beamforming worker threads multiplexing the sessions
    (``None`` = auto: ``min(4, cpu_count)``)."""

    queue_capacity: int = 8
    """Bound of each session's pending-frame queue (the backpressure
    horizon)."""

    policy: BackpressurePolicy = BackpressurePolicy.BLOCK
    """Default backpressure policy for a full session queue (name or
    enum; per-session override via ``open_session(policy=...)``)."""

    max_sessions: int | None = None
    """Refuse ``open_session`` beyond this many live sessions
    (``None`` = unbounded)."""

    session_memory_budget_bytes: int | str | None = None
    """Default plan-memory budget of the sessions, in bytes (suffixed
    strings like ``"8G"`` accepted).  Applied to any session engine that
    does not carry its own ``memory_budget_bytes``: its plans then execute
    tiled under the cap (see ``docs/memory.md``).  Every session compiles
    through the server's one plan cache, which each budgeted session
    byte-bounds, so the cap covers all sessions together, not each one:
    the cache holds at most the smallest budget any session brought.
    ``None`` = unbounded."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "engine",
                           EngineSpec.coerce(self.engine, "engine"))
        object.__setattr__(self, "policy", resolve_policy(self.policy))
        check_count("workers", self.workers, optional=True)
        check_count("queue_capacity", self.queue_capacity)
        check_count("max_sessions", self.max_sessions, optional=True)
        if self.session_memory_budget_bytes is not None:
            from ..kernels.tiling import parse_memory_budget
            object.__setattr__(self, "session_memory_budget_bytes",
                               parse_memory_budget(
                                   self.session_memory_budget_bytes))
            # Must be feasible for the default engine's system (per-session
            # engines re-validate against their own system on open).
            self.engine.with_updates(
                memory_budget_bytes=self.session_memory_budget_bytes)

    # ------------------------------------------------------------ resolving
    def resolve_workers(self) -> int:
        """Concrete worker-pool width."""
        return self.workers if self.workers is not None else default_workers()
