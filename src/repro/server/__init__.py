"""Multi-stream beamforming server subsystem.

Everything needed to serve many concurrent probe sessions from one
process: the :class:`BeamformingServer` (async session multiplexing over
a worker pool; frames enter through :meth:`SessionHandle.submit`),
:class:`ServerSpec` (the JSON-round-trippable deployment document), and
the backpressure vocabulary (:class:`BackpressurePolicy`,
:class:`FrameDropped`).  See
``docs/server.md`` for the architecture walk-through and
:mod:`repro.server.soak` for the multi-session throughput soak, which
prints one aggregate-throughput row per run.
"""

from .server import (
    BeamformingServer,
    FrameDropped,
    FrameTicket,
    ServerClosed,
    ServerStats,
    SessionHandle,
    SessionStats,
)
from .spec import BackpressurePolicy, ServerSpec

__all__ = [
    "BackpressurePolicy",
    "BeamformingServer",
    "FrameDropped",
    "FrameTicket",
    "ServerClosed",
    "ServerSpec",
    "ServerStats",
    "SessionHandle",
    "SessionStats",
]
