"""Server sessions under injected faults: a Hypothesis state machine.

Rules open, submit, submit a raising frame, drop and close sessions of a
``tiny`` :class:`repro.server.BeamformingServer` in any order.  The
raising frame is injected as ``TestWorkerFaults`` in ``test_server.py``
does, by wrapping the session service's ``submit_frame``; here the wrapper
raises for one marked payload only, so a fault lands on its own frame
whatever is queued ahead of it.  "Drop" is a client that lets go of its
handle without closing it: the session stays open on the server.

Invariants:

- every ticket resolves (a closed session's at once, since close drains;
  the others by teardown);
- only a raising frame's ticket fails, and it fails with its own fault;
- a good frame's volume equals the pipeline's, bit for bit;
- a closed session leaves none of its four instruments registered.

Derandomized with a small example and step count, so it stays a fast
tier-1 test.
"""

from __future__ import annotations

import copy

import numpy as np
from hypothesis import HealthCheck, settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    rule,
)

from repro.acoustics.phantom import point_target
from repro.api import EngineSpec, Session
from repro.server import BeamformingServer, ServerSpec

TINY = EngineSpec(system="tiny", backend="vectorized")

_SYSTEM = TINY.resolve_system()
_SESSION = Session(TINY)
GOOD = _SESSION.acquire(point_target(
    0.5 * (_SYSTEM.volume.depth_min + _SYSTEM.volume.depth_max)))
EXPECTED = _SESSION.pipeline().image_volume(GOOD).rf
RAISING = copy.copy(GOOD)  # same samples; the injected wrapper raises on it

_INSTRUMENTS = ("queue_depth", "frames_total", "drops_total",
                "latency_seconds")


class InjectedFault(RuntimeError):
    """The error a raising frame's beamforming throws."""


def _inject_raising_frame(handle):
    """Make ``handle``'s service raise on the ``RAISING`` payload only."""
    service = handle._state.service
    original = service.submit_frame

    def submit_frame(frame, noise_std=0.0, seed=0):
        if frame is RAISING:
            raise InjectedFault(f"injected fault in {handle.session_id}")
        return original(frame, noise_std=noise_std, seed=seed)

    service.submit_frame = submit_frame


class ServerSessions(RuleBasedStateMachine):
    sessions = Bundle("sessions")

    def __init__(self):
        super().__init__()
        self.server = BeamformingServer(ServerSpec(engine=TINY, workers=2))
        self.tickets = []  # (session id, ticket, raising)
        self.closed = []   # handles closed by their client
        self.dropped = []  # session ids whose handle was let go

    @initialize(target=sessions)
    def open_first(self):
        return self.open()

    @rule(target=sessions)
    def open(self):
        handle = self.server.open_session()
        _inject_raising_frame(handle)
        return handle

    @rule(handle=sessions)
    def submit(self, handle):
        self.tickets.append((handle.session_id, handle.submit(GOOD), False))

    @rule(handle=sessions)
    def submit_raising(self, handle):
        self.tickets.append(
            (handle.session_id, handle.submit(RAISING), True))

    @rule(handle=consumes(sessions))
    def drop(self, handle):
        self.dropped.append(handle.session_id)

    @rule(handle=consumes(sessions))
    def close(self, handle):
        handle.close()
        self.closed.append(handle)

    def _check(self, ticket, raising):
        error = ticket.exception(timeout=0)
        if raising:
            assert isinstance(error, InjectedFault), error
            assert ticket.session_id in str(error)
        else:
            assert error is None, error
            assert np.array_equal(ticket.result(timeout=0).rf, EXPECTED)

    @invariant()
    def resolved_tickets_are_right(self):
        for _, ticket, raising in self.tickets:
            if ticket.done():
                self._check(ticket, raising)

    @invariant()
    def closed_sessions_are_resolved_and_unregistered(self):
        for handle in self.closed:
            sid = handle.session_id
            mine = [(t, r) for s, t, r in self.tickets if s == sid]
            assert all(ticket.done() for ticket, _ in mine)
            assert handle.stats().frames == sum(not r for _, r in mine)
            assert sid not in self.server.session_ids
            for instrument in _INSTRUMENTS:
                assert f"server_session_{sid}_{instrument}" \
                    not in self.server.metrics

    @invariant()
    def dropped_sessions_stay_open(self):
        assert set(self.dropped) <= set(self.server.session_ids)

    def teardown(self):
        try:
            for _, ticket, raising in self.tickets:
                ticket.exception(timeout=60)
                self._check(ticket, raising)
            raised = sum(raising for _, _, raising in self.tickets)
            assert self.server.metrics.get(
                "server_errors_total").value == raised
        finally:
            self.server.close()


ServerSessions.TestCase.settings = settings(
    derandomize=True, max_examples=10, stateful_step_count=12,
    deadline=None, suppress_health_check=[HealthCheck.too_slow])
TestServerSessions = ServerSessions.TestCase
