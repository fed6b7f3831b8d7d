"""Multi-stream beamforming server: multiplexing, backpressure, lifecycle.

Covers the ``repro.server`` subsystem end to end on the ``tiny`` preset:
spec round-trips, session multiplexing with bit-exact results, the three
backpressure policies (with drop accounting), zero-copy ring ingest, the
async ticket API, cross-session plan sharing, metrics export and clean
shutdown — plus the Session facade's engine-lifecycle guarantees this PR
introduced (``Session.close()`` and closeable services/backends).
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro import tiny_system
from repro.acoustics.phantom import point_target
from repro.api import EngineSpec, ScanSpec, Session
from repro.observability import render_prometheus
from repro.runtime.service import BeamformingService
from repro.server import (
    BackpressurePolicy,
    BeamformingServer,
    FrameDropped,
    RingExhausted,
    ServerClosed,
    ServerSpec,
    SharedFrameRing,
)
from repro.server.soak import main as soak_main
from repro.server.spec import resolve_policy


TINY = EngineSpec(system="tiny", backend="vectorized")


@pytest.fixture
def server():
    server = BeamformingServer(ServerSpec(engine=TINY, workers=2))
    yield server
    server.close()


def _phantom(system):
    return point_target(0.5 * (system.volume.depth_min
                               + system.volume.depth_max))


def _wait(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.001)


def _stall_session(handle):
    """Make the session's engine block until the returned event is set."""
    gate = threading.Event()
    service = handle._state.service
    original = service.submit_frame

    def stalled(frame, noise_std=0.0, seed=0):
        gate.wait(timeout=60)
        return original(frame, noise_std=noise_std, seed=seed)

    service.submit_frame = stalled
    return gate


# ----------------------------------------------------------------- ServerSpec
class TestServerSpec:
    def test_json_round_trip(self):
        spec = ServerSpec(engine=TINY, workers=3, queue_capacity=5,
                          policy="drop_oldest", ring_slots=7, max_sessions=2)
        assert ServerSpec.from_json(spec.to_json()) == spec
        assert spec.policy is BackpressurePolicy.DROP_OLDEST

    def test_engine_dict_form_coerced(self):
        spec = ServerSpec(engine={"system": "tiny"})
        assert isinstance(spec.engine, EngineSpec)
        assert spec.engine.system == "tiny"

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown server spec field"):
            ServerSpec.from_dict({"worker_count": 4})

    @pytest.mark.parametrize("field,value", [
        ("workers", 0), ("queue_capacity", 0), ("ring_slots", -1),
        ("max_sessions", 0)])
    def test_positive_int_validation(self, field, value):
        with pytest.raises(ValueError):
            ServerSpec(**{field: value})

    def test_unknown_policy_lists_names(self):
        with pytest.raises(ValueError, match="block, drop_oldest"):
            resolve_policy("newest_only")

    def test_ring_slots_default_covers_queue_plus_workers(self):
        spec = ServerSpec(workers=3, queue_capacity=5)
        assert spec.resolve_ring_slots() == 8
        assert spec.with_updates(ring_slots=2).resolve_ring_slots() == 2

    def test_session_memory_budget_roundtrip(self):
        spec = ServerSpec(engine=TINY, session_memory_budget_bytes="1M")
        assert spec.session_memory_budget_bytes == 1 << 20  # normalised
        assert ServerSpec.from_json(spec.to_json()) == spec
        assert ServerSpec(engine=TINY).session_memory_budget_bytes is None

    def test_session_memory_budget_too_small_rejected(self):
        # Validated eagerly against the default engine's system, with the
        # minimum viable budget in the message.
        with pytest.raises(ValueError, match="raise the budget"):
            ServerSpec(engine=TINY, session_memory_budget_bytes=10)

    def test_session_memory_budget_applied_to_default_sessions(self):
        spec = ServerSpec(engine=TINY, workers=1,
                          session_memory_budget_bytes="400K")
        with BeamformingServer(spec) as server:
            handle = server.open_session()
            state = server._sessions[handle.session_id]
            assert state.service.memory_budget_bytes == 400 * 1024
            # An engine carrying its own budget keeps it.
            own = server.open_session(
                spec=TINY.with_updates(memory_budget_bytes="800K"))
            own_state = server._sessions[own.session_id]
            assert own_state.service.memory_budget_bytes == 800 * 1024


# ----------------------------------------------------------- multiplexing
class TestMultiplexing:
    def test_sessions_match_single_stream_service(self, server):
        """Served volumes are bit-identical to a direct service run."""
        system = TINY.resolve_system()
        reference = BeamformingService(system, backend="vectorized")
        payload = reference._simulator.simulate(_phantom(system), seed=3)
        expected = reference.submit_frame(payload).rf
        reference.close()

        handles = [server.open_session() for _ in range(3)]
        tickets = [handle.submit(payload) for handle in handles]
        for ticket in tickets:
            np.testing.assert_array_equal(ticket.result(timeout=60).rf,
                                          expected)

    def test_plan_cache_shared_across_sessions(self, server):
        system = TINY.resolve_system()
        handles = [server.open_session() for _ in range(4)]
        payload = server._simulators[system.cache_key()] \
            .simulate(_phantom(system), seed=1)
        for handle in handles:
            handle.submit(payload).result(timeout=60)
        stats = server.cache.stats
        assert stats.misses == 1
        assert stats.hits == len(handles) - 1

    def test_per_session_engine_override(self, server):
        session = server.open_session(
            spec=TINY.with_updates(architecture="tablesteer"))
        system = TINY.resolve_system()
        payload = server._simulators[system.cache_key()] \
            .simulate(_phantom(system), seed=2)
        result = session.submit(payload).result(timeout=60)
        assert result.rf.shape == (system.volume.n_theta,
                                   system.volume.n_phi,
                                   system.volume.n_depth)

    def test_phantom_payloads_simulate_server_side(self, server):
        session = server.open_session()
        system = TINY.resolve_system()
        result = session.submit(_phantom(system), seed=5).result(timeout=60)
        assert np.isfinite(result.rf).all()

    def test_await_ticket_in_event_loop(self, server):
        session = server.open_session()
        system = TINY.resolve_system()

        async def run():
            return await session.submit(_phantom(system))

        result = asyncio.run(run())
        assert result.voxel_count > 0

    def test_max_sessions_enforced(self):
        with BeamformingServer(ServerSpec(engine=TINY, workers=1,
                                          max_sessions=1)) as server:
            server.open_session()
            with pytest.raises(ServerClosed, match="max_sessions"):
                server.open_session()

    def test_duplicate_session_id_rejected(self, server):
        server.open_session(session_id="probe")
        with pytest.raises(ValueError, match="already open"):
            server.open_session(session_id="probe")

    def test_spec_coercion_forms(self):
        for spec in (None, TINY, TINY.to_dict(), ServerSpec(engine=TINY)):
            server = BeamformingServer(spec, metrics=None)
            assert isinstance(server.spec, ServerSpec)
            server.close()
        with pytest.raises(ValueError, match="ServerSpec"):
            BeamformingServer(42)


# ------------------------------------------------------------- backpressure
class TestBackpressure:
    def _flooded_server(self, policy):
        server = BeamformingServer(
            ServerSpec(engine=TINY, workers=1, queue_capacity=1,
                       policy=policy))
        session = server.open_session()
        gate = _stall_session(session)
        system = TINY.resolve_system()
        payload = server._simulators[system.cache_key()] \
            .simulate(_phantom(system), seed=9)
        # First frame occupies the only worker; the queue (capacity 1) is
        # then filled by the second, so the third submission hits the
        # policy deterministically.
        first = session.submit(payload)
        _wait(lambda: session._state.in_flight)
        queued = session.submit(payload)
        return server, session, gate, payload, first, queued

    def test_block_policy_times_out_then_completes(self):
        server, session, gate, payload, first, queued = \
            self._flooded_server("block")
        try:
            with pytest.raises(TimeoutError, match="still full"):
                session.submit(payload, timeout=0.05)
            gate.set()
            third = session.submit(payload, timeout=60)
            for ticket in (first, queued, third):
                assert ticket.result(timeout=60).voxel_count > 0
            assert server.stats().drops == 0
        finally:
            server.close()

    def test_drop_oldest_evicts_queued_frame(self):
        server, session, gate, payload, first, queued = \
            self._flooded_server("drop_oldest")
        try:
            newest = session.submit(payload)
            with pytest.raises(FrameDropped, match="drop_oldest"):
                queued.result(timeout=60)
            assert queued.dropped()
            gate.set()
            assert first.result(timeout=60).voxel_count > 0
            assert newest.result(timeout=60).voxel_count > 0
            assert server.stats().drops == 1
            assert session.stats().drops == 1
        finally:
            server.close()

    def test_drop_latest_refuses_new_frame(self):
        server, session, gate, payload, first, queued = \
            self._flooded_server("drop_latest")
        try:
            newest = session.submit(payload)
            assert newest.dropped()
            with pytest.raises(FrameDropped, match="drop_latest"):
                newest.result(timeout=60)
            gate.set()
            assert first.result(timeout=60).voxel_count > 0
            assert queued.result(timeout=60).voxel_count > 0
            assert server.stats().drops == 1
        finally:
            server.close()

    def test_per_session_policy_override(self, server):
        session = server.open_session(policy="drop_latest",
                                      queue_capacity=1)
        assert session._state.policy is BackpressurePolicy.DROP_LATEST


# ------------------------------------------------------------------- rings
class TestRingIngest:
    def test_submit_slot_matches_direct_submit(self, server):
        system = TINY.resolve_system()
        direct = server.open_session()
        ring_fed = server.open_session()
        payload = server._simulators[system.cache_key()] \
            .simulate(_phantom(system), seed=11)
        expected = direct.submit(payload).result(timeout=60).rf
        lease = ring_fed.acquire_slot()
        lease.array[:] = payload.samples
        result = ring_fed.submit_slot(lease).result(timeout=60)
        np.testing.assert_array_equal(result.rf, expected)

    def test_slot_returns_to_ring_after_frame(self, server):
        session = server.open_session()
        system = TINY.resolve_system()
        payload = server._simulators[system.cache_key()] \
            .simulate(_phantom(system), seed=12)
        lease = session.acquire_slot()
        ring = session._state.ring
        before = ring.free_slots
        lease.array[:] = payload.samples
        session.submit_slot(lease).result(timeout=60)
        _wait(lambda: ring.free_slots == before + 1)

    def test_foreign_lease_rejected(self, server):
        a = server.open_session()
        b = server.open_session()
        lease = a.acquire_slot()
        b.acquire_slot().release()  # force b's ring to exist
        with pytest.raises(ValueError, match="does not belong"):
            b.submit_slot(lease)
        lease.release()

    def test_ring_exhaustion_raises(self):
        ring = SharedFrameRing((2, 4), slots=1)
        try:
            lease = ring.acquire()
            with pytest.raises(RingExhausted):
                ring.acquire(timeout=0.01)
            lease.release()
            ring.acquire(timeout=0.01).release()
        finally:
            ring.close()

    def test_released_lease_array_refused(self):
        ring = SharedFrameRing((2, 4), slots=1)
        try:
            lease = ring.acquire()
            lease.release()
            with pytest.raises(RuntimeError, match="already released"):
                lease.array
        finally:
            ring.close()


# ------------------------------------------------------------ worker faults
class TestWorkerFaults:
    def test_raising_frame_fails_only_its_ticket(self, server):
        """A frame whose beamforming raises resolves its own ticket with the
        error and counts one server error; its ring slot comes back, the
        session's next frame is unaffected, and so is every other session."""
        system = TINY.resolve_system()
        faulty = server.open_session()
        healthy = server.open_session()
        payload = server._simulators[system.cache_key()] \
            .simulate(_phantom(system), seed=5)
        expected = healthy.submit(payload).result(timeout=60).rf

        injected = RuntimeError("injected beamforming fault")
        service = faulty._state.service
        original = service.submit_frame
        faults = [injected]

        def fail_once(frame, noise_std=0.0, seed=0):
            if faults:
                raise faults.pop()
            return original(frame, noise_std=noise_std, seed=seed)

        service.submit_frame = fail_once
        lease = faulty.acquire_slot()
        ring = faulty._state.ring
        before = ring.free_slots
        lease.array[:] = payload.samples
        ticket = faulty.submit_slot(lease)
        assert ticket.exception(timeout=60) is injected
        _wait(lambda: ring.free_slots == before + 1)
        assert server.metrics.get("server_errors_total").value == 1

        np.testing.assert_array_equal(
            faulty.submit(payload).result(timeout=60).rf, expected)
        np.testing.assert_array_equal(
            healthy.submit(payload).result(timeout=60).rf, expected)
        assert server.metrics.get("server_errors_total").value == 1
        assert (faulty.stats().frames, healthy.stats().frames) == (1, 2)


# ----------------------------------------------------------------- metrics
class TestMetrics:
    def test_export_covers_server_and_sessions(self, server):
        session = server.open_session(session_id="probe-1")
        system = TINY.resolve_system()
        session.submit(_phantom(system)).result(timeout=60)
        exported = server.export_metrics()
        names = exported.names()
        for name in ("server_frames_total", "server_drops_total",
                     "server_sessions_active", "server_latency_seconds",
                     "server_session_probe_1_queue_depth",
                     "server_session_probe_1_frames_total",
                     "server_session_probe_1_drops_total",
                     "server_session_probe_1_latency_seconds",
                     "plan_cache_hits_total"):
            assert name in names
        text = render_prometheus(exported)
        assert 'server_session_probe_1_latency_seconds{quantile="0.5"}' in text
        assert 'server_session_probe_1_latency_seconds{quantile="0.99"}' in text

    def test_stats_percentiles_and_counts(self, server):
        session = server.open_session()
        system = TINY.resolve_system()
        for seed in range(3):
            session.submit(_phantom(system), seed=seed).result(timeout=60)
        stats = server.stats()
        assert stats.frames == 3
        assert stats.workers == 2
        assert stats.p99_latency_seconds >= stats.p50_latency_seconds > 0
        (session_stats,) = stats.sessions
        assert session_stats.frames == 3
        assert session_stats.queue_depth == 0


# --------------------------------------------------------------- lifecycle
class TestLifecycle:
    def test_close_drains_pending_frames(self):
        server = BeamformingServer(ServerSpec(engine=TINY, workers=1))
        session = server.open_session()
        system = TINY.resolve_system()
        tickets = [session.submit(_phantom(system), seed=i)
                   for i in range(4)]
        server.close()  # drain=True default
        assert all(t.result(timeout=1).voxel_count > 0 for t in tickets)

    def test_close_without_drain_cancels(self):
        server = BeamformingServer(
            ServerSpec(engine=TINY, workers=1, queue_capacity=8))
        session = server.open_session()
        gate = _stall_session(session)
        system = TINY.resolve_system()
        payload = server._simulators[system.cache_key()] \
            .simulate(_phantom(system), seed=4)
        first = session.submit(payload)
        _wait(lambda: session._state.in_flight)
        pending = [session.submit(payload) for _ in range(3)]
        gate.set()
        server.close(drain=False)
        assert first.result(timeout=60).voxel_count > 0
        for ticket in pending:
            with pytest.raises(ServerClosed):
                ticket.result(timeout=1)

    def test_submit_after_close_refused(self):
        server = BeamformingServer(ServerSpec(engine=TINY, workers=1))
        session = server.open_session()
        server.close()
        with pytest.raises(ServerClosed):
            session.submit(point_target(0.02))
        with pytest.raises(ServerClosed):
            server.open_session()

    def test_session_close_releases_only_that_session(self, server):
        a = server.open_session()
        b = server.open_session()
        system = TINY.resolve_system()
        a.close()
        with pytest.raises(ServerClosed):
            a.submit(_phantom(system))
        assert b.submit(_phantom(system)).result(timeout=60).voxel_count > 0
        assert server.session_ids == (b.session_id,)

    def test_close_is_idempotent(self, server):
        server.close()
        server.close()


# ----------------------------------------------------- Session facade wiring
class TestSessionFacade:
    def test_session_server_shares_cache_and_simulator(self):
        with Session(TINY) as session:
            server = session.server(workers=1)
            assert server.cache is session.cache
            key = session.system.cache_key()
            assert server._simulators[key] is session.simulator
            handle = server.open_session()
            payload = session.acquire(_phantom(session.system))
            expected = session.pipeline().image_volume(payload).rf
            np.testing.assert_array_equal(
                handle.submit(payload).result(timeout=60).rf, expected)
        # Session.close() closed the vended server.
        with pytest.raises(ServerClosed):
            server.open_session()

    def test_session_server_rejects_custom_engine(self):
        session = Session(TINY)
        with pytest.raises(ValueError, match="session's own spec"):
            session.server(spec=ServerSpec(
                engine=EngineSpec(system="paper")))

    def test_session_close_closes_vended_services(self):
        session = Session(TINY.with_updates(backend="sharded"))
        service = session.service()
        service.submit_frame(_phantom(session.system))
        (backend,) = service._engine.backends
        assert backend._pool is not None
        session.close()
        # The sharded pool was shut down by Session.close().
        assert backend._pool is None
        # Idempotent and re-usable: pools rebuild lazily.
        session.close()

    def test_stream_releases_its_service(self):
        session = Session(TINY)
        results = session.stream(ScanSpec(frames=2))
        assert len(results) == 2
        assert session._owned == []

    def test_service_context_manager_usable_after_close(self):
        system = tiny_system()
        with BeamformingService(system, backend="sharded") as service:
            first = service.submit_frame(_phantom(system))
        # close() ran; the service still works (pool rebuilds lazily).
        again = service.submit_frame(_phantom(system))
        np.testing.assert_array_equal(first.rf, again.rf)


# ------------------------------------------------------------- soak CLI
class TestSoakCli:
    def test_tiny_soak_prints_its_row(self, capsys):
        assert soak_main(["--sessions", "2", "--frames", "1",
                          "--system", "tiny"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("server soak s2w")
        assert "2 frames in" in out and "0 drops" in out

    def test_zero_sessions_is_rejected(self, capsys):
        assert soak_main(["--sessions", "0", "--system", "tiny"]) == 2
        assert "soak error" in capsys.readouterr().err
