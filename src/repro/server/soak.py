"""Multi-session soak benchmark: aggregate served throughput vs workers.

Drives one :class:`repro.server.BeamformingServer` with N concurrent
client sessions, each pushing pre-recorded frames as fast as backpressure
admits them, and measures the *aggregate* volume rate — the figure the
paper's multi-channel front end is ultimately sized against.  The CLI
prints one row labelled ``s{sessions}w{workers}``; each run is a single
sample, so compare widths over several alternating runs (see
``docs/server.md``).

Usage::

    PYTHONPATH=src python -m repro.server.soak --sessions 8 --workers 4 \
        --frames 4
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from typing import Sequence

from ..acoustics.phantom import point_target
from ..api.specs import EngineSpec
from .server import BeamformingServer, SessionHandle
from .spec import ServerSpec

__all__ = ["main", "run_soak"]


def _session_producer(handle: SessionHandle, payload: object,
                      frames: int) -> None:
    """One client: submit ``frames`` copies of ``payload`` back to back.

    The ``block`` policy makes the submit loop itself exert backpressure,
    so the soak measures sustained service rate, not queue growth.
    """
    tickets = [handle.submit(payload) for _ in range(frames)]
    for ticket in tickets:
        ticket.result()


def run_soak(sessions: int = 8, frames_per_session: int = 4,
             workers: int | None = None, system: str = "small",
             backend: str = "vectorized", seed: int = 1234) -> dict:
    """Soak one server configuration; returns its benchmark row.

    Every session gets its own pre-simulated echo frame (acquisition is
    excluded from the measured window), its own submitting thread, and the
    lossless ``block`` policy — all ``sessions * frames_per_session``
    frames are beamformed, so voxels/s is exact, not drop-inflated.
    """
    if sessions < 1 or frames_per_session < 1:
        raise ValueError("sessions and frames_per_session must be >= 1")
    engine = EngineSpec(system=system, architecture="tablesteer",
                        backend=backend)
    spec = ServerSpec(engine=engine, workers=workers, policy="block")
    with BeamformingServer(spec) as server:
        handles = [server.open_session() for _ in range(sessions)]
        # Pre-simulate one deterministic frame per session, outside the
        # timed window; the first submission also warms the plan cache.
        sysconf = engine.resolve_system()
        phantom = point_target(0.5 * (sysconf.volume.depth_min
                                      + sysconf.volume.depth_max))
        simulator = server._simulators[sysconf.cache_key()]
        payloads = [simulator.simulate(phantom, seed=seed + i)
                    for i in range(sessions)]
        handles[0].submit(payloads[0]).result()  # plan compile warm-up

        start = time.perf_counter()
        producers = [
            threading.Thread(target=_session_producer,
                             args=(handle, payload, frames_per_session),
                             name=f"soak-client-{i}")
            for i, (handle, payload) in enumerate(zip(handles, payloads))]
        for producer in producers:
            producer.start()
        for producer in producers:
            producer.join()
        server.drain()
        elapsed = time.perf_counter() - start

        stats = server.stats()
        frames = sessions * frames_per_session
        voxels_per_frame = stats.voxels // stats.frames if stats.frames else 0
        row = {
            "sessions": sessions,
            "workers": server.workers,
            "backend": backend,
            "frames_per_session": frames_per_session,
            "frames": frames,
            "drops": stats.drops,
            "elapsed_seconds": elapsed,
            "frames_per_second": frames / elapsed if elapsed else 0.0,
            "voxels_per_second":
                frames * voxels_per_frame / elapsed if elapsed else 0.0,
            "p50_latency_seconds": stats.p50_latency_seconds,
            "p95_latency_seconds": stats.p95_latency_seconds,
            "p99_latency_seconds": stats.p99_latency_seconds,
            "cache_hits": int(server.cache.stats.hits),
            "cache_misses": int(server.cache.stats.misses),
        }
    return row


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point (see module docstring)."""
    parser = argparse.ArgumentParser(
        description="soak a multi-session beamforming server and report "
                    "aggregate throughput")
    parser.add_argument("--sessions", type=int, default=8,
                        help="concurrent client sessions (default 8)")
    parser.add_argument("--frames", type=int, default=4,
                        help="frames per session (default 4)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker threads (default: auto)")
    parser.add_argument("--system", default="small",
                        help="system preset (default small)")
    parser.add_argument("--backend", default="vectorized",
                        help="execution backend (default vectorized)")
    args = parser.parse_args(argv)
    try:
        row = run_soak(sessions=args.sessions,
                       frames_per_session=args.frames,
                       workers=args.workers, system=args.system,
                       backend=args.backend)
    except ValueError as exc:
        print(f"soak error: {exc}", file=sys.stderr)
        return 2
    print(f"server soak s{row['sessions']}w{row['workers']} "
          f"({row['backend']}): {row['frames']} frames in "
          f"{row['elapsed_seconds']:.2f}s — "
          f"{row['voxels_per_second']:.3e} voxels/s, "
          f"p99 {row['p99_latency_seconds'] * 1e3:.1f} ms, "
          f"{row['drops']} drops")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
