"""Streaming runtime: beamform a moving-target cine through every backend.

Demonstrates the declarative :mod:`repro.api` surface end to end on the
scaled-down ``tiny`` preset:

1. describe the engine once as an :class:`repro.api.EngineSpec` (and show
   that the description round-trips through JSON);
2. describe the acquisition as a :class:`repro.api.ScanSpec` cine;
3. stream it through every registered execution backend (``reference``,
   ``vectorized`` — and ``compiled`` where the optional numba JIT is
   installed; without it the backend reports itself unavailable and
   the example skips it) vended by one shared :class:`repro.api.Session`;
4. report per-backend volume rate, voxel rate and plan-cache behaviour —
   only the first frame of each plan-based backend pays the compile cost,
   every later frame reuses the cached :class:`BeamformingPlan`;
5. run the fast kernel path (``precision="float32"`` + batched submission)
   and verify it against the exact volumes;
6. verify that all backends found the moving target at the same voxel.

Usage::

    python examples/streaming_runtime.py
"""

from __future__ import annotations

import numpy as np

from repro.api import BACKENDS, EngineSpec, ScanSpec, Session
from repro.kernels import Precision
from repro.runtime import BackendUnavailable, PlanCache

N_FRAMES = 8


def main() -> None:
    spec = EngineSpec(system="tiny", architecture="tablesteer")
    # The whole engine description is one portable JSON document.
    assert EngineSpec.from_json(spec.to_json()) == spec

    session = Session(spec)
    scan = ScanSpec(scenario="moving_point", frames=N_FRAMES)
    print(f"Streaming a {N_FRAMES}-frame moving-point cine on the "
          f"'{session.system.name}' preset "
          f"({session.system.volume.focal_point_count} voxels/frame)")

    peak_tracks: dict[str, list[tuple[int, ...]]] = {}
    for backend in BACKENDS.names():
        # Each backend gets a private cache so its hit/miss counters are
        # directly comparable (cross-backend sharing is shown in the tests).
        try:
            service = session.service(backend=backend, cache=PlanCache())
        except BackendUnavailable as exc:
            print(f"  {backend:<10s}: skipped ({exc})")
            continue
        results = service.stream_all(scan.build_frames(session.system))
        peak_tracks[backend] = [
            np.unravel_index(int(np.argmax(np.abs(r.rf))), r.rf.shape)
            for r in results]
        stats = service.stats()
        print(f"  {backend:<10s}: {stats.frames_per_second:8.2f} frames/s  "
              f"{stats.voxels_per_second:.3e} voxels/s  "
              f"mean latency {stats.mean_latency_seconds * 1e3:6.2f} ms  "
              f"cache {stats.cache.hits} hits / {stats.cache.misses} misses")

    # The fast path: float32 kernels, 4 frames per batched execution.
    fast = session.service(backend="vectorized", cache=PlanCache(),
                           precision="float32")
    fast_results = fast.stream_all(scan.build_frames(session.system),
                                   batch_size=4)
    stats = fast.stats()
    print(f"  {'float32 x4':<10s}: {stats.frames_per_second:8.2f} frames/s  "
          f"{stats.voxels_per_second:.3e} voxels/s  "
          f"(batched, {stats.precision})")
    exact = session.service(backend="vectorized", cache=PlanCache())
    for fast_result, frame in zip(fast_results,
                                  scan.build_frames(session.system)):
        Precision.FLOAT32.tolerance.assert_allclose(
            fast_result.rf, exact.submit_frame(frame).rf)

    reference_track = peak_tracks["reference"]
    agree = all(track == reference_track for track in peak_tracks.values())
    depths = [int(track[2]) for track in reference_track]
    print(f"  target depth index per frame : {depths} (drifts deeper)")
    print(f"  backends agree on every peak : {agree}")


if __name__ == "__main__":
    main()
