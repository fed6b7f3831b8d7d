"""Experiment E11: streaming-runtime throughput across backends x dtypes.

The software companion to E9: where E9 reproduces the paper's *hardware*
delay-rate arithmetic (Fig. 4 blocks, Tdelays/s), this experiment measures
what the same amortisation buys in the software runtime.  A cine sequence of
a moving point target is streamed through the :class:`BeamformingService`
once per (execution backend, kernel precision) pair — and once more through
the batched multi-frame path — so three effects are visible side by side:

* **plan caching** — probe geometry is constant across the sequence, so the
  compiled :class:`repro.kernels.BeamformingPlan` is built for the first
  frame only and every later frame is served from the
  :class:`repro.runtime.cache.PlanCache` (the software analogue of reading
  a precomputed table instead of recomputing delays per sample);
* **dtype policy** — ``float32`` halves the gather/accumulate memory
  traffic against the bit-exact ``float64`` baseline;
* **batching** — ``execute_batch`` amortises index setup and NumPy
  dispatch across frames.

Reported per (backend, dtype): sustained frames/s and voxels/s per-frame
and batched, mean and p50/p95/p99 per-frame latency, speedup over the
``reference`` / ``float64`` per-scanline path, and the cache hit/miss
counters proving that repeated frames skip plan compilation.  Every figure
is read off the :mod:`repro.observability` metrics instruments backing
:meth:`repro.runtime.BeamformingService.stats`.

Each row is one single-shot sample: this experiment shows the *shape* of
the comparison.  Repeated, noise-aware performance numbers come from the
repository benchmark (``BENCHMARK.json``, ``bench/run.py``,
``bench/compare.py``).
"""

from __future__ import annotations

from ..api import EngineSpec, ScanSpec, Session
from ..config import SystemConfig, tiny_system
from ..kernels import numba_available
from ..runtime import PlanCache

DEFAULT_BACKENDS = ("reference", "vectorized")
DEFAULT_PRECISIONS = ("float64", "float32")


def default_backends() -> tuple[str, ...]:
    """The backends E11 sweeps on this host.

    Always the two NumPy backends; ``compiled`` joins the sweep when the
    optional numba package is importable, so the same invocation produces
    the extended table on the numba CI leg and the classic one everywhere
    else.
    """
    if numba_available():
        return DEFAULT_BACKENDS + ("compiled",)
    return DEFAULT_BACKENDS


def run(system: SystemConfig | None = None,
        architecture: str = "tablesteer",
        n_frames: int = 8,
        backends: tuple[str, ...] | None = None,
        precisions: tuple[str, ...] = DEFAULT_PRECISIONS,
        batch: int = 4,
        scheme: str = "focused",
        scenario: str = "moving_point") -> dict[str, object]:
    """Stream ``n_frames`` cine frames through each backend x dtype variant.

    The same pre-simulated channel-data sequence is replayed for every
    variant so the measured differences come from execution strategy and
    precision alone.  Each variant is measured twice: per-frame submission
    and batched submission (``batch`` frames per kernel execution).

    ``scheme`` selects the transmit scheme: a multi-firing scheme (e.g.
    ``planewave``) streams pre-recorded per-firing sequences, so each
    frame's beamform time includes the coherent compounding of all its
    firings — the throughput cost of compounding, isolated from its
    acquisition cost.  ``scenario`` picks the registered cine scenario.

    ``backends=None`` resolves to :func:`default_backends` — the NumPy
    pair plus ``compiled`` when numba is installed.
    """
    if backends is None:
        backends = default_backends()
    spec = EngineSpec(system=system if system is not None else tiny_system(),
                      architecture=architecture, scheme=scheme)
    with Session(spec) as session:
        system = session.system
        scan = ScanSpec(scenario=scenario, frames=n_frames)
        frames = scan.build_frames(system)

        # Pre-simulate the acquisitions once; all variants replay the same
        # data.
        if session.scheme.is_trivial():
            recorded = [session.simulator.simulate(f.phantom, seed=f.seed)
                        for f in frames]
        else:
            recorded = [tuple(session.acquire_firings(f.phantom, seed=f.seed))
                        for f in frames]

        results: dict[str, dict[str, dict[str, float]]] = {}
        for backend in backends:
            results[backend] = {}
            for precision in precisions:
                # A private cache per variant keeps the hit/miss counters
                # comparable across rows.
                service = session.service(backend=backend, cache=PlanCache(),
                                          precision=precision)
                for data in recorded:
                    service.submit_frame(data)
                stats = service.stats()

                batched = session.service(backend=backend, cache=PlanCache(),
                                          precision=precision)
                batched.stream_all(list(recorded), batch_size=batch)
                batched_stats = batched.stats()

                results[backend][precision] = {
                    "frames": stats.frames,
                    "frames_per_second": stats.frames_per_second,
                    "voxels_per_second": stats.voxels_per_second,
                    "mean_latency_seconds": stats.mean_latency_seconds,
                    "latency_p50_seconds": stats.p50_latency_seconds,
                    "latency_p95_seconds": stats.p95_latency_seconds,
                    "latency_p99_seconds": stats.p99_latency_seconds,
                    "cache_hits": stats.cache.hits,
                    "cache_misses": stats.cache.misses,
                    "batched_frames_per_second":
                        batched_stats.frames_per_second,
                    "batched_voxels_per_second":
                        batched_stats.voxels_per_second,
                }

    reference_fps = results.get("reference", {}).get("float64", {}) \
        .get("frames_per_second")
    # None rather than NaN when the sweep excludes the reference row.
    for rows in results.values():
        for row in rows.values():
            row["speedup_vs_reference"] = (
                row["frames_per_second"] / reference_fps
                if reference_fps else None)
            row["batched_speedup_vs_reference"] = (
                row["batched_frames_per_second"] / reference_fps
                if reference_fps else None)

    return {
        "system": system.name,
        "architecture": architecture,
        "n_frames": n_frames,
        "batch": batch,
        "scheme": scheme,
        "scenario": scenario,
        "firings_per_frame": session.scheme.firing_count,
        "voxels_per_frame": system.volume.focal_point_count,
        "backends": results,
        "paper_reference": {
            # Section II-C: the target the hardware streaming architecture
            # is sized for; the software runtime reproduces the *shape* of
            # the argument (amortised tables >> per-sample regeneration),
            # not the absolute FPGA rates.
            "target_volume_rate": 15.0,
            "required_delay_rate": 2.5e12,
        },
    }


def main(system: SystemConfig | None = None) -> None:
    """Print the backend x dtype throughput comparison."""
    result = run(system=system)
    print("Experiment E11: streaming runtime throughput "
          f"(system '{result['system']}', architecture {result['architecture']}, "
          f"{result['n_frames']} frames, batch={result['batch']}, "
          f"scheme={result['scheme']} "
          f"[{result['firings_per_frame']} firing(s)/frame])")
    print(f"  voxels per frame          : {result['voxels_per_frame']}")
    for backend, rows in result["backends"].items():
        for precision, row in rows.items():
            speedup = row["speedup_vs_reference"]
            speedup_text = (f"{speedup:.2f}x vs reference"
                            if speedup is not None else "(no reference row)")
            print(f"  {backend:<10s} {precision:<8s}: "
                  f"{row['frames_per_second']:8.2f} frames/s  "
                  f"(batched {row['batched_frames_per_second']:8.2f})  "
                  f"{row['voxels_per_second']:.3e} voxels/s  "
                  f"{speedup_text}  "
                  f"cache {row['cache_hits']}h/{row['cache_misses']}m")
    print("  (paper target: 15 volumes/s sustained, Section II-C)")


if __name__ == "__main__":
    import argparse

    from ..config import PRESETS, get_preset

    parser = argparse.ArgumentParser(
        description="E11 streaming runtime throughput")
    parser.add_argument("--system", choices=sorted(PRESETS), default=None,
                        help="system preset to measure on [default: tiny]")
    args = parser.parse_args()
    main(system=get_preset(args.system) if args.system else None)
