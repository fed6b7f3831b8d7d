"""Benchmark: multi-session server soak — aggregate voxels/s vs workers.

Drives :func:`repro.server.soak.run_soak` at the acceptance shape (8
concurrent sessions on the ``small`` preset) and at a single-worker
control point, and checks the scaling property the server exists for:
multiplexing the same offered load over more workers must raise aggregate
throughput.  Like every wall-clock assertion in this repo, the ordering is
enforced only under ``REPRO_BENCH_STRICT`` (unset = report-only, so an
oversubscribed CI runner cannot fail the suite on neighbour noise);
bookkeeping assertions (frame counts, zero drops under the lossless
``block`` policy) always run.  On a single-core machine worker scaling is
physically impossible, so the strict check becomes a bound on the
multiplexing overhead instead of an ordering.

The measured rows are the ones ``python -m repro.server.soak`` prints,
labelled ``s{sessions}w{workers}``.

Marked ``soak`` so CI can time-box it separately
(``pytest benchmarks/test_bench_server.py -m soak``).
"""

from __future__ import annotations

import os

import pytest

from repro.server.soak import run_soak

pytestmark = pytest.mark.soak

BENCH_STRICT = os.environ.get("REPRO_BENCH_STRICT", "") not in ("", "0")

SESSIONS = 8
FRAMES_PER_SESSION = 3
WORKERS = max(2, min(4, os.cpu_count() or 2))
MULTICORE = (os.cpu_count() or 1) >= 2
"""Worker scaling needs actual cores: on a single-core runner the strict
check degrades to a bounded-multiplexing-overhead assertion instead."""

#: Single-core floor: serving the same load through WORKERS contending
#: workers must keep at least this fraction of single-worker throughput.
SINGLE_CORE_OVERHEAD_FLOOR = 0.4


@pytest.fixture(scope="module")
def soak_rows():
    """One single-worker control row and one full-pool row, same load."""
    serial = run_soak(sessions=SESSIONS,
                      frames_per_session=FRAMES_PER_SESSION, workers=1)
    pooled = run_soak(sessions=SESSIONS,
                      frames_per_session=FRAMES_PER_SESSION,
                      workers=WORKERS)
    return serial, pooled


def test_bench_server_soak_scales_with_workers(soak_rows, report):
    serial, pooled = soak_rows
    ratio = pooled["voxels_per_second"] / serial["voxels_per_second"] \
        if serial["voxels_per_second"] else 0.0
    report(
        f"Server soak: {SESSIONS} sessions x {FRAMES_PER_SESSION} frames "
        "(system 'small', backend vectorized, policy block)",
        *(f"  s{row['sessions']}w{row['workers']:<5d} "
          f"{row['workers']} worker(s): "
          f"{row['voxels_per_second']:12.3e} voxels/s   "
          f"p99 {row['p99_latency_seconds'] * 1e3:8.2f} ms   "
          f"{row['drops']} drops"
          for row in (serial, pooled)),
        f"  scaling: {ratio:.2f}x aggregate throughput from "
        f"1 -> {WORKERS} workers"
        + ("" if BENCH_STRICT else "   [REPRO_BENCH_STRICT unset: "
                                   "ordering not enforced]"))
    for row in (serial, pooled):
        assert row["frames"] == SESSIONS * FRAMES_PER_SESSION
        assert row["drops"] == 0  # block policy is lossless
        assert row["voxels_per_second"] > 0
    # Cross-session plan sharing: the whole soak compiles exactly once
    # per configuration (the warm-up frame), every other frame hits.
    assert pooled["cache_misses"] == 1
    assert pooled["cache_hits"] >= SESSIONS * FRAMES_PER_SESSION - 1
    if BENCH_STRICT and MULTICORE:
        assert pooled["voxels_per_second"] > serial["voxels_per_second"], (
            f"aggregate served throughput did not scale with workers: "
            f"{pooled['voxels_per_second']:.3e} voxels/s with {WORKERS} "
            f"workers vs {serial['voxels_per_second']:.3e} with 1")
    elif BENCH_STRICT:
        floor = SINGLE_CORE_OVERHEAD_FLOOR * serial["voxels_per_second"]
        assert pooled["voxels_per_second"] >= floor, (
            f"multiplexing overhead on a single core exceeded the bound: "
            f"{pooled['voxels_per_second']:.3e} voxels/s with {WORKERS} "
            f"workers vs {serial['voxels_per_second']:.3e} with 1 "
            f"(floor {SINGLE_CORE_OVERHEAD_FLOOR}x)")


def test_bench_server_soak_latency_percentiles(soak_rows):
    """The soak rows carry ordered p50/p95/p99 latency quantiles."""
    for row in soak_rows:
        assert 0 < row["p50_latency_seconds"] <= row["p95_latency_seconds"]
        assert row["p95_latency_seconds"] <= row["p99_latency_seconds"]
