"""Benchmark: a 4-frame batch of a float nearest (CSR) engine.

TABLESTEER on ``small``, resident and under a ``32M`` plan budget (there
the grid is two tile segments and the cache holds one, so every batch
runs the held tile and compiles the other: the paper's regime, as in the
``cine_budgeted`` bench workload).  Three kinds of frame:

* ``simulated`` float64 frames are read where the echo simulator wrote
  them, one sparse product per frame and tile, with no copy of the batch;
* ``user-built`` float64 frames (each in a buffer of its own) and
  ``float32`` engines (whose simulated frames are float64) do not lie in
  their padded vectors, so the batch is copied once into the interleaved
  buffer and multiplied at once.

Reported per batch: the wall time and the ``tracemalloc`` peak, each with
its quartiles over the rounds; the rounds must agree bit for bit.  See
``docs/memory.md`` ("A frame is read, not copied") for the recorded
numbers.
"""

from __future__ import annotations

import hashlib
import time
import tracemalloc

import numpy as np
import pytest

from repro.acoustics.echo import ChannelData
from repro.acoustics.phantom import point_target
from repro.api import EngineSpec, Session

ROUNDS = 7
BATCH = 4


@pytest.mark.parametrize("budget", [None, "32M"])
@pytest.mark.parametrize("kind", ["simulated", "user-built", "float32"])
def test_bench_csr_batch(benchmark, report, kind, budget):
    precision = "float32" if kind == "float32" else "float64"
    with Session(EngineSpec(system="small", architecture="tablesteer",
                            backend="vectorized", precision=precision,
                            memory_budget_bytes=budget)) as session:
        service = session.service()
        depth = float(session.grid.depths[len(session.grid.depths) // 2])
        frames = [session.acquire(point_target(depth=depth), noise_std=0.01,
                                  seed=seed) for seed in range(BATCH)]
        if kind == "user-built":
            frames = [ChannelData(np.array(frame.samples),
                                  frame.sampling_frequency)
                      for frame in frames]
        service.submit_batch(frames)
        seconds, peaks, digests = [], [], set()

        def batch():
            tracemalloc.start()
            try:
                began = time.perf_counter()
                results = service.submit_batch(frames)
                seconds.append(time.perf_counter() - began)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            digests.add(hashlib.sha256(b"".join(
                result.rf.tobytes() for result in results)).hexdigest())
            return results

        benchmark.pedantic(batch, rounds=ROUNDS, iterations=1)
        tiles = service.engine.backends[0].planner.n_tiles
    frame_mib = frames[0].samples.nbytes / 2**20
    ms = np.percentile(np.array(seconds) * 1e3, [25, 50, 75])
    mib = np.percentile(np.array(peaks) / 2**20, [25, 50, 75])
    report(f"{budget or 'resident'} CSR batch, {kind} ({BATCH} frames of "
           f"{frame_mib:.2f} MiB, {tiles} tiles, {len(seconds)} rounds, "
           f"traced): median {ms[1]:.1f} ms per batch (quartiles "
           f"{ms[0]:.1f}-{ms[2]:.1f}), traced peak median {mib[1]:.2f} MiB "
           f"(quartiles {mib[0]:.2f}-{mib[2]:.2f})")
    assert (tiles > 1) == (budget is not None)
    assert len(digests) == 1
