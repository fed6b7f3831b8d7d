"""Benchmark: building the receive weights of a float nearest plan.

``leaf_rows`` builds the pruned leaf-order weights (kept mask, row
pointers, kept weights) every CSR plan of a range shares; it is the
per-(point, element) table of a cold start.  Timed here per (point,
element) entry, cold memo each round, on the whole ``small`` grid and on
one interior scanline of the paper's 100 x 100 probe (an interior line:
the +/-theta_max corner lines keep only a few percent of the pairs).  The
rounds must agree bit for bit.  See ``docs/memory.md`` ("Receive
weights") for the recorded numbers and the exactness argument.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
import pytest

from repro.architectures import ARCHITECTURES
from repro.beamformer.das import DelayAndSumBeamformer
from repro.config import paper_system, small_system
from repro.kernels import leaf_rows
from repro.kernels import plan as plan_module

ROUNDS = 5


def _slice(name: str):
    """``(system, start, stop)``: the whole ``small`` grid, or one interior
    scanline (theta and phi index 64 of 128) of the ``paper`` grid."""
    if name == "small":
        system = small_system()
        return system, 0, system.volume.focal_point_count
    system = paper_system()
    volume = system.volume
    start = (64 * volume.n_phi + 64) * volume.n_depth
    return system, start, start + volume.n_depth


@pytest.mark.parametrize("name", ["small", "paper"])
def test_bench_leaf_rows(benchmark, report, name):
    system, start, stop = _slice(name)
    beamformer = DelayAndSumBeamformer(
        system, ARCHITECTURES.create("tablesteer", system))
    seconds, digests = [], set()

    def build():
        plan_module._WEIGHTS.clear()
        beamformer._plan_weights.clear()
        began = time.perf_counter()
        rows = leaf_rows(beamformer, start, stop, np.float64)
        seconds.append(time.perf_counter() - began)
        digests.add(hashlib.sha256(b"".join(
            array.tobytes() for array in (rows.kept, rows.indptr,
                                          rows.weights))).hexdigest())
        return rows

    rows = benchmark.pedantic(build, rounds=ROUNDS, iterations=1)
    entries = (stop - start) * beamformer.transducer.element_count
    per_entry = np.array(seconds) / entries * 1e9
    q1, median, q3 = np.percentile(per_entry, [25, 50, 75])
    report(f"leaf_rows ({name}, {stop - start} points x "
           f"{beamformer.transducer.element_count} elements, "
           f"{rows.nnz / entries:.1%} kept): median {median:.2f} ns per "
           f"(point, element), quartiles {q1:.2f}-{q3:.2f}, "
           f"{len(seconds)} cold builds")
    assert len(digests) == 1
