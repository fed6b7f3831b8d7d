"""Cross-layer conformance matrix: backend x batching x scheme x precision.

One suite that pins **every execution path** against the reference oracle
for **every registered transmit scheme**:

* ``float64`` volumes must be *bit-identical* across the three NumPy
  execution backends and both batching modes, for every scheme — the
  compounding layer adds per-firing volumes in a fixed event order, so any
  divergence localises to a kernel/backend/batching change;
* the ``compiled`` backend (numba hosts only) is held to the pinned
  :data:`repro.kernels.TOLERANCES` ``FLOAT64`` row instead — its fused
  kernels pin NumPy's scalar pairwise-sum base case, which matches
  ``np.sum`` bitwise up to 128 elements and differs only in association
  order beyond (see ``docs/kernels.md``); its per-frame and batched
  volumes must still be bit-identical to *each other*;
* ``float32`` volumes must match the ``float64`` oracle within the pinned
  :data:`repro.kernels.TOLERANCES`;
* quantized (18-bit) volumes must be bit-identical across the NumPy
  backends and batching against the quantized reference oracle, and sit
  within a documented coarse tolerance of the float oracle; the
  ``compiled`` backend must *reject* quantized engines explicitly.

The suite is marked ``conformance`` so CI runs it as its own matrix job
(``pytest -m conformance``) while the fast unit job deselects it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import EngineSpec, ScanSpec, Session
from repro.kernels import (
    TOLERANCES,
    Precision,
    numba_available,
    plan_storage_bytes,
)
from repro.runtime.cache import PlanCache

pytestmark = pytest.mark.conformance

#: scheme name -> options keeping the tiny-system matrix fast.
SCHEMES_UNDER_TEST = {
    "focused": None,
    "planewave": {"n_angles": 3},
    "synthetic_aperture": {"every": 16},
    "diverging": {"count": 2},
}

NUMPY_BACKENDS = ("reference", "vectorized")
requires_numba = pytest.mark.skipif(
    not numba_available(),
    reason="numba not installed (compiled backend unavailable)")
BACKENDS_UNDER_TEST = NUMPY_BACKENDS + (
    pytest.param("compiled", marks=requires_numba),)
BATCH_MODES = ("per_frame", "batched")

#: Quantized-vs-float coarse equivalence: the 18-bit datapath rounds
#: samples/weights/delays, so the compounded volume may move by a few
#: percent of peak — but never more (same pin philosophy as TOLERANCES).
QUANTIZED_VS_FLOAT_ATOL = 0.05

#: A quarter of the tiny system's untiled plan — forces every tiled cell
#: to stream the sweep through four budget-sized segments.
TILE_BUDGET = plan_storage_bytes(8 * 8 * 16, 64, "float64") // 4


@pytest.fixture(scope="module")
def matrix(tiny):
    """Per-scheme shared substrates: session, firings and oracles.

    The channel data are acquired once per scheme; every backend/batching
    cell beamforms the identical firings, so differences can only come
    from execution strategy.
    """
    cells = {}
    for scheme, options in SCHEMES_UNDER_TEST.items():
        spec = EngineSpec(system="tiny", architecture="tablesteer",
                          architecture_options={"total_bits": 18},
                          scheme=scheme, scheme_options=options)
        session = Session(spec)
        frame = ScanSpec(scenario="static_point",
                         frames=1).build_frames(session.system)[0]
        firings = session.acquire_firings(frame.phantom)
        oracle = session.pipeline(backend="reference") \
            .compound_volume(firings).rf
        oracle_quantized = session.pipeline(
            backend="reference", quantization=18).compound_volume(firings).rf
        cells[scheme] = (session, firings, oracle, oracle_quantized)
    return cells


def _volume(session, firings, backend, batch_mode, **pipeline_kwargs):
    pipeline = session.pipeline(backend=backend, **pipeline_kwargs)
    if batch_mode == "per_frame":
        return pipeline.compound_volume(firings).rf
    batch = pipeline.compound_batch([firings, firings])
    np.testing.assert_array_equal(batch[0], batch[1])
    return batch[0]


@pytest.mark.parametrize("batch_mode", BATCH_MODES)
@pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
@pytest.mark.parametrize("scheme", sorted(SCHEMES_UNDER_TEST))
def test_float64_bit_identical(matrix, scheme, backend, batch_mode):
    """Every backend and batching mode reproduces the oracle bit for bit —
    except ``compiled``, which is held to the pinned FLOAT64 tolerance row
    (its fused reduction matches np.sum's association order only up to 128
    elements; the pin is documented in docs/kernels.md)."""
    session, firings, oracle, _ = matrix[scheme]
    volume = _volume(session, firings, backend, batch_mode)
    assert volume.dtype == np.float64
    if backend == "compiled":
        TOLERANCES[Precision.FLOAT64].assert_allclose(volume, oracle)
    else:
        np.testing.assert_array_equal(volume, oracle)


@requires_numba
@pytest.mark.parametrize("scheme", sorted(SCHEMES_UNDER_TEST))
def test_compiled_batched_equals_per_frame(matrix, scheme):
    """The compiled backend's batched path must be bit-identical to its
    per-frame path (a frame runs as a batch of one of the same kernel),
    even though both are only tolerance-close to the NumPy oracle."""
    session, firings, oracle, _ = matrix[scheme]
    per_frame = _volume(session, firings, "compiled", "per_frame")
    batched = _volume(session, firings, "compiled", "batched")
    np.testing.assert_array_equal(per_frame, batched)


@pytest.mark.parametrize("batch_mode", BATCH_MODES)
@pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
@pytest.mark.parametrize("scheme", sorted(SCHEMES_UNDER_TEST))
def test_float32_within_pinned_tolerance(matrix, scheme, backend, batch_mode):
    """float32 execution stays inside the pinned TOLERANCES table."""
    session, firings, oracle, _ = matrix[scheme]
    volume = _volume(session, firings, backend, batch_mode,
                     precision="float32")
    assert volume.dtype == np.float32
    TOLERANCES[Precision.FLOAT32].assert_allclose(volume, oracle)


@pytest.mark.parametrize("batch_mode", BATCH_MODES)
@pytest.mark.parametrize("backend", NUMPY_BACKENDS)
@pytest.mark.parametrize("scheme", sorted(SCHEMES_UNDER_TEST))
def test_quantized_bit_identical_and_near_float(matrix, scheme, backend,
                                                batch_mode):
    """The 18-bit datapath is bit-true across execution paths and lands
    within the documented coarse envelope of the float oracle."""
    session, firings, oracle, oracle_quantized = matrix[scheme]
    volume = _volume(session, firings, backend, batch_mode, quantization=18)
    np.testing.assert_array_equal(volume, oracle_quantized)
    peak = float(np.max(np.abs(oracle))) or 1.0
    assert np.max(np.abs(volume - oracle)) <= QUANTIZED_VS_FLOAT_ATOL * peak


@pytest.mark.parametrize("scheme", sorted(SCHEMES_UNDER_TEST))
def test_compiled_rejects_quantized_engines(matrix, scheme):
    """The compiled backend refuses quantized execution with a clear error
    (the bit-true rounding stages run on the NumPy plan only).  Registered
    name, not numba, gates this — it must hold on numba-free hosts too."""
    session, _, _, _ = matrix[scheme]
    with pytest.raises(ValueError, match="quantized"):
        session.pipeline(backend="compiled", quantization=18)


@pytest.mark.parametrize("scheme", sorted(SCHEMES_UNDER_TEST))
def test_service_stream_matches_pipeline(matrix, scheme):
    """The streaming service (per-frame and batched) reproduces the same
    compounded bits as the pipeline path."""
    session, firings, oracle, _ = matrix[scheme]
    per_frame = session.service(backend="vectorized") \
        .submit_frame(tuple(firings) if len(firings) > 1 else firings[0])
    np.testing.assert_array_equal(per_frame.rf, oracle)
    batched = session.service(backend="vectorized").submit_batch(
        [tuple(firings) if len(firings) > 1 else firings[0]] * 2)
    np.testing.assert_array_equal(batched[0].rf, oracle)
    np.testing.assert_array_equal(batched[1].rf, oracle)


@pytest.mark.parametrize("scheme", sorted(SCHEMES_UNDER_TEST))
def test_server_matches_pipeline_under_concurrent_load(matrix, scheme):
    """The multi-stream server adds queueing and transport, never
    arithmetic: with drops disabled (lossless ``block`` policy), every
    frame served to every concurrent session is bit-identical to the
    pipeline oracle."""
    session, firings, oracle, _ = matrix[scheme]
    payload = tuple(firings) if len(firings) > 1 else firings[0]
    server = session.server(workers=2)  # block policy: lossless
    try:
        handles = [server.open_session() for _ in range(4)]
        tickets = [handle.submit(payload)
                   for _ in range(2) for handle in handles]
        for ticket in tickets:
            volume = ticket.result(timeout=120).rf
            assert volume.dtype == np.float64
            np.testing.assert_array_equal(volume, oracle)
        assert server.stats().drops == 0
    finally:
        server.close()


# -------------------------------------------------------- tiled execution
@pytest.mark.parametrize("batch_mode", BATCH_MODES)
@pytest.mark.parametrize("backend", BACKENDS_UNDER_TEST)
@pytest.mark.parametrize("scheme", sorted(SCHEMES_UNDER_TEST))
def test_tiled_float64_bit_identical(matrix, scheme, backend, batch_mode):
    """Memory-budgeted tiled execution never changes the bits: every
    backend and batching mode under a four-tile budget reproduces its own
    untiled volume exactly (the NumPy backends therefore also reproduce
    the reference oracle), and the resident segment bytes never exceed
    the budget."""
    session, firings, oracle, _ = matrix[scheme]
    cache = PlanCache()  # private: keeps the byte bound out of the module cache
    volume = _volume(session, firings, backend, batch_mode,
                     memory_budget_bytes=TILE_BUDGET, cache=cache)
    assert volume.dtype == np.float64
    if backend == "compiled":
        # compiled is tolerance-close to the NumPy oracle, but its tiled
        # sweep must still be bit-identical to its own untiled sweep.
        untiled = _volume(session, firings, "compiled", batch_mode)
        np.testing.assert_array_equal(volume, untiled)
        TOLERANCES[Precision.FLOAT64].assert_allclose(volume, oracle)
    else:
        np.testing.assert_array_equal(volume, oracle)
    if backend != "reference":  # reference validates the budget, never tiles
        assert 0 < cache.stats.peak_bytes <= TILE_BUDGET


@pytest.mark.parametrize("batch_mode", BATCH_MODES)
@pytest.mark.parametrize("backend", NUMPY_BACKENDS)
@pytest.mark.parametrize("scheme", sorted(SCHEMES_UNDER_TEST))
def test_tiled_quantized_bit_identical(matrix, scheme, backend, batch_mode):
    """The bit-true 18-bit datapath survives tiling unchanged: quantized
    tiled volumes equal the quantized reference oracle bit for bit."""
    session, firings, _, oracle_quantized = matrix[scheme]
    volume = _volume(session, firings, backend, batch_mode, quantization=18,
                     memory_budget_bytes=TILE_BUDGET, cache=PlanCache())
    np.testing.assert_array_equal(volume, oracle_quantized)


@pytest.mark.parametrize("scheme", sorted(SCHEMES_UNDER_TEST))
def test_tiled_service_stream_matches_pipeline(matrix, scheme):
    """The streaming service under a memory budget reproduces the untiled
    pipeline oracle bit for bit."""
    session, firings, oracle, _ = matrix[scheme]
    payload = tuple(firings) if len(firings) > 1 else firings[0]
    service = session.service(backend="vectorized",
                              memory_budget_bytes=TILE_BUDGET,
                              cache=PlanCache())
    result = service.submit_frame(payload)
    np.testing.assert_array_equal(result.rf, oracle)


@pytest.mark.parametrize("scheme", sorted(SCHEMES_UNDER_TEST))
def test_tiled_server_matches_pipeline(matrix, scheme):
    """A server whose sessions run under a per-session memory budget
    serves volumes bit-identical to the untiled pipeline oracle, with the
    session cache's peak resident plan bytes inside the budget."""
    _, firings, oracle, _ = matrix[scheme]
    payload = tuple(firings) if len(firings) > 1 else firings[0]
    spec = EngineSpec(system="tiny", architecture="tablesteer",
                      architecture_options={"total_bits": 18},
                      backend="vectorized", scheme=scheme,
                      scheme_options=SCHEMES_UNDER_TEST[scheme],
                      memory_budget_bytes=TILE_BUDGET)
    with Session(spec) as tiled_session:
        server = tiled_session.server(workers=2)
        handles = [server.open_session() for _ in range(2)]
        tickets = [handle.submit(payload) for handle in handles]
        for ticket in tickets:
            np.testing.assert_array_equal(ticket.result(timeout=120).rf,
                                          oracle)
        assert server.stats().drops == 0
        assert 0 < tiled_session.cache.stats.peak_bytes <= TILE_BUDGET


def test_sweep_grid_covers_matrix_from_json(tiny):
    """Acceptance: Session.sweep() runs a scenario x scheme x architecture
    grid from a single JSON spec, scored per cell."""
    session = Session(EngineSpec(system="tiny"))
    spec_json = """{
        "scenarios": ["static_point"],
        "schemes": ["focused", "planewave"],
        "architectures": ["exact", "tablesteer"],
        "backends": ["reference", "vectorized"]
    }"""
    grid = session.sweep(spec=spec_json)
    assert len(grid) == 1 * 2 * 2 * 2
    for (scenario, scheme, architecture, backend), cell in grid.items():
        assert cell["volume"].shape == session.grid.shape
        assert "metrics" in cell
    # Per (scenario, scheme, architecture), the backends are bit-identical.
    for scheme in ("focused", "planewave"):
        for architecture in ("exact", "tablesteer"):
            np.testing.assert_array_equal(
                grid[("static_point", scheme, architecture, "reference")]
                ["volume"],
                grid[("static_point", scheme, architecture, "vectorized")]
                ["volume"])
