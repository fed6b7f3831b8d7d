"""A frame is read, not copied.

The echo simulator leaves every trace as a C-contiguous view at the start
of a buffer one sample longer whose last sample is 0 — the zero-padded
echo buffer a float nearest (CSR) plan reads.  So a CSR plan multiplies
its matrix with the simulator's buffer itself, one frame at a time, and
no frame-sized buffer is allocated (``tracemalloc``).  A batch holding
any other frame is copied once into the interleaved buffer and
multiplied at once, bit for bit.  Each frame is scanned for non-finite
samples once per call, wherever the call enters: the service, the
pipeline, a stream, a backend or a plan used directly.
"""

from __future__ import annotations

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.acoustics.echo import ChannelData, EchoSimulator
from repro.acoustics.phantom import point_target
from repro.api import EngineSpec, ScanSpec, Session
from repro.architectures import ARCHITECTURES
from repro.beamformer.das import DelayAndSumBeamformer
from repro.kernels import TilePlanner, compile_plan, plan as plan_module
from repro.kernels.ops import frame_vector, pad_frames
from repro.runtime import backends
from repro.runtime.backends import VectorizedBackend
from repro.scenarios import engine as engine_module

BATCH = 4


def _acquire(session: Session, n: int) -> list[ChannelData]:
    depth = float(session.grid.depths[len(session.grid.depths) // 2])
    return [session.acquire(point_target(depth=depth), noise_std=0.01,
                            seed=seed) for seed in range(n)]


def _user_built(frame: ChannelData) -> ChannelData:
    """The same samples in a buffer of their own, with no sink behind."""
    return ChannelData(np.array(frame.samples), frame.sampling_frequency)


def _traced(call):
    """``(result, peak)``: the traced peak [bytes] of ``call()``."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------- qualification
def test_a_simulated_frame_is_its_padded_vector(tiny):
    frame = EchoSimulator.from_config(tiny).simulate(
        point_target(depth=0.004), noise_std=0.01)
    vector = frame_vector(frame.samples, np.float64)
    assert vector is not None and vector.size == frame.samples.size + 1
    assert np.shares_memory(vector, frame.samples) and vector[-1] == 0
    np.testing.assert_array_equal(vector[:-1], frame.samples.ravel())


def test_other_frames_do_not_qualify(tiny):
    samples = EchoSimulator.from_config(tiny).simulate(
        point_target(depth=0.004)).samples
    assert frame_vector(samples, np.float32) is None
    assert frame_vector(samples.copy(), np.float64) is None
    assert frame_vector(samples[:, :-1], np.float64) is None
    assert frame_vector(samples[1:], np.float64) is None
    assert frame_vector(samples.T, np.float64) is None
    buffer = np.ones(samples.size + 1)
    assert frame_vector(buffer[:-1].reshape(samples.shape),
                        np.float64) is None
    buffer[-1] = 0
    assert frame_vector(buffer[:-1].reshape(samples.shape),
                        np.float64) is buffer


def test_padded_frames_read_in_place_or_interleave_once(tiny):
    samples = EchoSimulator.from_config(tiny).simulate(
        point_target(depth=0.004)).samples
    in_place = pad_frames([samples, samples], np.float64, None,
                          samples.shape)
    assert [vector is samples.base for vector in in_place.vectors] == \
        [True, True]
    assert pad_frames([samples], np.float32, None,
                      samples.shape).vectors is None
    mixed = pad_frames([samples, samples.copy()], np.float64, None,
                       samples.shape)
    assert mixed.vectors is None
    interleaved = mixed.interleaved()
    assert interleaved is mixed.interleaved()
    assert interleaved.shape == (samples.size + 1, 2)
    assert (interleaved[-1] == 0).all()
    np.testing.assert_array_equal(interleaved[:-1, 0], samples.ravel())
    np.testing.assert_array_equal(interleaved[:-1, 1], samples.ravel())
    with pytest.raises(ValueError, match="compiled for"):
        pad_frames([samples[:, :-1]], np.float64, None, samples.shape)


# ------------------------------------------------------------ no frame copy
@pytest.fixture(scope="module")
def small_session():
    with Session(EngineSpec(system="small", architecture="tablesteer",
                            backend="vectorized")) as session:
        yield session


def test_a_resident_frame_allocates_no_frame_sized_buffer(small_session):
    service = small_session.service()
    frames = _acquire(small_session, 2)
    service.submit_frame(frames[0])
    _, peak = _traced(lambda: service.submit_frame(frames[1]))
    assert peak < frames[1].samples.nbytes


def test_a_budgeted_batch_holds_no_frame_beside_the_compile(monkeypatch):
    """Under ``32M`` each 4-frame batch compiles the tile its cache does
    not hold.  Outside that compile the call allocates no frame-sized
    buffer, and nothing frame-sized is live while it runs."""
    with Session(EngineSpec(system="small", architecture="tablesteer",
                            backend="vectorized",
                            memory_budget_bytes="32M")) as session:
        service = session.service()
        frames = _acquire(session, BATCH)
        assert service.engine.backends[0].planner.n_tiles > 1
        for _ in range(2):
            service.submit_batch(frames)
        phases = []
        compile_plans = backends.compile_plans

        def compile_traced(*args, **kwargs):
            live, peak = tracemalloc.get_traced_memory()
            phases.append(("before", peak))
            phases.append(("live at compile", live))
            plans = compile_plans(*args, **kwargs)
            phases.append(("built", tracemalloc.get_traced_memory()[0]))
            tracemalloc.reset_peak()
            return plans

        monkeypatch.setattr(backends, "compile_plans", compile_traced)
        _, peak = _traced(lambda: service.submit_batch(frames))
        assert [name for name, _ in phases] == ["before", "live at compile",
                                                "built"]
        frame_bytes = frames[0].samples.nbytes
        assert phases[0][1] < frame_bytes
        assert phases[1][1] < frame_bytes
        assert peak - phases[2][1] < frame_bytes


def test_user_built_frames_are_copied_once_bit_for_bit(small_session):
    """Frames without a zero sink behind them are copied once per call:
    a single frame into one padded vector, a batch into one interleaved
    buffer, which the plan multiplies at once (it reads the matrix once
    for the batch, where a product per frame would read it per frame).
    Either way they beamform bit for bit as the simulator's own buffers
    do."""
    service = small_session.service()
    frames = _acquire(small_session, BATCH)
    user = [_user_built(frame) for frame in frames]
    assert all(frame_vector(frame.samples, np.float64) is None
               for frame in user)
    service.submit_batch(frames)
    in_place, in_place_peak = _traced(lambda: service.submit_batch(frames))
    copied, copied_peak = _traced(lambda: service.submit_batch(user))
    for a, b in zip(in_place, copied):
        assert a.rf.tobytes() == b.rf.tobytes()
    frame_bytes = frames[0].samples.nbytes
    # One copy of the batch (beside it, the batch's leaf sums), not two.
    assert BATCH - 0.5 < (copied_peak - in_place_peak) / frame_bytes \
        < 2 * BATCH
    _, read_peak = _traced(lambda: service.submit_frame(frames[2]))
    single, single_peak = _traced(lambda: service.submit_frame(user[2]))
    assert single.rf.tobytes() == in_place[2].rf.tobytes()
    assert 0.5 < (single_peak - read_peak) / frame_bytes < 1.5


def test_at_the_paper_element_count(paper):
    """10 000 elements, one interior scanline, noise free: the frame is
    read where the simulator wrote it."""
    lam = paper.volume.depth_min
    system = paper.with_volume(n_theta=1, n_phi=1,
                               theta_max=math.radians(1.0),
                               phi_max=math.radians(1.0), n_depth=32,
                               depth_max=60 * lam)
    assert system.transducer.element_count == 10_000
    with Session(EngineSpec(system=system, architecture="tablesteer",
                            backend="vectorized")) as session:
        frame = session.acquire(point_target(depth=40 * lam))
        service = session.service()
        expected = service.submit_frame(frame).rf
        result, peak = _traced(lambda: service.submit_frame(frame))
        assert result.rf.tobytes() == expected.tobytes()
        assert np.abs(expected).max() > 0
        assert peak < frame.samples.nbytes // 100


# ---------------------------------------------------------- one scan each
@pytest.fixture()
def scans(monkeypatch):
    """Counts ``all_finite`` calls by the id of the scanned samples."""
    counts: Counter = Counter()
    for module in (engine_module, plan_module):
        scan = module.all_finite

        def counting(samples, dtype, scan=scan):
            counts[id(getattr(samples, "samples", samples))] += 1
            return scan(samples, dtype)

        monkeypatch.setattr(module, "all_finite", counting)
    return counts


def _scanned_once(counts: Counter, frames) -> None:
    assert dict(counts) == {id(frame.samples): 1 for frame in frames}
    counts.clear()


@pytest.mark.parametrize("budget", [None, "600K"])
@pytest.mark.parametrize("scheme", ["focused", "planewave"])
def test_every_frame_is_scanned_once_per_call(tiny, scans, scheme, budget):
    with Session(EngineSpec(system="tiny", backend="vectorized",
                            scheme=scheme,
                            memory_budget_bytes=budget)) as session:
        pipeline = session.pipeline()
        service = session.service()
        engine = pipeline.engine
        depth = float(session.grid.depths[8])
        frames = [engine.acquire(point_target(depth=depth), seed=seed)
                  for seed in range(3)]
        assert (engine.backends[0].planner.n_tiles > 1) == (budget
                                                            is not None)
        if scheme == "focused":
            service.submit_frame(frames[0][0])
            _scanned_once(scans, frames[0])
            service.submit_batch([firings[0] for firings in frames])
            _scanned_once(scans, [firings[0] for firings in frames])
            pipeline.image_volume(frames[1][0])
            _scanned_once(scans, frames[1])
        pipeline.compound_volume(frames[2])
        _scanned_once(scans, frames[2])
        pipeline.compound_batch(frames)
        _scanned_once(scans, [firing for firings in frames
                              for firing in firings])
        results = session.stream(ScanSpec(frames=3), batch_size=2)
        assert len(results) == 3
        # The stream's frames are freed as it goes, so ids may repeat.
        assert sum(scans.values()) == 3 * engine.firing_count


@pytest.mark.parametrize("budget", [None, "600K"])
def test_a_backend_or_plan_used_directly_scans_once(tiny, tiny_channel_data,
                                                   scans, budget):
    beamformer = DelayAndSumBeamformer(
        tiny, ARCHITECTURES.create("tablesteer", tiny))
    backend = VectorizedBackend(
        beamformer, TilePlanner.for_beamformer(beamformer, budget))
    frames = [tiny_channel_data, _user_built(tiny_channel_data)]
    backend.beamform_volume(frames[1])
    _scanned_once(scans, frames[1:])
    backend.beamform_batch(frames)
    _scanned_once(scans, frames)
    plan = compile_plan(beamformer)
    plan.execute(frames[0])
    _scanned_once(scans, frames[:1])
    plan.execute_batch(frames)
    _scanned_once(scans, frames)


def test_the_reference_backend_is_scanned_once(tiny, tiny_channel_data,
                                               scans):
    with Session(EngineSpec(system="tiny")) as session:
        session.service().submit_frame(tiny_channel_data)
        _scanned_once(scans, [tiny_channel_data])
        session.pipeline().image_volume(tiny_channel_data)
        _scanned_once(scans, [tiny_channel_data])



@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_the_boundary_scans_in_the_execution_dtype(tiny_channel_data,
                                                   backend):
    """A float64 sample beyond float32's range is inf once a float32
    engine coerces it: every backend refuses the frame by its id."""
    samples = tiny_channel_data.samples.copy()
    samples[3, 17] = 1e300
    huge = ChannelData(samples, tiny_channel_data.sampling_frequency)
    with Session(EngineSpec(system="tiny", backend=backend,
                            precision="float32")) as session:
        with np.errstate(over="ignore"), \
                pytest.raises(ValueError, match="frame 0 holds non-finite"):
            session.service().submit_frame(huge)
    with Session(EngineSpec(system="tiny", backend=backend)) as session:
        assert np.isfinite(session.service().submit_frame(huge).rf).all()
