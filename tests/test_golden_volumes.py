"""Golden regression fixtures: today's numerics, frozen bit-for-bit.

``tests/golden/tiny_tablesteer.npz`` holds small deterministic reference
volumes for one fully-specified engine (tiny preset, 18-bit TABLESTEER
delays, Hann + directivity apodization, nearest interpolation) under the
three kernel execution modes: ``float64``, ``float32`` and the bit-true
quantized datapath.  Every execution path — the classic per-scanline DAS
loop, the uncompiled kernels, and the three runtime backends — must keep
reproducing these arrays exactly; any numeric drift introduced by a
refactor of :mod:`repro.beamformer`, :mod:`repro.kernels` or
:mod:`repro.runtime` fails here first, with a diff a human has to look at.

After an *intentional* numeric change, regenerate with::

    pytest tests/test_golden_volumes.py --regen-golden

review the ``tests/golden/`` diff, and commit it with the change.

Determinism notes: the cine is noise-free (no RNG anywhere on the path),
and every kernel reduces with NumPy's pairwise summation over fixed
shapes, so the volumes are reproducible across runs and platforms for a
given NumPy; the suite and CI exercise the same environment matrix.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.acoustics.echo import EchoSimulator
from repro.acoustics.phantom import point_target
from repro.architectures import ARCHITECTURES
from repro.beamformer.das import DelayAndSumBeamformer
from repro.geometry.volume import FocalGrid
from repro.kernels import QuantizationSpec
from repro.runtime import BACKENDS

GOLDEN_PATH = Path(__file__).parent / "golden" / "tiny_tablesteer.npz"

#: The three frozen execution modes: name -> (precision, quantization).
CONFIGS = {
    "float64": ("float64", None),
    "float32": ("float32", None),
    "quantized_18b": ("float64", QuantizationSpec.from_total_bits(18)),
}


@pytest.fixture(scope="module")
def engine(tiny):
    """The fully-specified deterministic engine the goldens were cut from."""
    provider = ARCHITECTURES.create("tablesteer", tiny,
                                    options={"total_bits": 18})
    grid = FocalGrid.from_config(tiny)
    depth = float(grid.depths[len(grid.depths) // 2])
    channel_data = EchoSimulator.from_config(tiny).simulate(
        point_target(depth=depth))
    return provider, channel_data


def _beamformer(tiny, provider, config):
    precision, quantization = CONFIGS[config]
    return DelayAndSumBeamformer(tiny, provider, precision=precision,
                                 quantization=quantization)


def _compute_volumes(tiny, engine):
    provider, channel_data = engine
    return {config: BACKENDS.create("vectorized",
                                    _beamformer(tiny, provider, config),
                                    None, None)
            .beamform_volume(channel_data)
            for config in CONFIGS}


@pytest.fixture(scope="module")
def golden(request, tiny, engine):
    """The stored reference volumes (regenerated under ``--regen-golden``)."""
    if request.config.getoption("--regen-golden"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        np.savez(GOLDEN_PATH, **_compute_volumes(tiny, engine))
    if not GOLDEN_PATH.exists():
        pytest.fail(f"missing golden fixture {GOLDEN_PATH}; run "
                    "'pytest tests/test_golden_volumes.py --regen-golden' "
                    "and commit the result")
    with np.load(GOLDEN_PATH) as stored:
        return {name: stored[name] for name in stored.files}


def test_golden_file_covers_every_config(golden):
    assert set(golden) == set(CONFIGS)
    for name, volume in golden.items():
        assert volume.shape == (8, 8, 16)
        assert volume.dtype == (np.float32 if name == "float32"
                                else np.float64)
        assert np.all(np.isfinite(volume))


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("backend", ["reference", "vectorized"])
def test_backends_reproduce_golden_bit_for_bit(tiny, engine, golden,
                                               backend, config):
    """No execution strategy may drift from the frozen volumes."""
    provider, channel_data = engine
    instance = BACKENDS.create(backend, _beamformer(tiny, provider, config),
                               None, None)
    np.testing.assert_array_equal(instance.beamform_volume(channel_data),
                                  golden[config])


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_batched_execution_reproduces_golden(tiny, engine, golden, config):
    """The multi-frame gather path is pinned to the same bits."""
    provider, channel_data = engine
    instance = BACKENDS.create("vectorized",
                               _beamformer(tiny, provider, config),
                               None, None)
    batch = instance.beamform_batch([channel_data, channel_data])
    np.testing.assert_array_equal(batch[0], golden[config])
    np.testing.assert_array_equal(batch[1], golden[config])


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_classic_scanline_das_reproduces_golden(tiny, engine, golden,
                                                config):
    """The per-scanline DAS loop (the layer under the backends) is pinned
    too, so a drift localises to DAS vs kernels vs backends."""
    provider, channel_data = engine
    beamformer = _beamformer(tiny, provider, config)
    for i_theta in (0, 3, 7):
        for i_phi in (1, 4):
            np.testing.assert_array_equal(
                beamformer.beamform_scanline(channel_data, i_theta, i_phi),
                golden[config][i_theta, i_phi])


def test_golden_modes_differ_from_each_other(golden):
    """The three stored modes are genuinely distinct datapaths (a stale
    regen copying one array into all three keys would pass equality
    everywhere else)."""
    assert not np.array_equal(golden["float64"],
                              golden["quantized_18b"])
    assert not np.array_equal(golden["float64"],
                              golden["float32"].astype(np.float64))
