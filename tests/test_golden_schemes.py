"""Golden regression fixtures for scheme composition: compounded volumes.

``tests/golden/tiny_schemes.npz`` freezes two deterministic float64
compounded volumes for the tiny 18-bit TABLESTEER engine — a 3-angle
plane-wave compound and a 4-firing synthetic-aperture compound of the
same grid-snapped point target.  The transmit/receive delay split, the
per-firing echo simulation and the compounding sum all feed these bits,
so drift anywhere in the scheme composition chain (scenarios, acoustics,
kernels, backends) fails here loudly, separately from the single-firing
goldens in ``tests/test_golden_volumes.py``.

Regenerate after an *intentional* numeric change with::

    pytest tests/test_golden_schemes.py --regen-golden

review the ``tests/golden/`` diff and commit it with the change.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.api import EngineSpec, ScanSpec, Session

GOLDEN_PATH = Path(__file__).parent / "golden" / "tiny_schemes.npz"

#: The frozen schemes: name -> scheme options.
CONFIGS = {
    "planewave": {"n_angles": 3},
    "synthetic_aperture": {"every": 16},
}


def _session(scheme: str) -> Session:
    return Session(EngineSpec(system="tiny", architecture="tablesteer",
                              architecture_options={"total_bits": 18},
                              scheme=scheme,
                              scheme_options=CONFIGS[scheme]))


def _compute_volumes() -> dict[str, np.ndarray]:
    volumes = {}
    for scheme in CONFIGS:
        session = _session(scheme)
        frame = ScanSpec(scenario="static_point",
                         frames=1).build_frames(session.system)[0]
        firings = session.acquire_firings(frame.phantom)
        volumes[scheme] = session.pipeline(backend="vectorized") \
            .compound_volume(firings).rf
    return volumes


@pytest.fixture(scope="module")
def golden(request):
    """The stored compounded volumes (regenerated under ``--regen-golden``)."""
    if request.config.getoption("--regen-golden"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        np.savez(GOLDEN_PATH, **_compute_volumes())
    if not GOLDEN_PATH.exists():
        pytest.fail(f"missing golden fixture {GOLDEN_PATH}; run "
                    "'pytest tests/test_golden_schemes.py --regen-golden' "
                    "and commit the result")
    with np.load(GOLDEN_PATH) as stored:
        return {name: stored[name] for name in stored.files}


def test_golden_file_covers_every_scheme(golden):
    assert set(golden) == set(CONFIGS)
    for volume in golden.values():
        assert volume.shape == (8, 8, 16)
        assert volume.dtype == np.float64
        assert np.all(np.isfinite(volume))
        assert np.max(np.abs(volume)) > 0


@pytest.mark.parametrize("backend", ["reference", "vectorized"])
@pytest.mark.parametrize("scheme", sorted(CONFIGS))
def test_backends_reproduce_compounded_golden(golden, scheme, backend):
    """No execution strategy may drift from the frozen compounded bits."""
    session = _session(scheme)
    frame = ScanSpec(scenario="static_point",
                     frames=1).build_frames(session.system)[0]
    firings = session.acquire_firings(frame.phantom)
    volume = session.pipeline(backend=backend).compound_volume(firings).rf
    np.testing.assert_array_equal(volume, golden[scheme])


def test_golden_schemes_differ_from_each_other_and_from_focused(golden, tiny):
    """The schemes are genuinely distinct acquisitions (a stale regen or a
    scheme silently collapsing to the focused path would alias them)."""
    assert not np.array_equal(golden["planewave"],
                              golden["synthetic_aperture"])
    session = Session(EngineSpec(system="tiny", architecture="tablesteer",
                                 architecture_options={"total_bits": 18}))
    frame = ScanSpec(scenario="static_point",
                     frames=1).build_frames(session.system)[0]
    focused = session.pipeline().image_scheme(frame.phantom).rf
    for volume in golden.values():
        assert not np.array_equal(volume, focused)
