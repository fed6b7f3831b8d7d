"""Shared fixtures for the test suite.

Most tests run on the scaled-down ``tiny``/``small`` system presets so the
whole suite stays fast; the algorithms under test are identical to the
paper-scale configuration, only the grid sizes differ.  Session-scoped
fixtures cache the more expensive objects (delay generators, reference
tables) that many test modules share.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro import paper_system, small_system, tiny_system
from repro.acoustics.echo import EchoSimulator
from repro.acoustics.phantom import point_target
from repro.core.exact import ExactDelayEngine
from repro.core.tablefree import TableFreeConfig, TableFreeDelayGenerator
from repro.core.tablesteer import TableSteerConfig, TableSteerDelayGenerator
from repro.geometry.transducer import MatrixTransducer
from repro.geometry.volume import FocalGrid


def pytest_configure(config):
    """Register the custom markers (no pytest.ini in this repo)."""
    config.addinivalue_line(
        "markers",
        "conformance: cross-layer backend x batching x scheme conformance "
        "matrix (run alone with '-m conformance', excluded from the fast "
        "CI job with '-m \"not conformance\"')")
    config.addinivalue_line(
        "markers",
        "soak: multi-session server soak benchmark (wall-clock heavy; "
        "run alone with '-m soak' or exclude with '-m \"not soak\"')")


def pytest_addoption(parser):
    """``--regen-golden`` rewrites the checked-in reference volumes.

    Run ``pytest tests/test_golden_volumes.py --regen-golden`` after an
    *intentional* numeric change, review the resulting diff of
    ``tests/golden/`` and commit it together with the change that caused
    it; any unreviewed drift in DAS/kernels/backends fails the suite.
    """
    parser.addoption("--regen-golden", action="store_true", default=False,
                     help="regenerate tests/golden/*.npz reference volumes")


@pytest.fixture(scope="session")
def tiny():
    """The tiny system preset (8x8 elements, 8x8x16 focal points)."""
    return tiny_system()


@pytest.fixture(scope="session")
def small():
    """The small system preset (16x16 elements, 16x16x64 focal points)."""
    return small_system()


@pytest.fixture(scope="session")
def paper():
    """The paper system preset (used only for closed-form / cheap checks)."""
    return paper_system()


@pytest.fixture(scope="session")
def tiny_transducer(tiny):
    """Matrix transducer of the tiny system."""
    return MatrixTransducer.from_config(tiny)


@pytest.fixture(scope="session")
def tiny_grid(tiny):
    """Focal grid of the tiny system."""
    return FocalGrid.from_config(tiny)


@pytest.fixture(scope="session")
def small_transducer(small):
    """Matrix transducer of the small system."""
    return MatrixTransducer.from_config(small)


@pytest.fixture(scope="session")
def small_grid(small):
    """Focal grid of the small system."""
    return FocalGrid.from_config(small)


@pytest.fixture(scope="session")
def tiny_exact(tiny):
    """Exact delay engine for the tiny system."""
    return ExactDelayEngine.from_config(tiny)


@pytest.fixture(scope="session")
def small_exact(small):
    """Exact delay engine for the small system."""
    return ExactDelayEngine.from_config(small)


@pytest.fixture(scope="session")
def tiny_tablefree(tiny):
    """TABLEFREE generator (default design) for the tiny system."""
    return TableFreeDelayGenerator.from_config(tiny, TableFreeConfig())


@pytest.fixture(scope="session")
def small_tablefree(small):
    """TABLEFREE generator (default design) for the small system."""
    return TableFreeDelayGenerator.from_config(small, TableFreeConfig())


@pytest.fixture(scope="session")
def tiny_tablesteer(tiny):
    """TABLESTEER generator (18-bit) for the tiny system."""
    return TableSteerDelayGenerator.from_config(tiny, TableSteerConfig(total_bits=18))


@pytest.fixture(scope="session")
def small_tablesteer(small):
    """TABLESTEER generator (18-bit) for the small system."""
    return TableSteerDelayGenerator.from_config(small, TableSteerConfig(total_bits=18))


@pytest.fixture(scope="session")
def small_tablesteer_float(small):
    """TABLESTEER generator in floating-point (algorithmic-error-only) mode."""
    return TableSteerDelayGenerator.from_config(small, TableSteerConfig(total_bits=None))


@pytest.fixture(scope="session")
def tiny_channel_data(tiny):
    """Synthetic channel data for a centred point target in the tiny system."""
    grid = FocalGrid.from_config(tiny)
    depth = float(grid.depths[len(grid.depths) // 2])
    simulator = EchoSimulator.from_config(tiny)
    return simulator.simulate(point_target(depth=depth))


@pytest.fixture()
def rng():
    """A seeded random generator for per-test randomness."""
    return np.random.default_rng(12345)


@pytest.fixture()
def vended_refs(monkeypatch):
    """``record(session, name)``: weak references to every facade that
    ``session.<name>(...)`` vends from then on (``pipeline``/``service``)."""
    def record(session, name):
        refs = []
        build = getattr(session, name)

        def recording(*args, **kwargs):
            facade = build(*args, **kwargs)
            refs.append(weakref.ref(facade))
            return facade

        monkeypatch.setattr(session, name, recording)
        return refs
    return record
