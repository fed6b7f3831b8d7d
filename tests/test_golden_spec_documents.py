"""Golden spec documents: the JSON text of every spec class, frozen.

``tests/golden/spec_documents.json`` maps each corpus name below to the
exact :meth:`to_json` text its spec produced when the fixture was cut.  The
corpus covers the five spec document classes (``EngineSpec``,
``ScanSpec``, ``SweepSpec``, ``ServerSpec``, ``SweepRunSpec``), each at its
defaults and options-heavy: an inline system, quantization, architecture,
backend and scheme options, a memory budget and nested engine/sweep
documents.  Spec files written by any earlier version must keep loading,
and re-saving them must not churn a byte — with one deliberate exception:
documents that still carry a retired field are refused as an unknown
field, so a stale document fails loudly rather than silently running
without it.  Two fields are retired:

* ``SweepRunSpec``'s ``"workers"`` (the sweep's spawn-worker dispatch was
  deleted); ``tests/golden/sweep_run_documents_with_workers.json`` keeps
  the last two such texts;
* ``ServerSpec``'s ``"ring_slots"`` (the shared-memory frame ring was
  deleted; frames enter a session only through ``submit``);
  ``tests/golden/server_documents_with_ring_slots.json`` keeps the last
  two such texts.

After an *intentional* change to the document format, regenerate with::

    pytest tests/test_golden_spec_documents.py --regen-golden

review the ``tests/golden/`` diff, and commit it with the change.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.api import EngineSpec, ScanSpec, SweepSpec
from repro.config import tiny_system
from repro.server import ServerSpec
from repro.sweep import SweepRunSpec

GOLDEN_PATH = Path(__file__).parent / "golden" / "spec_documents.json"
WITH_WORKERS_PATH = (Path(__file__).parent / "golden"
                     / "sweep_run_documents_with_workers.json")
WITH_RING_SLOTS_PATH = (Path(__file__).parent / "golden"
                        / "server_documents_with_ring_slots.json")


def _inline_system():
    """A non-preset system, embedded in the document section by section."""
    system = tiny_system()
    return dataclasses.replace(
        system, name="custom",
        volume=dataclasses.replace(system.volume, n_depth=12))


def _quantized_engine():
    return EngineSpec(system=_inline_system(), architecture="tablesteer",
                      architecture_options={"total_bits": 14},
                      backend="vectorized",
                      apodization={"window": "hamming",
                                   "use_directivity": False},
                      quantization=18, memory_budget_bytes="512K",
                      cache_capacity=6)


def _scheme_engine():
    return EngineSpec(system="tiny", architecture="tablefree",
                      architecture_options={"delta": 0.5,
                                            "delay_fraction_bits": 4},
                      backend="compiled",
                      backend_options={"threads": 2, "block_size": 64},
                      interpolation="linear", precision="float32",
                      scheme="planewave",
                      scheme_options={"n_angles": 3,
                                      "max_angle_fraction": 0.25},
                      trace=True)


def _grid():
    return SweepSpec(scenarios=["static_point", "cyst"],
                     schemes=["focused", "planewave"],
                     architectures=["exact", "tablefree", "tablesteer"],
                     backends=["reference", "vectorized"],
                     noise_std=0.01, seed=3, score=False)


#: Corpus name -> builder of the spec whose text is frozen.
CORPUS = {
    "engine_default": EngineSpec,
    "engine_quantized_inline_system": _quantized_engine,
    "engine_scheme_options": _scheme_engine,
    "scan_default": ScanSpec,
    "scan_options": lambda: ScanSpec(
        scenario="multi_cyst", frames=3, noise_std=0.05, seed=7,
        options={"n_scatterers": 300, "contrasts": [0.0, 2.0]}),
    "sweep_default": SweepSpec,
    "sweep_grid": _grid,
    "server_default": ServerSpec,
    "server_options": lambda: ServerSpec(
        engine=_scheme_engine(), workers=2, queue_capacity=3,
        policy="drop_oldest", max_sessions=4,
        session_memory_budget_bytes="64M"),
    "sweep_run_default": SweepRunSpec,
    "sweep_run_options": lambda: SweepRunSpec(
        engine=_quantized_engine(), sweep=_grid(), store="results/store",
        resume=False, overwrite=True),
}


@pytest.fixture(scope="module")
def golden(request):
    """The stored documents (regenerated under ``--regen-golden``)."""
    if request.config.getoption("--regen-golden"):
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(
            {name: build().to_json() for name, build in CORPUS.items()},
            indent=2, sort_keys=True) + "\n")
    if not GOLDEN_PATH.exists():
        pytest.fail(f"missing golden fixture {GOLDEN_PATH}; run "
                    "'pytest tests/test_golden_spec_documents.py "
                    "--regen-golden' and commit the result")
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_the_corpus(golden):
    assert set(golden) == set(CORPUS)
    assert {type(build()) for build in CORPUS.values()} == {
        EngineSpec, ScanSpec, SweepSpec, ServerSpec, SweepRunSpec}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_document_text_is_reproduced_byte_for_byte(golden, name):
    assert CORPUS[name]().to_json() == golden[name]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_document_round_trips(golden, name):
    spec = CORPUS[name]()
    loaded = type(spec).from_json(golden[name])
    assert loaded == spec
    assert loaded.to_json() == golden[name]


@pytest.mark.parametrize("name", ["sweep_run_default", "sweep_run_options"])
def test_sweep_run_documents_with_workers_are_refused(name):
    text = json.loads(WITH_WORKERS_PATH.read_text())[name]
    with pytest.raises(ValueError, match="unknown sweep run spec field"
                                         r"\(s\): workers;"):
        SweepRunSpec.from_json(text)


@pytest.mark.parametrize("name", ["server_default", "server_options"])
def test_server_documents_with_ring_slots_are_refused(name):
    text = json.loads(WITH_RING_SLOTS_PATH.read_text())[name]
    with pytest.raises(ValueError, match="unknown server spec field"
                                         r"\(s\): ring_slots;"):
        ServerSpec.from_json(text)
