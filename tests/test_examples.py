"""Smoke tests: every example script runs end to end and prints its report.

The examples are part of the public deliverable, so the suite executes each
one's ``main()`` (with stdout captured) to guarantee they keep working as the
library evolves.  The slower paper-scale sections already run on scaled-down
presets inside the examples themselves.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def _load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples_{name}", path)
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    # Registered so dataclasses defined in examples (whose postponed
    # annotations are resolved against sys.modules) process correctly.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(spec.name, None)
        raise
    return module


class TestExamplesRun:
    def test_quickstart(self, capsys):
        _load_example("quickstart").main()
        output = capsys.readouterr().out
        assert "TABLEFREE" in output and "TABLESTEER" in output
        assert "selection error" in output

    def test_imaging_point_target(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["imaging_point_target.py"])
        _load_example("imaging_point_target").main()
        output = capsys.readouterr().out
        assert "NRMS vs exact" in output
        assert "Point target" in output

    def test_imaging_point_target_off_axis(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["imaging_point_target.py", "--off-axis"])
        _load_example("imaging_point_target").main()
        assert "NRMS vs exact" in capsys.readouterr().out

    def test_fpga_feasibility(self, capsys):
        _load_example("fpga_feasibility").main()
        output = capsys.readouterr().out
        assert "Table II" in output
        assert "TABLESTEER-18b" in output
        assert "UltraScale" in output

    def test_accuracy_sweep(self, capsys):
        _load_example("accuracy_sweep").main()
        output = capsys.readouterr().out
        assert "delta" in output
        assert "affected" in output

    def test_synthetic_aperture(self, capsys):
        _load_example("synthetic_aperture").main()
        output = capsys.readouterr().out
        assert "virtual sources" in output
        assert "TABLESTEER tables" in output

    def test_streaming_runtime(self, capsys):
        _load_example("streaming_runtime").main()
        output = capsys.readouterr().out
        for backend in ("reference", "vectorized"):
            assert backend in output
        assert "cache 7 hits / 1 misses" in output
        assert "backends agree on every peak : True" in output

    def test_design_space(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(sys, "argv", ["design_space.py", str(tmp_path)])
        _load_example("design_space").main()
        output = capsys.readouterr().out
        assert "volumes/s" in output
        assert (tmp_path / "tablesteer_small_18b.npz").exists()


class TestExampleInventory:
    def test_at_least_three_examples_exist(self):
        scripts = sorted(EXAMPLES_DIR.glob("*.py"))
        assert len(scripts) >= 3

    def test_every_example_has_module_docstring_and_main(self):
        for path in sorted(EXAMPLES_DIR.glob("*.py")):
            module = _load_example(path.stem)
            assert module.__doc__, path.name
            assert hasattr(module, "main"), path.name

    def test_custom_architecture(self, capsys):
        from repro.api import ARCHITECTURES
        try:
            _load_example("custom_architecture").main()
        finally:
            if "exact_offset" in ARCHITECTURES:
                ARCHITECTURES.unregister("exact_offset")
        output = capsys.readouterr().out
        assert '"architecture": "exact_offset"' in output
        assert "Peak depth index" in output
        assert "backend 'vectorized'" in output
