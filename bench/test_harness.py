"""Tests of the benchmark harness, on the ``tiny`` preset so they take
seconds: run with ``PYTHONPATH=src python -m pytest bench``."""

from __future__ import annotations

import numpy as np
import pytest
from repro.kernels import TOLERANCES, Precision

import harness
import workloads
from harness import OutputLog, result_line, tail

TINY = workloads.Scale(system="tiny", seconds=0.2, memory_budget="512K",
                       sweep_scenarios=("static_point",))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reported_names_and_units_match_the_declaration(name, tmp_path):
    declaration = harness.load_declaration()
    assert name in {entry["name"] for entry in declaration["workloads"]}
    spans = tmp_path / "spans.jsonl"
    for trace_path, mode in ((None, "end_to_end"), (spans, "per_layer")):
        outcome = workloads.run(name, TINY, seed=3, trace_path=trace_path)
        harness.check_declared(outcome.metrics, declaration[mode], mode)
        line = result_line(outcome)
        assert list(line) == ["correct", "attempted", "failed", "metrics"]
        assert line["correct"] and line["attempted"] >= 1
        assert set(line["metrics"]) == {e["name"] for e in declaration[mode]}
        table = harness.render(name, outcome)
        for metric_name, metric in outcome.metrics.items():
            assert f"{metric_name} " in table
            assert metric.n >= 0
    assert spans.read_text().count("\n") > 0


def test_a_perturbed_volume_is_counted_as_failed():
    reference = np.linspace(-1.0, 1.0, 64).reshape(4, 4, 4)
    log = OutputLog()
    log.record(0, reference.copy())
    log.record(0, reference.copy())
    perturbed = reference.copy()
    perturbed[1, 2, 3] += 1e-6
    log.record(0, perturbed)
    assert log.mismatches({0: reference}, TOLERANCES[Precision.FLOAT64]) == 1


def test_a_perturbed_output_fails_the_run(monkeypatch):
    step = workloads.CineResident.step

    def perturbed(self, k):
        outputs = step(self, k)
        if k != 1:
            return outputs
        (input_id, volume), = outputs
        volume = volume.copy()
        volume.flat[0] += 1.0
        return [(input_id, volume)]

    monkeypatch.setattr(workloads.CineResident, "step", perturbed)
    outcome = workloads.run("cine_resident", TINY, seed=3)
    assert outcome.failed == 1
    assert result_line(outcome)["correct"] is False


def test_a_tail_percentile_needs_fifteen_samples_beyond_it():
    assert tail(list(range(149))) is None
    assert tail(list(range(150)))[0] == 90
    assert tail(list(range(299)))[0] == 90
    assert tail(list(range(300)))[0] == 95
    assert tail(list(range(1500)))[0] == 99
    p, value = tail(list(range(300)))
    assert sum(sample > value for sample in range(300)) >= 15


def test_the_seed_alone_determines_the_inputs():
    same = [workloads.CineResident(TINY, seed) for seed in (5, 5, 6)]
    first, again, other = ([frame.samples for frame in w.frames]
                           for w in same)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert not any(np.array_equal(a, c) for a, c in zip(first, other))
    grids = [workloads.SweepDesignSpace(TINY, seed).grid for seed in (5, 5, 6)]
    assert grids[0] == grids[1] != grids[2]
