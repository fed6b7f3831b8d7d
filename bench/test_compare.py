"""Tests of ``bench/compare.py``'s verdicts."""

from __future__ import annotations

import json

import compare


def _records(directory, workload, values):
    directory.mkdir()
    for i, value in enumerate(values):
        (directory / f"{i}.json").write_text(json.dumps({
            "workload": workload, "trace": 0,
            "metrics": {"latency_p50_ms": {"value": value, "unit": "ms"}}}))
    return compare.load_records(directory)


DECLARATION = {
    "workloads": [{"name": "w"}],
    "end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower",
                    "bound": 0.1}],
}


def _verdict(tmp_path, base, candidate):
    rows = compare.compare(_records(tmp_path / "a", "w", base),
                           _records(tmp_path / "b", "w", candidate),
                           DECLARATION)
    assert len(rows) == 1
    return rows[0]


def test_within_the_bound_passes(tmp_path):
    row = _verdict(tmp_path, [100, 101, 99, 100, 100], [104, 105, 103, 104, 104])
    assert row.verdict == "pass"
    assert abs(row.worse_by - 0.04) < 1e-12


def test_beyond_the_bound_fails(tmp_path):
    row = _verdict(tmp_path, [100, 101, 99, 100, 100], [115, 116, 114, 115, 115])
    assert row.verdict == "FAIL"


def test_a_spread_wider_than_the_bound_is_unresolved(tmp_path):
    row = _verdict(tmp_path, [70, 130, 100, 85, 115], [100, 101, 99, 100, 100])
    assert row.base.spread > 0.1
    assert row.verdict == "unresolved"


def test_a_wide_spread_still_resolves_when_every_run_is_better(tmp_path):
    row = _verdict(tmp_path, [100, 160, 130, 115, 145], [50, 80, 65, 57, 72])
    assert row.verdict == "pass"
