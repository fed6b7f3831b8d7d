"""Compare two sets of benchmark runs, one (workload, metric) pair at a time.

    python3 bench/compare.py BASE_DIR CANDIDATE_DIR

Each directory holds the result records ``run.py --out`` writes (end-to-end
runs; traced records are ignored).  For every pair, each side's median and
quartiles are printed (``statistics.quantiles(n=4)``) with the spread
``(q3 - q1) / median``.  A pair *passes* when the candidate's median is no
worse than the base's by more than the bound in BENCHMARK.json, and is
*unresolved* when either side's spread is wider than the bound — unless
every candidate run beats every base run.  Exit status: 0 when every pair
passes, 1 when any fails, 2 when none fails but some are unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

from harness import load_declaration


@dataclass(frozen=True)
class Side:
    """The distribution of one metric over one set of runs."""

    values: tuple[float, ...]

    @property
    def median(self) -> float:
        return statistics.median(self.values)

    @property
    def quartiles(self) -> tuple[float, float]:
        if len(self.values) < 2:
            return self.values[0], self.values[0]
        q1, _, q3 = statistics.quantiles(self.values, n=4)
        return q1, q3

    @property
    def spread(self) -> float:
        q1, q3 = self.quartiles
        return (q3 - q1) / self.median if self.median else float("inf")


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    base: Side
    candidate: Side
    bound: float
    better: str

    @property
    def worse_by(self) -> float:
        """How much worse the candidate's median is, as a share of the
        base's (negative when it is better)."""
        change = (self.candidate.median - self.base.median) / self.base.median
        return change if self.better == "lower" else -change

    @property
    def verdict(self) -> str:
        if max(self.base.spread, self.candidate.spread) > self.bound:
            if self.better == "lower":
                wins = max(self.candidate.values) < min(self.base.values)
            else:
                wins = min(self.candidate.values) > max(self.base.values)
            if not wins:
                return "unresolved"
        return "FAIL" if self.worse_by > self.bound else "pass"


def load_records(directory: Path) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` from end-to-end records."""
    runs: dict[str, dict[str, list[float]]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record.get("trace") or "workload" not in record:
            continue
        metrics = runs.setdefault(record["workload"], {})
        for name, metric in record["metrics"].items():
            metrics.setdefault(name, []).append(float(metric["value"]))
    return runs


def compare(base: dict, candidate: dict, declaration: dict) -> list[Row]:
    """One row per (workload, end-to-end metric) present on both sides."""
    rows = []
    for entry in declaration["workloads"]:
        workload = entry["name"]
        for metric in declaration["end_to_end"]:
            name = metric["name"]
            a = base.get(workload, {}).get(name)
            b = candidate.get(workload, {}).get(name)
            if a and b:
                rows.append(Row(workload, name, Side(tuple(a)),
                                Side(tuple(b)), metric["bound"],
                                metric["better"]))
    return rows


def render(rows: list[Row]) -> str:
    def side(s: Side) -> str:
        q1, q3 = s.quartiles
        return (f"{s.median:11.5g} [{q1:.5g}, {q3:.5g}] n={len(s.values)} "
                f"spread={s.spread:6.2%}")

    lines = []
    for row in rows:
        lines.append(f"{row.workload:<19} {row.metric:<15} "
                     f"base {side(row.base)} | cand {side(row.candidate)} | "
                     f"worse by {row.worse_by:+7.2%} (bound {row.bound:.0%})"
                     f" {row.verdict}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 bench/compare.py BASE_DIR CANDIDATE_DIR",
              file=sys.stderr)
        return 2
    rows = compare(load_records(Path(argv[0])), load_records(Path(argv[1])),
                   load_declaration())
    if not rows:
        print("compare: no (workload, metric) pair present in both sets",
              file=sys.stderr)
        return 2
    print(render(rows))
    verdicts = {row.verdict for row in rows}
    return 1 if "FAIL" in verdicts else 2 if "unresolved" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
