"""Experiment harness: one module per paper table/figure (``python -m
repro.cli list`` prints the index).

Every module exposes ``run(system=None, ...) -> dict`` returning the measured
figures alongside a ``paper_reference`` entry holding the values printed in
the paper, plus a ``main()`` that formats the comparison for humans.  The
benchmarks under ``benchmarks/`` call ``run`` and print the same rows.
"""

from . import (
    e01_requirements,
    e02_traversal,
    e03_piecewise,
    e04_tablefree_accuracy,
    e05_tablesteer_accuracy,
    e06_fixedpoint,
    e07_storage,
    e08_table2,
    e09_throughput,
    e10_imaging,
    e11_runtime_throughput,
)

ALL_EXPERIMENTS = {
    "E1": e01_requirements,
    "E2": e02_traversal,
    "E3": e03_piecewise,
    "E4": e04_tablefree_accuracy,
    "E5": e05_tablesteer_accuracy,
    "E6": e06_fixedpoint,
    "E7": e07_storage,
    "E8": e08_table2,
    "E9": e09_throughput,
    "E10": e10_imaging,
    "E11": e11_runtime_throughput,
}

__all__ = [
    "ALL_EXPERIMENTS",
    "e01_requirements",
    "e02_traversal",
    "e03_piecewise",
    "e04_tablefree_accuracy",
    "e05_tablesteer_accuracy",
    "e06_fixedpoint",
    "e07_storage",
    "e08_table2",
    "e09_throughput",
    "e10_imaging",
    "e11_runtime_throughput",
]
