"""Spawn-worker entry point for parallel sweep dispatch.

:func:`run_cell_group` is the picklable function
:meth:`repro.sweep.SweepExecutor._run_parallel` maps over a
``repro.runtime.mp`` spawn pool.  Each job is one (scheme, architecture)
group of the grid — the same unit the serial path runs: the worker
rebuilds the session from the engine spec's JSON (specs are the
portability boundary — exactly what they exist for) and calls
:func:`repro.sweep.executor.run_group`, which acquires each scenario's
firings once, compiles the group's plans once for all its scenarios and
writes every cell's artifact into the shared
:class:`repro.sweep.SweepStore`.  Only the finished cells' names travel
back through the pool; the *results* travel through the store — no
volume ever crosses the pickle boundary.

Bit-identity with serial execution holds because every step is
deterministic in the specs: the phantom is built from the scenario
registry, acquisition from (phantom, noise_std, seed), and delay
providers from the architecture options — so a worker's recomputed
firings and provider are bit-identical to the ones a serial run shares
in memory.  The conformance suite pins this.
"""

from __future__ import annotations

from ..api.specs import EngineSpec, SweepSpec
from .executor import run_group
from .store import SweepStore

__all__ = ["run_cell_group"]


def run_cell_group(job: tuple) -> list[tuple[str, str]]:
    """Compute one (scheme, architecture) group; returns its finished cells.

    ``job`` is ``(engine_json, sweep_json, store_root, scheme,
    architecture, cells)`` with ``cells`` the group's pending
    ``(scenario, backend)`` pairs — plain strings and tuples only, so the
    payload pickles under the spawn start method without importing
    anything session-shaped in the parent's address space.
    """
    engine_json, sweep_json, store_root, scheme, architecture, cells = job
    from ..api.session import Session

    with Session(EngineSpec.from_json(engine_json)) as session:
        return [(scenario, backend) for scenario, backend, _ in run_group(
            session, SweepSpec.from_json(sweep_json), scheme, architecture,
            cells, {}, SweepStore(store_root), {})]
