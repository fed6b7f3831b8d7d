"""Persistent, resumable sweep orchestration (ROADMAP item 4).

The in-process :meth:`repro.api.Session.sweep` recomputes every grid cell
from scratch on every run; this package makes sweeps *durable*.  A
:class:`SweepStore` maps content-addressed cell keys
(:func:`repro.sweep.hashing.cell_key` over the fully-resolved cell spec)
to on-disk artifacts, a :class:`SweepExecutor` runs grids against it —
skipping completed cells and resuming interrupted runs — and a
:class:`SweepRunSpec` makes the whole run (engine + grid + store +
policy) one JSON document for the ``repro sweep`` CLI subcommand.  See
``docs/sweeps.md``.
"""

from .executor import SweepExecutor
from .hashing import cell_key, resolved_cell_spec
from .spec import SweepRunSpec
from .store import SweepStore

__all__ = [
    "SweepExecutor",
    "SweepRunSpec",
    "SweepStore",
    "cell_key",
    "resolved_cell_spec",
    "run_sweep",
]


def run_sweep(spec: "SweepRunSpec | dict | str") -> dict:
    """Execute one :class:`SweepRunSpec` end to end; returns the results.

    Builds a session from the spec's engine, runs the grid through a
    :class:`SweepExecutor` and closes the session again — the one-call
    form the CLI and experiments use.
    """
    from ..api.session import Session

    spec = SweepRunSpec.from_json(spec) if isinstance(spec, str) \
        else SweepRunSpec.coerce(spec)
    with Session(spec.engine) as session:
        executor = SweepExecutor(session, store=spec.store,
                                 resume=spec.resume, overwrite=spec.overwrite)
        return executor.run(spec.sweep)
