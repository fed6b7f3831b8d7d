"""The resumable sweep executor: grid -> cells -> artifacts.

:class:`SweepExecutor` runs a :class:`repro.api.SweepSpec` grid over one
:class:`repro.api.Session`, optionally backed by a
:class:`repro.sweep.SweepStore`.  Execution is cell-oriented:

1. The grid is expanded into cells and each cell's content-addressed key
   is computed from its fully-resolved spec
   (:func:`repro.sweep.hashing.resolved_cell_spec`).
2. With a store and ``resume=True``, cells whose key is already complete
   in the store are *skipped* — their artifacts are read back instead
   (``sweep_cells_cached_total``).  ``overwrite=True`` forces recompute.
3. Pending cells run in-process and *plan-major*, one (scheme,
   architecture) group at a time, through :func:`run_group`: a group's
   plans are compiled for its first scenario, reused by every other
   scenario of the scheme, then left for the plan cache's LRU to evict,
   so the cache only has to hold one group's plans, not the whole grid's.
   The loop keeps the current scheme's firings and the first pipeline of
   each architecture, for its delay provider and the shared receive
   weights.
4. Results always come back in grid order as the same
   ``{(scenario, scheme, architecture[, backend]): {"volume", "metrics"}}``
   mapping ``Session.sweep`` has always produced; cached and computed
   cells are indistinguishable (bit-identical float64 across the store).

Every other cell's pipeline is dropped as soon as its volume is computed;
nothing outlives :meth:`SweepExecutor.run`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, TYPE_CHECKING

from ..api.specs import ScanSpec, SweepSpec
from ..scenarios import SCENARIOS, score_volume
from .hashing import cell_key, resolved_cell_spec
from .store import SweepStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.session import Session

__all__ = ["SweepExecutor", "acquire_cell_inputs", "execute_cell",
           "run_group"]


@dataclass(frozen=True)
class _Cell:
    """One grid point, with its result key and (optional) store key."""

    scenario: str
    scheme: str
    architecture: str
    backend: str
    result_key: tuple
    store_key: str | None = None


def acquire_cell_inputs(session: "Session", sweep: SweepSpec,
                        scenario: str, scheme: str) -> tuple[list, Any]:
    """Firings + scoring options shared by every cell of one
    scenario x scheme group.

    Grid cells image one representative acquisition: frame 0 of the
    scenario's cine, built from the registry with the sweep's noise/seed.
    Acquisition is deterministic in (phantom, noise_std, seed).
    """
    scan = ScanSpec(scenario=scenario, frames=1,
                    noise_std=sweep.noise_std, seed=sweep.seed)
    request = scan.build_frames(session.system)[0]
    options = SCENARIOS.get(scenario).make_options(scan.options)
    firings = session.acquire_firings(request.phantom, scheme=scheme,
                                      noise_std=request.noise_std,
                                      seed=request.seed)
    return firings, options


def execute_cell(session: "Session", sweep: SweepSpec, scenario: str,
                 scheme: str, architecture: str, backend: str,
                 firings: list, options: Any,
                 provider: Any = None) -> tuple[dict, Any]:
    """Compute one grid cell; returns ``(cell_dict, pipeline)``.

    The pipeline is vended from the session and used for one compound.
    It is returned to hold its delay provider for reuse — rebuilding e.g. a
    TABLESTEER reference table per cell would repeat the most expensive
    step of the sweep — and the receive weights its beamformers compiled
    with, which every cell of the geometry shares and the plan cache drops
    with a whole group's entry.
    """
    pipeline = session.pipeline(architecture=architecture, backend=backend,
                                scheme=scheme, provider=provider)
    volume = pipeline.compound_volume(firings).rf
    cell: dict[str, Any] = {"volume": volume}
    if sweep.score:
        cell["metrics"] = score_volume(session.system, volume,
                                       scenario=scenario, options=options)
    return cell, pipeline


def run_group(session: "Session", sweep: SweepSpec, scheme: str,
              architecture: str, cells: list[tuple[str, str]],
              pipelines: dict[str, Any], store: SweepStore | None,
              inputs: dict[str, tuple[list, Any]]
              ) -> Iterator[tuple[str, str, dict]]:
    """Compute one (scheme, architecture) group; yields each finished cell.

    ``cells`` are the group's pending ``(scenario, backend)`` pairs in grid
    order.  Every scenario shares the group's plans (they are phantom- and
    backend-independent), so the plans compile for the first scenario and
    are cache hits for the rest.  Each scenario's firings are acquired
    once into ``inputs`` (pass the same dict to every architecture of a
    scheme to share them), the architecture's first pipeline is kept in
    ``pipelines`` for its provider and weights (see :func:`execute_cell`),
    and each cell is written to ``store`` (if any) under its unchanged key
    as soon as it is computed, before ``(scenario, backend, cell_dict)``
    is yielded.
    """
    for scenario, backend in cells:
        if scenario not in inputs:
            inputs[scenario] = acquire_cell_inputs(session, sweep,
                                                   scenario, scheme)
        firings, options = inputs[scenario]
        with session.tracer.span("cell", scenario=scenario, scheme=scheme,
                                 architecture=architecture, backend=backend,
                                 cached=False):
            first = pipelines.get(architecture)
            result, pipeline = execute_cell(
                session, sweep, scenario, scheme, architecture, backend,
                firings, options,
                None if first is None else first.delay_provider)
            pipelines.setdefault(architecture, pipeline)
        if store is not None:
            spec = resolved_cell_spec(session.spec, sweep, scenario, scheme,
                                      architecture, backend)
            store.write(cell_key(spec), result["volume"],
                        result.get("metrics"), spec)
        yield scenario, backend, result


class SweepExecutor:
    """Run sweep grids over one session, with store-backed resume.

    Parameters
    ----------
    session:
        The :class:`repro.api.Session` providing substrates and the spec
        that resolves ``None`` grid axes.
    store:
        A :class:`SweepStore`, a path to create one at, or ``None`` for
        purely in-memory execution (no artifacts, no resume).
    resume / overwrite:
        The reuse policy, as on :class:`repro.sweep.SweepRunSpec`.
    """

    def __init__(self, session: "Session", *,
                 store: "SweepStore | str | None" = None,
                 resume: bool = True, overwrite: bool = False) -> None:
        self.session = session
        if store is not None and not isinstance(store, SweepStore):
            store = SweepStore(store)
        self.store = store
        self.resume = resume
        self.overwrite = overwrite
        metrics = session.metrics
        self._completed = metrics.counter(
            "sweep_cells_completed_total", "sweep cells computed this run")
        self._cached = metrics.counter(
            "sweep_cells_cached_total",
            "sweep cells served from the content-addressed store")
        self._failed = metrics.counter(
            "sweep_cells_failed_total", "sweep cells that raised")
        #: per-result-key execution outcome of the last :meth:`run` —
        #: ``"computed"`` or ``"cached"`` (the CLI prints it per cell).
        self.statuses: dict[tuple, str] = {}

    # ------------------------------------------------------------ counters
    @property
    def completed(self) -> int:
        """Cells computed across this executor's runs."""
        return int(self._completed.value)

    @property
    def cached(self) -> int:
        """Cells served from the store across this executor's runs."""
        return int(self._cached.value)

    @property
    def failed(self) -> int:
        """Cells that raised across this executor's runs."""
        return int(self._failed.value)

    # ------------------------------------------------------------- running
    def run(self, sweep: SweepSpec | None = None) -> dict[tuple, dict]:
        """Execute the grid; returns the ``Session.sweep`` result mapping."""
        session = self.session
        if sweep is None:
            sweep = SweepSpec()
        architectures, backends, keyed = sweep.resolve_grid(
            session.spec.architecture, session.spec.backend)
        cells = []
        for scenario in sweep.scenarios:
            for scheme in sweep.schemes:
                for architecture in architectures:
                    for backend in backends:
                        result_key = (scenario, scheme, architecture)
                        if keyed:
                            result_key = (*result_key, backend)
                        store_key = None
                        if self.store is not None:
                            store_key = cell_key(resolved_cell_spec(
                                session.spec, sweep, scenario, scheme,
                                architecture, backend))
                        cells.append(_Cell(scenario, scheme, architecture,
                                           backend, result_key, store_key))
        with session.tracer.span("sweep", cells=len(cells),
                                 store=self.store is not None):
            return self._run_cells(sweep, cells, architectures)

    def _run_cells(self, sweep: SweepSpec, cells: list[_Cell],
                   architectures: tuple[str, ...]) -> dict[tuple, dict]:
        session = self.session
        cached = set()
        if self.store is not None and not self.overwrite and self.resume:
            cached = {cell for cell in cells if cell.store_key in self.store}
        # Pending cells by (scheme, architecture) group, groups in grid
        # order and cells in grid order within each group.
        groups: dict[tuple[str, str], list[_Cell]] = {
            (scheme, architecture): []
            for scheme in sweep.schemes for architecture in architectures}
        for cell in cells:
            if cell not in cached:
                groups[(cell.scheme, cell.architecture)].append(cell)
        computed = self._run_groups(sweep, groups)

        results: dict[tuple, dict] = {}
        self.statuses = {}
        for cell in cells:
            if cell in cached:
                with session.tracer.span("cell", scenario=cell.scenario,
                                         scheme=cell.scheme,
                                         architecture=cell.architecture,
                                         backend=cell.backend, cached=True):
                    results[cell.result_key] = self.store.read(cell.store_key)
                self._cached.inc()
                self.statuses[cell.result_key] = "cached"
            else:
                results[cell.result_key] = computed[cell.result_key]
                self.statuses[cell.result_key] = "computed"
        return results

    def _run_groups(self, sweep: SweepSpec,
                    groups: dict[tuple[str, str], list[_Cell]]
                    ) -> dict[tuple, dict]:
        """Run the pending groups in order; returns results by result key."""
        # One delay provider per architecture for the *whole* grid, held by
        # the architecture's first pipeline: the provider is
        # scheme-independent (the per-firing engines wrap it per event), so
        # rebuilding it per group would repeat the most expensive step.
        # Firings are kept for the current scheme only.
        computed: dict[tuple, dict] = {}
        pipelines: dict[str, Any] = {}
        inputs: dict[str, tuple[list, Any]] = {}
        current = None
        for (scheme, architecture), group in groups.items():
            if scheme != current:
                current, inputs = scheme, {}
            by_pair = {(cell.scenario, cell.backend): cell for cell in group}
            try:
                for scenario, backend, result in run_group(
                        self.session, sweep, scheme, architecture,
                        list(by_pair), pipelines, self.store, inputs):
                    computed[by_pair[(scenario, backend)].result_key] = result
                    self._completed.inc()
            except BaseException:
                self._failed.inc()
                raise
        return computed
