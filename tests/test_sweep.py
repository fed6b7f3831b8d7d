"""Tests for repro.sweep: content-addressed store, resumable executor,
SweepRunSpec, CLI subcommand and the sweep-path PlanCache/leak fixes."""

from __future__ import annotations

import gc
import json
import os
import threading
import warnings

import numpy as np
import pytest

from repro.analysis.fixedpoint_impact import kernel_fixed_point_sweep
from repro.api import EngineSpec, Session, SweepSpec
from repro.cli import main
from repro.experiments.e10_imaging import scheme_quality_sweep
from repro.kernels.plan import plan_storage_bytes
from repro.runtime.cache import PlanCache
from repro.scenarios import SCHEMES
from repro.sweep import (
    SweepExecutor,
    SweepRunSpec,
    SweepStore,
    cell_key,
    resolved_cell_spec,
    run_sweep,
)

TINY = EngineSpec(system="tiny", backend="vectorized")
GRID = SweepSpec(scenarios=("static_point",), schemes=("focused",),
                 architectures=("exact", "tablesteer"))


# ---------------------------------------------------------------- cell keys
def test_cell_key_is_stable_across_spec_instances():
    a = resolved_cell_spec(EngineSpec(system="tiny"), SweepSpec(),
                           "static_point", "focused", "exact", "reference")
    b = resolved_cell_spec(EngineSpec(system="tiny"), SweepSpec(),
                           "static_point", "focused", "exact", "reference")
    assert cell_key(a) == cell_key(b)


def test_cell_key_ignores_dict_construction_order():
    spec = resolved_cell_spec(EngineSpec(system="tiny"), SweepSpec(),
                              "static_point", "focused", "exact", "reference")
    reordered = dict(reversed(list(spec.items())))
    assert cell_key(spec) == cell_key(reordered)


def test_cell_key_discriminates_every_identity_component():
    base = cell_key(resolved_cell_spec(
        EngineSpec(system="tiny"), SweepSpec(),
        "static_point", "focused", "exact", "reference"))
    variants = [
        resolved_cell_spec(EngineSpec(system="small"), SweepSpec(),
                           "static_point", "focused", "exact", "reference"),
        resolved_cell_spec(EngineSpec(system="tiny"), SweepSpec(seed=7),
                           "static_point", "focused", "exact", "reference"),
        resolved_cell_spec(EngineSpec(system="tiny"),
                           SweepSpec(noise_std=0.1),
                           "static_point", "focused", "exact", "reference"),
        resolved_cell_spec(EngineSpec(system="tiny"), SweepSpec(),
                           "cyst", "focused", "exact", "reference"),
        resolved_cell_spec(EngineSpec(system="tiny"), SweepSpec(),
                           "static_point", "planewave", "exact", "reference"),
        resolved_cell_spec(EngineSpec(system="tiny"), SweepSpec(),
                           "static_point", "focused", "tablesteer",
                           "reference"),
        resolved_cell_spec(EngineSpec(system="tiny"), SweepSpec(),
                           "static_point", "focused", "exact", "vectorized"),
        resolved_cell_spec(EngineSpec(system="tiny", quantization=14),
                           SweepSpec(),
                           "static_point", "focused", "exact", "reference"),
        resolved_cell_spec(EngineSpec(system="tiny", precision="float32"),
                           SweepSpec(),
                           "static_point", "focused", "exact", "reference"),
    ]
    keys = {cell_key(v) for v in variants}
    assert base not in keys
    assert len(keys) == len(variants)


def test_cell_spec_inherits_options_only_for_matching_names():
    engine = EngineSpec(system="tiny", architecture="tablesteer",
                        architecture_options={"total_bits": 14})
    spec = resolved_cell_spec(engine, SweepSpec(), "static_point", "focused",
                              "tablesteer", "reference")
    assert spec["architecture_options"]["total_bits"] == 14
    # memory budget / trace / cache sizing are execution policy, not
    # identity: bit-identity of tiled execution is pinned elsewhere.
    budgeted = engine.with_updates(memory_budget_bytes="8M", trace=True,
                                   cache_capacity=9)
    other = resolved_cell_spec(budgeted, SweepSpec(), "static_point",
                               "focused", "tablesteer", "reference")
    assert cell_key(spec) == cell_key(other)


# -------------------------------------------------------------------- store
def test_store_roundtrip_is_bit_identical(tmp_path, rng):
    store = SweepStore(tmp_path)
    volume = rng.standard_normal((3, 4, 5))
    metrics = {"cnr": 1.25, "gcnr": float("nan")}
    store.write("ab12", volume, metrics, {"kind": "test"})
    assert "ab12" in store
    cell = store.read("ab12")
    np.testing.assert_array_equal(cell["volume"], volume)
    assert cell["volume"].dtype == volume.dtype
    np.testing.assert_equal(cell["metrics"], metrics)  # NaN-tolerant
    assert store.read_spec("ab12") == {"kind": "test"}
    assert list(store.keys()) == ["ab12"]
    assert len(store) == 1


def test_store_metrics_only_cell(tmp_path):
    store = SweepStore(tmp_path)
    store.write("cd34", None, {"affected_fraction": 0.02}, {})
    cell = store.read("cd34")
    assert "volume" not in cell
    assert cell["metrics"] == {"affected_fraction": 0.02}


def test_store_unscored_cell_omits_metrics(tmp_path, rng):
    store = SweepStore(tmp_path)
    store.write("ef56", rng.standard_normal(4), None, {})
    assert "metrics" not in store.read("ef56")


def test_store_incomplete_cell_reads_as_missing(tmp_path, rng):
    """A volume without its cell.json marker is an interrupted write."""
    store = SweepStore(tmp_path)
    cell_dir = store.path_for("ab99")
    cell_dir.mkdir(parents=True)
    with open(cell_dir / "volume.npz", "wb") as fh:
        np.savez(fh, rf=rng.standard_normal(4))
    assert "ab99" not in store
    assert list(store.keys()) == []


def test_store_rejects_malformed_keys(tmp_path):
    store = SweepStore(tmp_path)
    for bad in ("", "../escape", ".hidden", "a/b"):
        with pytest.raises(ValueError):
            store.path_for(bad)


# ----------------------------------------------------------- SweepRunSpec
def test_run_spec_roundtrips_through_json():
    spec = SweepRunSpec(engine={"system": "tiny", "backend": "vectorized"},
                        sweep={"scenarios": ["cyst"],
                               "architectures": ["exact", "tablefree"]},
                        store="/tmp/sweeps", resume=False, overwrite=True)
    rebuilt = SweepRunSpec.from_json(spec.to_json())
    assert rebuilt == spec
    assert rebuilt.engine.backend == "vectorized"
    assert rebuilt.sweep.architectures == ("exact", "tablefree")


def test_run_spec_rejects_unknown_fields_and_bad_values():
    with pytest.raises(ValueError, match="unknown sweep run spec field"):
        SweepRunSpec.from_dict({"stor": "/tmp/x"})
    with pytest.raises(ValueError, match="engine must be"):
        SweepRunSpec(engine="tiny")
    with pytest.raises(ValueError, match="resume must be"):
        SweepRunSpec(resume=1)


@pytest.mark.parametrize("noise_std", [float("nan"), float("inf"), -0.1])
def test_sweep_spec_refuses_non_finite_or_negative_noise(noise_std):
    with pytest.raises(ValueError, match="noise_std"):
        SweepSpec(noise_std=noise_std)
    with pytest.raises(ValueError, match="noise_std"):
        SweepRunSpec.from_dict({"sweep": {"noise_std": noise_std}})


# ------------------------------------------------------- executor + resume
def test_executor_matches_in_process_sweep_and_caches(tmp_path):
    with Session(TINY) as session:
        baseline = session.sweep(spec=GRID)
    store = tmp_path / "store"
    with Session(TINY) as session:
        first = SweepExecutor(session, store=store)
        r1 = first.run(GRID)
        assert first.completed == len(baseline) and first.cached == 0
    with Session(TINY) as session:
        second = SweepExecutor(session, store=store)
        r2 = second.run(GRID)
        assert second.completed == 0 and second.cached == len(baseline)
        assert all(status == "cached" for status in second.statuses.values())
    assert list(r1) == list(baseline) and list(r2) == list(baseline)
    for key in baseline:
        np.testing.assert_array_equal(baseline[key]["volume"],
                                      r1[key]["volume"])
        np.testing.assert_array_equal(baseline[key]["volume"],
                                      r2[key]["volume"])
        np.testing.assert_equal(baseline[key]["metrics"],
                                r2[key]["metrics"])


def test_executor_overwrite_recomputes_completed_cells(tmp_path):
    store = tmp_path / "store"
    with Session(TINY) as session:
        SweepExecutor(session, store=store).run(GRID)
    with Session(TINY) as session:
        executor = SweepExecutor(session, store=store, overwrite=True)
        executor.run(GRID)
        assert executor.completed == 2 and executor.cached == 0


def test_executor_without_resume_recomputes(tmp_path):
    store = tmp_path / "store"
    with Session(TINY) as session:
        SweepExecutor(session, store=store).run(GRID)
    with Session(TINY) as session:
        executor = SweepExecutor(session, store=store, resume=False)
        executor.run(GRID)
        assert executor.completed == 2 and executor.cached == 0


class _Interrupted(BaseException):
    """Stand-in for the KeyboardInterrupt that kills a real sweep."""


def _interrupt_then_resume(tmp_path, monkeypatch, grid: SweepSpec,
                           survived: int) -> list[str]:
    """Kill a serial, store-backed sweep as its cell ``survived + 1``
    starts; the rerun computes exactly the remaining cells and the merged
    results are bit-identical to an uninterrupted sweep.  Returns the keys
    the killed run left in the store."""
    import repro.sweep.executor as executor_mod

    with Session(TINY) as session:
        uninterrupted = session.sweep(spec=grid)

    real_execute = executor_mod.execute_cell
    calls = {"n": 0}

    def dying_execute(*args, **kwargs):
        if calls["n"] >= survived:
            raise _Interrupted()
        calls["n"] += 1
        return real_execute(*args, **kwargs)

    monkeypatch.setattr(executor_mod, "execute_cell", dying_execute)
    store_dir = tmp_path / "store"
    with Session(TINY) as session:
        executor = SweepExecutor(session, store=store_dir)
        with pytest.raises(_Interrupted):
            executor.run(grid)
        assert executor.completed == survived
        assert executor.failed == 1
        assert session.metrics.snapshot()["sweep_cells_failed_total"] == 1
    store = SweepStore(store_dir)
    done = list(store.keys())
    assert len(done) == survived
    mtimes = {key: os.stat(store.path_for(key) / "cell.json").st_mtime_ns
              for key in done}

    monkeypatch.setattr(executor_mod, "execute_cell", real_execute)
    with Session(TINY) as session:
        executor = SweepExecutor(session, store=store_dir)
        resumed = executor.run(grid)
        assert executor.completed == len(uninterrupted) - survived
        assert executor.cached == survived
    for key in done:  # surviving artifacts were served, not rewritten
        assert os.stat(store.path_for(key)
                       / "cell.json").st_mtime_ns == mtimes[key]
    assert list(resumed) == list(uninterrupted)
    for key in uninterrupted:
        np.testing.assert_array_equal(uninterrupted[key]["volume"],
                                      resumed[key]["volume"])
        np.testing.assert_equal(uninterrupted[key]["metrics"],
                                resumed[key]["metrics"])
    return done


def test_interrupted_sweep_resumes_with_only_remaining_cells(
        tmp_path, monkeypatch):
    """Kill after 2 of 6 cells; the rerun computes exactly the other 4 and
    the merged results are bit-identical to an uninterrupted sweep."""
    grid = SweepSpec(scenarios=("static_point",), schemes=("focused",),
                     architectures=("exact", "tablefree", "tablesteer"),
                     backends=("reference", "vectorized"))
    _interrupt_then_resume(tmp_path, monkeypatch, grid, survived=2)


def test_sweep_interrupted_mid_group_keeps_plan_major_prefix(
        tmp_path, monkeypatch):
    """The 4th cell of a 2 x 2 x 2 grid raises inside the second
    (scheme, architecture) group: the three cells before it, in plan-major
    order, are durable, and resume completes the grid bit-identically."""
    grid = SweepSpec(scenarios=("static_point", "cyst"),
                     schemes=("focused", "planewave"),
                     architectures=("exact", "tablesteer"))
    done = _interrupt_then_resume(tmp_path, monkeypatch, grid, survived=3)
    first = [("static_point", "focused", "exact"),
             ("cyst", "focused", "exact"),
             ("static_point", "focused", "tablesteer")]
    assert set(done) == {
        cell_key(resolved_cell_spec(TINY, grid, scenario, scheme,
                                    architecture, TINY.backend))
        for scenario, scheme, architecture in first}


def test_run_sweep_convenience_from_json(tmp_path):
    spec = SweepRunSpec(engine=TINY, sweep=GRID,
                        store=str(tmp_path / "store"))
    results = run_sweep(spec.to_json())
    assert len(results) == 2
    again = run_sweep({"engine": TINY.to_dict(), "sweep": GRID.to_dict(),
                       "store": str(tmp_path / "store")})
    for key in results:
        np.testing.assert_array_equal(results[key]["volume"],
                                      again[key]["volume"])


def test_store_backed_sweep_bit_identical_to_in_process(tmp_path):
    grid = SweepSpec(scenarios=("static_point",),
                     schemes=("focused", "planewave"),
                     architectures=("exact", "tablesteer"))
    with Session(TINY) as session:
        in_process = session.sweep(spec=grid)
    with Session(TINY) as session:
        stored = SweepExecutor(session, store=tmp_path / "store").run(grid)
    assert list(stored) == list(in_process)
    for key in in_process:
        np.testing.assert_array_equal(in_process[key]["volume"],
                                      stored[key]["volume"])
        np.testing.assert_equal(in_process[key]["metrics"],
                                stored[key]["metrics"])


GROUPS = SweepSpec(scenarios=("static_point", "cyst"),
                   schemes=("focused", "planewave"),
                   architectures=("exact", "tablefree", "tablesteer"))


def test_sweep_keeps_one_plan_group_resident():
    """Plan-major: each plan group compiles once (one entry holding its
    firings' plans), serves both scenarios, and the cache never holds more
    than one group's plans (or its own capacity)."""
    with Session(TINY) as session:
        session.sweep(spec=GROUPS)
        stats = session.cache.stats
        firings = [SCHEMES.create(name, session.system).firing_count
                   for name in GROUPS.schemes]
        per_plan = plan_storage_bytes(
            session.grid.point_count, session.transducer.element_count,
            TINY.precision, TINY.interpolation)
    assert stats.misses == len(firings) * len(GROUPS.architectures)
    assert stats.hits == stats.misses
    assert stats.peak_bytes <= max(TINY.cache_capacity, max(firings)) \
        * per_plan


def test_grouped_grid_rerun_is_served_entirely_from_the_store(tmp_path):
    """A rerun of the 12-cell plan-major grid computes nothing: every cell
    is served from the store, equal to the volume the first run stored."""
    with Session(TINY) as session:
        first = SweepExecutor(session, store=tmp_path / "store").run(GROUPS)
    with Session(TINY) as session:
        executor = SweepExecutor(session, store=tmp_path / "store")
        again = executor.run(GROUPS)
        assert (executor.cached, executor.completed, executor.failed) == \
            (12, 0, 0)
    assert list(again) == list(first)
    for key in first:
        np.testing.assert_array_equal(first[key]["volume"],
                                      again[key]["volume"])


# ------------------------------------------------------- session leak fixes
def test_grid_sweep_retains_no_per_cell_engines(vended_refs):
    """A 24-cell grid keeps no cell's pipeline alive once it returns (the
    historical leak kept one pipeline per cell until session close)."""
    grid = SweepSpec(scenarios=("static_point", "cyst"),
                     schemes=("focused", "planewave"),
                     architectures=("exact", "tablefree", "tablesteer"),
                     backends=("reference", "vectorized"))
    with Session(TINY) as session:
        refs = vended_refs(session, "pipeline")
        results = session.sweep(spec=grid)
        assert len(results) == 24
    gc.collect()
    assert len(refs) == 24
    assert all(ref() is None for ref in refs)


def test_budgeted_sweep_does_not_warn():
    """A budget the untiled plans exceed is what tiling is for: the sweep
    runs tiled and warns about nothing."""
    spec = TINY.with_updates(memory_budget_bytes="200K")
    with Session(spec) as session, warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        session.sweep(spec=SweepSpec(scenarios=("static_point",),
                                     schemes=("focused", "planewave")))
        assert session.cache.stats.peak_bytes <= 200 * 1024


# --------------------------------------------------------- PlanCache fixes
class _Sized:
    def __init__(self, nbytes: int) -> None:
        self.nbytes = nbytes


def test_cache_stats_snapshot_is_taken_under_the_lock():
    cache = PlanCache(capacity=2)
    acquired = threading.Event()
    release = threading.Event()

    def holder():
        with cache._lock:
            acquired.set()
            release.wait(5.0)

    snapshots: list = []
    holder_thread = threading.Thread(target=holder)
    holder_thread.start()
    assert acquired.wait(5.0)
    reader = threading.Thread(target=lambda: snapshots.append(cache.stats))
    reader.start()
    reader.join(0.2)
    try:
        assert not snapshots  # the snapshot must block on the held lock
    finally:
        release.set()
        holder_thread.join(5.0)
        reader.join(5.0)
    assert len(snapshots) == 1


def test_cache_stats_never_torn_under_concurrent_mutation():
    """size/bytes must always describe one consistent state: entries of 10
    tracked bytes under a 30-byte budget mean bytes == 10 * size, always."""
    cache = PlanCache(capacity=4, max_bytes=30)
    stop = threading.Event()

    def mutate():
        i = 0
        while not stop.is_set():
            cache.get_or_build(i % 7, lambda: _Sized(10))
            i += 1

    thread = threading.Thread(target=mutate)
    thread.start()
    try:
        for _ in range(2000):
            stats = cache.stats
            assert stats.bytes == 10 * stats.size
            assert stats.size <= 3
    finally:
        stop.set()
        thread.join(5.0)


def test_sweep_cache_hits_pinned_under_memory_budget():
    """With a budget large enough for the grid's working set, the second
    identical sweep must be all hits, and nothing warns."""
    spec = TINY.with_updates(memory_budget_bytes=8_000_000)
    with Session(spec) as session:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session.sweep(spec=GRID)
            first = session.cache.stats
            session.sweep(spec=GRID)
            second = session.cache.stats
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)
                and "plan-cache" in str(w.message)]
    # One plan per architecture (focused = 1 firing, backend-independent).
    assert first.misses == 2
    assert second.misses == first.misses  # second sweep compiled nothing
    assert second.hits > first.hits
    assert second.evictions == 0


# ----------------------------------------------------------------- metrics
def test_sweep_counters_export_through_the_registry(tmp_path):
    store = tmp_path / "store"
    with Session(TINY) as session:
        executor = SweepExecutor(session, store=store)
        executor.run(GRID)
        executor.run(GRID)
        snapshot = session.metrics.snapshot()
    assert snapshot["sweep_cells_completed_total"] == 2
    assert snapshot["sweep_cells_cached_total"] == 2
    assert snapshot["sweep_cells_failed_total"] == 0


def test_sweep_emits_cell_spans():
    spec = TINY.with_updates(trace=True)
    with Session(spec) as session:
        session.sweep(spec=GRID)
    assert len(session.tracer.find("sweep")) == 1
    cells = session.tracer.find("cell")
    assert len(cells) == 2
    assert all(span.attributes["cached"] is False for span in cells)


def test_sweep_traces_one_simulate_span_per_scenario_and_scheme():
    grid = SweepSpec(scenarios=("static_point", "moving_scatterers"),
                     schemes=("focused", "planewave"),
                     architectures=("exact", "tablesteer"))
    with Session(TINY.with_updates(trace=True)) as session:
        session.sweep(spec=grid)
    planewave = SCHEMES.create("planewave", session.system)
    (sweep,) = session.tracer.find("sweep")
    simulates = [span for span in sweep.children if span.name == "simulate"]
    assert len(session.tracer.find("simulate")) == len(simulates) == 4
    # Plan-major: each scheme's scenarios are acquired before the next
    # scheme's, once, and shared by both architectures.
    assert [span.attributes["firings"] for span in simulates] == \
        [1, 1, planewave.firing_count, planewave.firing_count]


# --------------------------------------------------------------------- CLI
def _grid_args(store):
    return ["sweep", "--system", "tiny", "--store", str(store),
            "--set", 'sweep.architectures=["exact","tablesteer"]']


def test_cli_sweep_runs_then_serves_from_cache(tmp_path, capsys):
    store = tmp_path / "store"
    assert main(_grid_args(store)) == 0
    out = capsys.readouterr().out
    assert "2 computed, 0 cached" in out
    assert main(_grid_args(store)) == 0
    out = capsys.readouterr().out
    assert "0 computed, 2 cached" in out
    assert "[cached" in out


def test_cli_sweep_check_prints_resolved_spec(tmp_path, capsys):
    assert main(["sweep", "--system", "tiny", "--check",
                 "--store", str(tmp_path), "--no-resume",
                 "--overwrite"]) == 0
    out = capsys.readouterr().out
    assert '"workers"' not in out
    spec = SweepRunSpec.from_json(out)
    assert spec.engine.system == "tiny"
    assert spec.engine.backend == "vectorized"
    assert (spec.resume, spec.overwrite) == (False, True)


def test_cli_sweep_spec_file_roundtrip(tmp_path, capsys):
    spec_file = tmp_path / "run.json"
    spec_file.write_text(SweepRunSpec(
        engine=TINY, sweep=GRID, store=str(tmp_path / "store")).to_json())
    assert main(["sweep", "--spec", str(spec_file)]) == 0
    assert "2 computed" in capsys.readouterr().out


def test_cli_sweep_rejects_bad_input(tmp_path, capsys):
    assert main(["sweep", "--set",
                 'sweep.scenarios=["nope"]']) == 2
    assert "nope" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--workers", "2"])
    assert exit_info.value.code == 2
    capsys.readouterr()
    assert main(["sweep", "--check", "--set", "workers=2"]) == 2
    assert "workers" in capsys.readouterr().err


def test_cli_sweep_writes_metrics_snapshot(tmp_path, capsys):
    metrics_file = tmp_path / "metrics.prom"
    assert main(_grid_args(tmp_path / "store")
                + ["--metrics-out", str(metrics_file)]) == 0
    text = metrics_file.read_text()
    assert "sweep_cells_completed_total 2" in text
    assert "sweep_cells_cached_total 0" in text


# ------------------------------------------------------ experiment reuse
def test_scheme_quality_sweep_store_reuse_matches_fresh(tmp_path):
    kwargs = dict(scenarios=("static_point",), schemes=("focused",),
                  architectures=("exact",), bit_widths=(None, 14))
    fresh = scheme_quality_sweep(**kwargs)
    first = scheme_quality_sweep(store=str(tmp_path), **kwargs)
    second = scheme_quality_sweep(store=str(tmp_path), **kwargs)
    assert list(first) == list(fresh) and list(second) == list(fresh)
    for key in fresh:
        np.testing.assert_equal(first[key], fresh[key])
        np.testing.assert_equal(second[key], fresh[key])
    # The two widths must not collide in the store: 2 distinct artifacts.
    assert len(SweepStore(tmp_path)) == 2


def test_kernel_fixed_point_sweep_store_reuse(tmp_path):
    fresh = kernel_fixed_point_sweep(bit_widths=(13, 18))
    first = kernel_fixed_point_sweep(bit_widths=(13, 18),
                                     store=str(tmp_path))
    second = kernel_fixed_point_sweep(bit_widths=(13, 18),
                                      store=str(tmp_path))
    assert first == fresh
    assert second == fresh  # served from the store, value-identical
    assert len(SweepStore(tmp_path)) == 2


def test_kernel_sweep_store_artifacts_are_self_describing(tmp_path):
    kernel_fixed_point_sweep(bit_widths=(13,), store=str(tmp_path))
    store = SweepStore(tmp_path)
    (key,) = store.keys()
    spec = store.read_spec(key)
    assert spec["kind"] == "e6_kernel_fixed_point"
    assert spec["total_bits"] == 13
    assert json.loads(json.dumps(spec)) == spec
