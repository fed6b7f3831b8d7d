"""Command-line interface for running the paper experiments.

Usage::

    python -m repro.cli list                 # experiments + registered plugins
    python -m repro.cli run E3               # run one experiment
    python -m repro.cli run all              # run every experiment
    python -m repro.cli table2               # print the Table II comparison
    python -m repro.cli specs                # print the Table I system spec
    python -m repro.cli spec                 # print an EngineSpec as JSON
    python -m repro.cli stream               # stream a cine through the runtime
    python -m repro.cli serve                # multiplex sessions via the server
    python -m repro.cli sweep                # resumable scored grid sweeps

The ``run``, ``spec`` and ``stream`` commands all speak the declarative
:mod:`repro.api` surface: ``--spec file.json`` loads an
:class:`repro.api.EngineSpec` document, ``--set key=value`` applies dotted
overrides (``--set architecture_options.total_bits=14``), and architecture /
backend names are validated against the registries, so user-registered
plugins work without CLI changes.

Each experiment prints measured figures next to the values reported in the
paper (see EXPERIMENTS.md for the recorded comparison).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from .config import PRESETS, get_preset
from .experiments import ALL_EXPERIMENTS

_EXPERIMENT_TITLES = {
    "E1": "Delay-table requirements (Section II-B/II-C)",
    "E2": "Traversal orders (Algorithm 1 / Fig. 1)",
    "E3": "Piecewise-linear square root (Fig. 2)",
    "E4": "TABLEFREE accuracy (Section VI-A)",
    "E5": "TABLESTEER steering accuracy (Section V-A / VI-A, Fig. 3)",
    "E6": "Fixed-point impact (Section VI-A)",
    "E7": "Storage and streaming bandwidth (Section V-B)",
    "E8": "Table II comparison",
    "E9": "Throughput (Section II-C / V-B, Fig. 4)",
    "E10": "End-to-end imaging comparison",
    "E11": "Streaming runtime throughput (backends + delay cache)",
}


# ------------------------------------------------------------ spec plumbing
def _read_spec_file(path: str | None) -> dict:
    """The JSON object in the ``--spec`` file (``{}`` without one).

    Raises :class:`ValueError` naming the file when it cannot be read, is
    not valid JSON or holds something other than an object.
    """
    if not path:
        return {}
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read spec file {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"spec file {path!r} is not valid JSON: "
                         f"{exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"spec file {path!r} must hold a JSON object, "
                         f"got {type(data).__name__}")
    return data


def _merged_spec_data(args: argparse.Namespace,
                      default_system: str | None = None,
                      default_backend: str | None = None) -> dict:
    """Merge spec-file / flags / ``--set`` overrides into one spec dict.

    Precedence (lowest to highest): built-in defaults, spec-file document,
    explicit ``--system`` / ``--architecture`` / ``--backend`` flags,
    ``--set`` overrides.
    """
    from .api import apply_overrides

    data = _read_spec_file(getattr(args, "spec", None))
    if getattr(args, "system", None):
        data["system"] = args.system
    elif "system" not in data and default_system is not None:
        data["system"] = default_system
    if getattr(args, "architecture", None):
        data["architecture"] = args.architecture
    if getattr(args, "backend", None):
        data["backend"] = args.backend
    elif "backend" not in data and default_backend is not None:
        data["backend"] = default_backend
    if getattr(args, "dtype", None):
        data["precision"] = args.dtype
    if getattr(args, "qformat", None):
        # "--qformat 18" (total bits) or "--qformat U13.5" / "S13.4"
        # (delay Q-format); both resolve through QuantizationSpec.coerce.
        data["quantization"] = args.qformat
    if getattr(args, "scheme", None):
        data["scheme"] = args.scheme
    if getattr(args, "memory_budget", None):
        # "--memory-budget 512M" / "8G" / plain bytes; parsed and
        # validated against the system by EngineSpec.
        data["memory_budget_bytes"] = args.memory_budget
    return apply_overrides(data, getattr(args, "set", None) or [])


def _resolve_engine_spec(args: argparse.Namespace,
                         default_system: str | None = None,
                         default_backend: str | None = None):
    """Build a validated :class:`repro.api.EngineSpec` from CLI flags.

    Raises :class:`ValueError` with the registry listings for unknown names.
    """
    from .api import EngineSpec

    return EngineSpec.from_dict(
        _merged_spec_data(args, default_system=default_system,
                          default_backend=default_backend))


def _nested_spec_data(args: argparse.Namespace) -> dict:
    """The ``serve`` / ``sweep`` spec-file document with the engine-level
    flags (``--system``, ``--architecture``, ``--backend``, ``--scheme``)
    merged into its nested ``engine`` document (default: ``small``,
    ``vectorized``)."""
    data = _read_spec_file(args.spec)
    engine = data.setdefault("engine", {})
    for key in ("system", "architecture", "backend", "scheme"):
        if getattr(args, key):
            engine[key] = getattr(args, key)
    engine.setdefault("system", "small")
    engine.setdefault("backend", "vectorized")
    return data


def _add_spec_arguments(parser: argparse.ArgumentParser,
                        default_system: str) -> None:
    """The shared ``--spec`` / ``--system`` / ``--set`` flag family."""
    parser.add_argument("--spec", metavar="FILE",
                        help="EngineSpec JSON document to start from")
    parser.add_argument("--system", default=None,
                        help=f"system preset ({', '.join(sorted(PRESETS))}) "
                             f"[default: {default_system}]")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="dotted spec override, e.g. "
                             "--set architecture_options.total_bits=14 "
                             "(repeatable)")


# ----------------------------------------------------------------- commands
def _cmd_list(_args: argparse.Namespace) -> int:
    from .api import ARCHITECTURES, BACKENDS, SCENARIOS, SCHEMES

    print("Available experiments:")
    for key in sorted(ALL_EXPERIMENTS, key=lambda k: int(k[1:])):
        print(f"  {key:4s} {_EXPERIMENT_TITLES.get(key, '')}")
    print("System presets:")
    for name in sorted(PRESETS):
        print(f"  {name}")
    for title, registry in (("architectures", ARCHITECTURES),
                            ("backends", BACKENDS),
                            ("transmit schemes", SCHEMES),
                            ("scan scenarios", SCENARIOS)):
        print(f"Registered {title}:")
        for name, entry in registry.items():
            print(f"  {name:18s} {entry.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    requested = args.experiment.upper()
    if requested == "ALL":
        keys = sorted(ALL_EXPERIMENTS, key=lambda k: int(k[1:]))
    elif requested in ALL_EXPERIMENTS:
        keys = [requested]
    else:
        print(f"unknown experiment {args.experiment!r}; "
              f"use 'list' to see the available ones", file=sys.stderr)
        return 2
    system = None
    if args.spec or args.system or args.set:
        try:
            from .api import EngineSpec
            data = _merged_spec_data(args)
            spec = EngineSpec.from_dict(data)
            # Experiments consume only the spec's *system*, and only when
            # one was actually named — each experiment otherwise keeps its
            # own default (often the paper system), rather than silently
            # inheriting EngineSpec's 'small'.
            if "system" in data:
                system = spec.resolve_system()
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    for key in keys:
        module = ALL_EXPERIMENTS[key]
        print("=" * 72)
        print(f"{key}: {_EXPERIMENT_TITLES.get(key, '')}")
        print("=" * 72)
        start = time.perf_counter()
        if getattr(args, "trace", False):
            # Experiments build their sessions/services internally, so the
            # tracer is installed as the process default; every layer that
            # takes tracer=None picks it up.
            from .observability import Tracer, render_span_summary, use_tracer
            tracer = Tracer()
            with use_tracer(tracer):
                module.main(system=system)
            print(f"Span summary ({key}):")
            print(render_span_summary(tracer))
        else:
            module.main(system=system)
        elapsed = time.perf_counter() - start
        print(f"[{key} finished in {elapsed:.1f} s]")
        print()
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .experiments import e08_table2
    system = get_preset(args.system)
    result = e08_table2.run(system)
    print(result["formatted"])
    return 0


def _cmd_specs(args: argparse.Namespace) -> int:
    system = get_preset(args.system)
    acoustic = system.acoustic
    transducer = system.transducer
    volume = system.volume
    print(f"System preset: {system.name}")
    print("  Physical")
    print(f"    speed of sound           : {acoustic.speed_of_sound:.0f} m/s")
    print("  Transducer head")
    print(f"    center frequency         : {acoustic.center_frequency / 1e6:.1f} MHz")
    print(f"    bandwidth                : {acoustic.bandwidth / 1e6:.1f} MHz")
    print(f"    matrix size              : {transducer.elements_x} x "
          f"{transducer.elements_y}")
    print(f"    wavelength               : {acoustic.wavelength * 1e3:.3f} mm")
    print(f"    pitch                    : {transducer.pitch * 1e3:.4f} mm")
    print(f"    aperture                 : {transducer.aperture_x * 1e3:.2f} x "
          f"{transducer.aperture_y * 1e3:.2f} mm")
    print("  Beamformer")
    print(f"    imaging volume           : "
          f"{2 * volume.theta_max * 180 / 3.141592653589793:.0f} deg x "
          f"{2 * volume.phi_max * 180 / 3.141592653589793:.0f} deg x "
          f"{volume.depth_max / acoustic.wavelength:.0f} lambda")
    print(f"    sampling frequency       : {acoustic.sampling_frequency / 1e6:.0f} MHz")
    print(f"    focal points             : {volume.n_theta} x {volume.n_phi} x "
          f"{volume.n_depth}")
    print(f"    echo buffer              : {system.echo_buffer_samples} samples")
    print(f"    target volume rate       : {system.beamformer.frame_rate:.0f} /s")
    print(f"    delay values per volume  : {system.theoretical_delay_count:.3e}")
    print(f"    delay values per second  : {system.delay_throughput_required:.3e}")
    return 0


def _cmd_spec(args: argparse.Namespace) -> int:
    try:
        spec = _resolve_engine_spec(args, default_system="small")
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    text = spec.to_json()
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            print(f"cannot write spec file {args.out!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .api import ScanSpec, Session
    from .observability import (
        render_runtime_stats,
        render_span_tree,
        write_metrics,
        write_trace,
    )

    if args.frames < 1:
        print("--frames must be at least 1", file=sys.stderr)
        return 2
    if args.batch < 1:
        print("--batch must be at least 1", file=sys.stderr)
        return 2
    tracing = args.trace or args.trace_out is not None
    try:
        spec = _resolve_engine_spec(args, default_system="small",
                                    default_backend="vectorized")
        if tracing:
            spec = spec.with_updates(trace=True)
        session = Session(spec)
        scan = ScanSpec(scenario=args.scenario, frames=args.frames)
        service = session.service()
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    frames = scan.build_frames(session.system)
    quantized = f", quantized [{service.quantization.describe()}]" \
        if service.quantization is not None else ""
    print(f"Streaming {len(frames)} frames on system '{session.system.name}' "
          f"(architecture={session.spec.architecture}, "
          f"backend={service.backend_name}, "
          f"dtype={service.precision.value}, batch={args.batch}, "
          f"scheme={service.scheme.describe()}, "
          f"scenario={scan.scenario}{quantized})")
    for result in service.stream(frames, batch_size=args.batch):
        print(f"  frame {result.frame_id:3d}: "
              f"acquire {result.acquire_seconds * 1e3:8.2f} ms, "
              f"beamform {result.beamform_seconds * 1e3:8.2f} ms")
    print("Aggregate:")
    print(render_runtime_stats(service.stats()))
    if args.trace:
        print("Trace:")
        print(render_span_tree(session.tracer))
    try:
        if args.trace_out is not None:
            write_trace(args.trace_out, session.tracer)
            print(f"wrote trace to {args.trace_out}")
        if args.metrics_out is not None:
            write_metrics(args.metrics_out, service.export_metrics())
            print(f"wrote metrics to {args.metrics_out}")
    except OSError as exc:
        print(f"cannot write observability output: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .api import ScanSpec, apply_overrides
    from .observability import write_metrics
    from .server import BeamformingServer, ServerSpec

    if args.sessions < 1:
        print("--sessions must be at least 1", file=sys.stderr)
        return 2
    if args.frames < 1:
        print("--frames must be at least 1", file=sys.stderr)
        return 2
    try:
        data = _nested_spec_data(args)
        for key, value in (("workers", args.workers),
                           ("queue_capacity", args.queue_capacity),
                           ("policy", args.policy),
                           ("session_memory_budget_bytes",
                            args.memory_budget)):
            if value is not None:
                data[key] = value
        data = apply_overrides(data, args.set or [])
        spec = ServerSpec.from_dict(data)
        scan = ScanSpec(scenario=args.scenario, frames=args.frames)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.check:
        print(spec.to_json())
        return 0
    with BeamformingServer(spec) as server:
        system = spec.engine.resolve_system()
        frames = scan.build_frames(system)
        print(f"Serving {args.sessions} sessions x {len(frames)} frames on "
              f"system '{system.name}' (workers={server.workers}, "
              f"queue={spec.queue_capacity}, policy={spec.policy.value}, "
              f"backend={spec.engine.backend}, scenario={scan.scenario})")
        handles = [server.open_session() for _ in range(args.sessions)]
        start = time.perf_counter()
        tickets = [(handle, [handle.submit(frame) for frame in frames])
                   for handle in handles]
        for handle, session_tickets in tickets:
            for ticket in session_tickets:
                try:
                    ticket.result()
                except Exception as exc:  # dropped frames stay visible
                    print(f"  {handle.session_id} frame "
                          f"{ticket.frame_id}: {exc}")
        server.drain()
        elapsed = time.perf_counter() - start
        stats = server.stats()
        for session in stats.sessions:
            print(f"  session {session.session_id}: "
                  f"{session.frames} frames, {session.drops} drops, "
                  f"p50 {session.p50_latency_seconds * 1e3:7.2f} ms, "
                  f"p99 {session.p99_latency_seconds * 1e3:7.2f} ms")
        rate = stats.voxels / elapsed if elapsed else 0.0
        print(f"Aggregate: {stats.frames} frames, {stats.drops} drops in "
              f"{elapsed:.2f} s — {rate:.3e} voxels/s "
              f"(p99 {stats.p99_latency_seconds * 1e3:.2f} ms)")
        try:
            if args.metrics_out is not None:
                write_metrics(args.metrics_out, server.export_metrics())
                print(f"wrote metrics to {args.metrics_out}")
        except OSError as exc:
            print(f"cannot write observability output: {exc}",
                  file=sys.stderr)
            return 2
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .api import Session, apply_overrides
    from .observability import render_span_tree, write_metrics, write_trace
    from .sweep import SweepExecutor, SweepRunSpec

    try:
        data = _nested_spec_data(args)
        if args.store is not None:
            data["store"] = args.store
        if args.resume is not None:
            data["resume"] = args.resume
        if args.overwrite:
            data["overwrite"] = True
        data = apply_overrides(data, args.set or [])
        spec = SweepRunSpec.from_dict(data)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.check:
        print(spec.to_json())
        return 0
    tracing = args.trace or args.trace_out is not None
    engine = spec.engine.with_updates(trace=True) if tracing else spec.engine
    with Session(engine) as session:
        executor = SweepExecutor(session, store=spec.store,
                                 resume=spec.resume, overwrite=spec.overwrite)
        sweep = spec.sweep
        architectures, backends, _ = sweep.resolve_grid(
            engine.architecture, engine.backend)
        cells = (len(sweep.scenarios) * len(sweep.schemes)
                 * len(architectures) * len(backends))
        store_text = spec.store if spec.store else "none (in-memory)"
        print(f"Sweeping {cells} cells on system "
              f"'{session.system.name}' "
              f"({len(sweep.scenarios)} scenarios x "
              f"{len(sweep.schemes)} schemes x "
              f"{len(architectures)} architectures x "
              f"{len(backends)} backends; store={store_text}, "
              f"resume={spec.resume}, "
              f"overwrite={spec.overwrite})")
        start = time.perf_counter()
        try:
            results = executor.run(sweep)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        elapsed = time.perf_counter() - start
        for key, cell in results.items():
            status = executor.statuses.get(key, "computed")
            label = " x ".join(key)
            metrics = cell.get("metrics")
            detail = ""
            if metrics:
                detail = (f"  fwhm_lat {metrics['fwhm_lateral']:8.3e}  "
                          f"cnr {metrics['cnr']:7.3f}")
            print(f"  [{status:8s}] {label}{detail}")
        print(f"Summary: {len(results)} cells — "
              f"{executor.completed:.0f} computed, "
              f"{executor.cached:.0f} cached, "
              f"{executor.failed:.0f} failed in {elapsed:.2f} s")
        if args.trace:
            print("Trace:")
            print(render_span_tree(session.tracer))
        try:
            if args.trace_out is not None:
                write_trace(args.trace_out, session.tracer)
                print(f"wrote trace to {args.trace_out}")
            if args.metrics_out is not None:
                write_metrics(args.metrics_out, session.metrics)
                print(f"wrote metrics to {args.metrics_out}")
        except OSError as exc:
            print(f"cannot write observability output: {exc}",
                  file=sys.stderr)
            return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser.

    Architecture/backend names are deliberately *not* closed ``choices``
    lists: they are validated against the registries when the command runs,
    so plugins registered by user code (or named in spec files) work and
    unknown names fail with the registered listing.
    """
    parser = argparse.ArgumentParser(
        prog="repro", description="DATE 2015 delay-table reproduction toolkit")
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list experiments and registered plugins")
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = subparsers.add_parser(
        "run", help="run one experiment or 'all'",
        epilog="experiments consume only the spec's system (--system or the "
               "spec file's \"system\"); other spec fields are validated "
               "but not used by 'run'")
    run_parser.add_argument("experiment", help="experiment id (E1..E11) or 'all'")
    _add_spec_arguments(run_parser, default_system="per-experiment")
    run_parser.add_argument("--trace", action="store_true",
                            help="install a process-wide tracer for the "
                                 "experiment and print its span summary")
    run_parser.set_defaults(handler=_cmd_run, architecture=None, backend=None)

    table_parser = subparsers.add_parser("table2", help="print the Table II model")
    table_parser.add_argument("--system", choices=sorted(PRESETS),
                              default="paper")
    table_parser.set_defaults(handler=_cmd_table2)

    specs_parser = subparsers.add_parser("specs", help="print the system spec (Table I)")
    specs_parser.add_argument("--system", choices=sorted(PRESETS),
                              default="paper")
    specs_parser.set_defaults(handler=_cmd_specs)

    spec_parser = subparsers.add_parser(
        "spec", help="resolve an EngineSpec document and print it as JSON")
    _add_spec_arguments(spec_parser, default_system="small")
    spec_parser.add_argument("--architecture", default=None,
                             help="delay architecture (see 'list')")
    spec_parser.add_argument("--backend", default=None,
                             help="execution backend (see 'list')")
    spec_parser.add_argument("--qformat", metavar="SPEC", default=None,
                             help="bit-true quantized execution: a total "
                                  "bit width (e.g. 18) or a delay Q-format "
                                  "like U13.5 / S13.4")
    spec_parser.add_argument("--scheme", default=None,
                             help="transmit scheme (see 'list') "
                                  "[default: focused]")
    spec_parser.add_argument("--memory-budget", metavar="BYTES", default=None,
                             help="plan-memory budget; plain bytes or a "
                                  "suffixed size like 512M or 8G "
                                  "[default: unbounded]")
    spec_parser.add_argument("--out", metavar="FILE", default=None,
                             help="write the JSON to FILE instead of stdout")
    spec_parser.set_defaults(handler=_cmd_spec)

    stream_parser = subparsers.add_parser(
        "stream", help="stream a cine sequence through the beamforming runtime")
    _add_spec_arguments(stream_parser, default_system="small")
    stream_parser.add_argument("--architecture", default=None,
                               help="delay architecture (see 'list')")
    stream_parser.add_argument("--backend", default=None,
                               help="execution backend (see 'list') "
                                    "[default: vectorized]")
    stream_parser.add_argument("--scheme", default=None,
                               help="transmit scheme (see 'list'); "
                                    "multi-firing schemes compound one "
                                    "volume per frame [default: focused]")
    stream_parser.add_argument("--scenario", default="moving_point",
                               help="scan scenario (see 'list')")
    stream_parser.add_argument("--frames", type=int, default=8,
                               help="number of cine frames (default 8)")
    stream_parser.add_argument("--dtype", choices=["float64", "float32"],
                               default=None,
                               help="kernel execution precision "
                                    "[default: float64 (exact)]")
    stream_parser.add_argument("--qformat", metavar="SPEC", default=None,
                               help="bit-true quantized execution: a total "
                                    "bit width (e.g. 18) or a delay "
                                    "Q-format like U13.5 / S13.4 "
                                    "[default: off]")
    stream_parser.add_argument("--batch", type=int, default=1,
                               help="frames per batched kernel execution "
                                    "(default 1 = per-frame)")
    stream_parser.add_argument("--memory-budget", metavar="BYTES",
                               default=None,
                               help="plan-memory budget; execution tiles "
                                    "the volume so cached plan segments "
                                    "never exceed it (e.g. 512K, 8G) "
                                    "[default: unbounded]")
    stream_parser.add_argument("--trace", action="store_true",
                               help="record a span trace and print the "
                                    "per-stage tree after streaming")
    stream_parser.add_argument("--trace-out", metavar="FILE", default=None,
                               help="write the span trace as JSON lines "
                                    "(implies tracing)")
    stream_parser.add_argument("--metrics-out", metavar="FILE", default=None,
                               help="write a Prometheus-style metrics "
                                    "snapshot of the run")
    stream_parser.set_defaults(handler=_cmd_stream)

    serve_parser = subparsers.add_parser(
        "serve", help="multiplex concurrent cine sessions through the "
                      "multi-stream beamforming server")
    serve_parser.add_argument("--spec", metavar="FILE",
                              help="ServerSpec JSON document to start from")
    serve_parser.add_argument("--system", default=None,
                              help="system preset for the default engine "
                                   f"({', '.join(sorted(PRESETS))}) "
                                   "[default: small]")
    serve_parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                              help="dotted ServerSpec override, e.g. "
                                   "--set engine.backend=reference or "
                                   "--set queue_capacity=4 (repeatable)")
    serve_parser.add_argument("--architecture", default=None,
                              help="delay architecture for the default "
                                   "engine (see 'list')")
    serve_parser.add_argument("--backend", default=None,
                              help="execution backend for the default "
                                   "engine (see 'list') "
                                   "[default: vectorized]")
    serve_parser.add_argument("--scheme", default=None,
                              help="transmit scheme for the default engine "
                                   "(see 'list') [default: focused]")
    serve_parser.add_argument("--scenario", default="moving_point",
                              help="scan scenario every session streams "
                                   "(see 'list')")
    serve_parser.add_argument("--sessions", type=int, default=4,
                              help="concurrent sessions (default 4)")
    serve_parser.add_argument("--frames", type=int, default=4,
                              help="frames per session (default 4)")
    serve_parser.add_argument("--workers", type=int, default=None,
                              help="worker threads [default: auto]")
    serve_parser.add_argument("--queue-capacity", type=int, default=None,
                              help="per-session queue bound [default: 8]")
    serve_parser.add_argument("--policy", default=None,
                              help="backpressure policy: block, "
                                   "drop_oldest or drop_latest "
                                   "[default: block]")
    serve_parser.add_argument("--memory-budget", metavar="BYTES",
                              default=None,
                              help="default session plan-memory budget "
                                   "(e.g. 512K, 8G); it caps the server's "
                                   "one shared plan cache, for all "
                                   "sessions together "
                                   "[default: unbounded]")
    serve_parser.add_argument("--check", action="store_true",
                              help="validate and print the resolved "
                                   "ServerSpec JSON, then exit without "
                                   "serving")
    serve_parser.add_argument("--metrics-out", metavar="FILE", default=None,
                              help="write a Prometheus-style metrics "
                                   "snapshot of the run")
    serve_parser.set_defaults(handler=_cmd_serve)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a scored scenario x scheme x architecture grid "
                      "through the resumable content-addressed executor")
    sweep_parser.add_argument("--spec", metavar="FILE",
                              help="SweepRunSpec JSON document to start from")
    sweep_parser.add_argument("--system", default=None,
                              help="system preset for the engine "
                                   f"({', '.join(sorted(PRESETS))}) "
                                   "[default: small]")
    sweep_parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                              help="dotted SweepRunSpec override, e.g. "
                                   "--set sweep.scenarios='[\"cyst\"]' or "
                                   "--set engine.quantization=18 "
                                   "(repeatable)")
    sweep_parser.add_argument("--architecture", default=None,
                              help="delay architecture for the engine (see "
                                   "'list'); grid axes come from "
                                   "sweep.architectures")
    sweep_parser.add_argument("--backend", default=None,
                              help="execution backend for the engine (see "
                                   "'list') [default: vectorized]")
    sweep_parser.add_argument("--scheme", default=None,
                              help="engine transmit scheme; grid axes come "
                                   "from sweep.schemes [default: focused]")
    sweep_parser.add_argument("--store", metavar="DIR", default=None,
                              help="content-addressed result store; "
                                   "completed cells are skipped on rerun "
                                   "[default: in-memory only]")
    sweep_parser.add_argument("--resume", default=None,
                              action=argparse.BooleanOptionalAction,
                              help="serve store-completed cells instead of "
                                   "recomputing them [default: on]")
    sweep_parser.add_argument("--overwrite", action="store_true",
                              help="recompute and refresh every cell even "
                                   "when the store already holds it")
    sweep_parser.add_argument("--check", action="store_true",
                              help="validate and print the resolved "
                                   "SweepRunSpec JSON, then exit without "
                                   "sweeping")
    sweep_parser.add_argument("--trace", action="store_true",
                              help="record a span trace and print the "
                                   "per-cell tree after the sweep")
    sweep_parser.add_argument("--trace-out", metavar="FILE", default=None,
                              help="write the span trace as JSON lines "
                                   "(implies tracing)")
    sweep_parser.add_argument("--metrics-out", metavar="FILE", default=None,
                              help="write a Prometheus-style metrics "
                                   "snapshot of the run (includes the "
                                   "sweep_cells_* counters)")
    sweep_parser.set_defaults(handler=_cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
