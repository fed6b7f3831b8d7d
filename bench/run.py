"""Run the repository's benchmark.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace [0|1]] [--out FILE]

With ``--workload``, runs that workload once in this process, prints every
metric with its unit and sample count, and ends stdout with one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 1`` reports
the per-layer metrics instead of the end-to-end ones and writes the span
trace as JSON lines next to the result record.  Without ``--workload``,
every workload runs once, each in its own fresh Python process.  The exit
status is 0 only when every output matched the oracle.

The program is imported from ``src/`` of the checkout this file sits in,
and from nowhere else.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

from harness import OUT_DIR, ROOT, load_declaration

SRC = ROOT / "src"


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and import from it."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import the program from {SRC}: "
                         f"{exc}") from None
    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"bench: imported the program from "
                         f"{repro.__file__}, not from {SRC}")


def parse_args(argv: list[str], declaration: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the benchmark workloads described in BENCHMARK.json.")
    parser.add_argument("--workload", choices=[entry["name"] for entry
                                               in declaration["workloads"]],
                        help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed the workload inputs are generated from")
    parser.add_argument("--seconds", type=float,
                        default=float(declaration["run_seconds"]),
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report the per-layer metrics and write spans")
    parser.add_argument("--out", type=Path,
                        help="result record (default: bench/out/...)")
    return parser.parse_args(argv)


def run_one(args: argparse.Namespace, declaration: dict) -> int:
    import_program()
    import workloads
    from harness import check_declared, render, result_line

    mode = "per_layer" if args.trace else "end_to_end"
    stem = f"{args.workload}-seed{args.seed}"
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"{stem}.trace.jsonl" if args.trace else None
    outcome = workloads.run(args.workload,
                            workloads.Scale(seconds=args.seconds),
                            args.seed, trace_path)
    check_declared(outcome.metrics, declaration[mode], mode)
    print(render(args.workload, outcome))
    if trace_path is not None:
        print(f"spans: {trace_path}")
    line = result_line(outcome)
    out = args.out or OUT_DIR / f"{stem}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, **line,
        "metrics": {name: asdict(metric)
                    for name, metric in outcome.metrics.items()},
        "extras": {name: asdict(metric)
                   for name, metric in outcome.extras.items()},
    }, indent=2))
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


def run_all(args: argparse.Namespace, declaration: dict) -> int:
    """Every workload in a fresh interpreter; a summary line at the end."""
    status, lines = 0, {}
    for entry in declaration["workloads"]:
        name = entry["name"]
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        print(completed.stdout, end="", flush=True)
        status = status or completed.returncode
        try:
            lines[name] = json.loads(completed.stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            lines[name] = None  # the run stopped before its result line
    done = [line for line in lines.values() if line is not None]
    summary = {
        "correct": status == 0 and len(done) == len(lines),
        "attempted": sum(line["attempted"] for line in done),
        "failed": sum(line["failed"] for line in done),
        "workloads": lines,
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary), flush=True)
    return status or (0 if summary["correct"] else 1)


def main(argv: list[str] | None = None) -> int:
    declaration = load_declaration()
    args = parse_args(sys.argv[1:] if argv is None else argv, declaration)
    if args.workload is None:
        return run_all(args, declaration)
    return run_one(args, declaration)


if __name__ == "__main__":
    sys.exit(main())
