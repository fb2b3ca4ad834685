"""Command line of the benchmark.

One workload (what the pipeline's driver calls)::

    python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S --trace 0|1

prints a report and, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics without
tracing, the per-layer metrics with it.  Without ``--workload`` every
workload runs in its own interpreter (``--out`` keeps the full results);
``--selfcheck`` runs that suite twice and holds the second against the first
by the benchmark's own bounds; ``--compare A.json B.json`` does the same for
two kept results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from benchmarks.perf import compare
from benchmarks.perf.meter import HostMeter, pin_to_one_core

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DEFAULT_SEED = 97


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _parser(benchmark: dict) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="benchmarks.perf", description=__doc__.split("\n")[0])
    names = [workload["name"] for workload in benchmark["workloads"]]
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(benchmark["run_seconds"]))
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--out", type=Path, help="write the full result as JSON")
    parser.add_argument("--spans", type=Path, help="traced run: write every span as CSV")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--runs", type=int, default=3, help="runs per set in --selfcheck")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    return parser


def _stop_resource_tracker() -> None:
    """End multiprocessing's tracker process (shared memory starts one) and
    wait for it, so that no process this run started outlives it."""
    try:
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()
    except Exception:  # a private corner of the standard library: best effort
        pass


def run_workload(args, benchmark: dict, started: float) -> dict:
    """Run one workload in this interpreter and return its full result."""
    # A smoke run's times mean nothing; leave it free to share the machine.
    core = None if args.scale == "smoke" else pin_to_one_core()
    meter = HostMeter()
    meter.probe()
    import_started = time.perf_counter()
    from benchmarks.perf import harness, offline, serving
    from benchmarks.perf.checks import result_problems
    from benchmarks.perf.trace import Tracer

    import_ended = time.perf_counter()
    meter.probe()
    ctx = harness.Context(
        seed=args.seed,
        seconds=args.seconds,
        smoke=args.scale == "smoke",
        meter=meter,
        core=core,
        # Interpreter start to the program imported, less the opening probe.
        import_seconds=(import_ended - started - meter.took[0])
        / meter.factor(import_started, import_ended),
    )
    if args.trace:
        ctx.tracer = Tracer()
        ctx.tracer.install()
    try:
        if args.workload in serving.WORKLOADS:
            outcome = serving.run(ctx, **serving.WORKLOADS[args.workload])
        else:
            outcome = getattr(offline, args.workload)(ctx)
    finally:
        if args.trace:
            ctx.tracer.uninstall()
        _stop_resource_tracker()
    if args.trace and args.spans:
        with args.spans.open("w") as handle:
            handle.write("name,start_ns,end_ns,parent,op_id\n")
            for row in ctx.tracer.rows():
                handle.write(",".join(map(str, row)) + "\n")
    checks = outcome["checks"]
    left = sorted(str(path) for path in harness.WORK.glob(f"{os.getpid()}-*"))
    checks.add("no_temp_dir_left", not left, f"{left}")

    units = {
        metric["name"]: metric["unit"]
        for metric in benchmark["per_layer" if args.trace else "end_to_end"]
    }
    if args.trace:
        values = {name: outcome["layers"].get(name, 0.0) for name in units}
        unknown = set(outcome["layers"]) - set(units)
        checks.add("layers_all_declared", not unknown, f"{sorted(unknown)}")
        coverage = values["trace.coverage_share"]
        checks.add(
            "trace.self_times_sum_to_phase_wall_within_10_percent",
            0.9 <= coverage <= 1.1,
            f"program spans cover {coverage:.1%} of the traced phase",
        )
    else:
        values = dict(outcome["end_to_end"], peak_rss_mb=harness.peak_rss_mb())
    result = {
        "workload": args.workload,
        "stamp": harness.stamp(ctx),
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "checks": checks.rows,
        "detail": outcome["detail"],
        "wall_s": time.perf_counter() - started,
    }
    if args.trace:
        result["trace_report"] = outcome["layers"].report
    result["correct"] = not result_problems(result, benchmark)
    return result


def _print_workload(result: dict) -> None:
    stamp = result["stamp"]
    print(
        f"{result['workload']}  seed {stamp['seed']}  {stamp['seconds']} s  scale {stamp['scale']}  "
        f"{'traced' if stamp['traced'] else 'untraced'}  commit {stamp['commit'][:12]}  "
        f"core {stamp['core']} of {stamp['cpu_count']}  host.calib_ms {stamp['host.calib_ms']:.2f}  "
        f"wall {result['wall_s']:.1f} s"
    )
    if "trace_report" in result:
        print(result["trace_report"])
    for name, entry in result["metrics"].items():
        print(f"  {name:44} {entry['value']:16.6f} {entry['unit']}")
    bad = [row for row in result["checks"] if not row["ok"]]
    print(f"  checks: {len(result['checks']) - len(bad)} passed, {len(bad)} failed")
    for row in bad:
        print(f"    FAILED {row['name']}: {row['detail']}")


def main(started: float | None = None) -> int:
    started = time.perf_counter() if started is None else started
    benchmark = spec()
    args = _parser(benchmark).parse_args()
    if args.compare:
        return compare.compare_files(benchmark, *args.compare)
    if args.selfcheck:
        return compare.selfcheck(benchmark, args)
    if args.workload is None:
        return compare.suite(benchmark, args)
    result = run_workload(args, benchmark, started)
    if args.out:
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    _print_workload(result)
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if result["correct"] else 1
