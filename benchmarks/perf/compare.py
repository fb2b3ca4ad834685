"""Running every workload, and holding one set of results against another.

The rule is the benchmark's own (BENCHMARK.json): per workload and
end-to-end metric, set B's median may be worse than set A's by at most the
metric's bound.  Where a set's runs (quartile distance over median) or one
run's capacity passes (range over median) spread wider than the bound, the
pair is *unresolved* — not *unchanged* —
unless every run of B reads better than every run of A.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from benchmarks.perf.checks import suite_problems

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"


def _quartile_spread(values) -> float:
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else float("inf")


# -- running ------------------------------------------------------------------------


def _run_suite(benchmark: dict, args, names, directory: Path, tag: str) -> list[dict]:
    """Each workload of *names* in a fresh interpreter; their full results."""
    results = []
    for name in names:
        out = directory / f"{tag}-{name}.json"
        command = [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--scale", args.scale,
            "--out", str(out),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        # Everything but the driver's last line, which the table below repeats.
        print("\n".join(done.stdout.rstrip().split("\n")[:-1]))
        sys.stdout.flush()
        if not out.exists():
            raise SystemExit(f"{name} exited with {done.returncode} and left no result")
        results.append(json.loads(out.read_text()))
    return results


def _scratch() -> Path:
    directory = WORK / f"suite-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _drop_scratch(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


def _table(benchmark: dict, results: list[dict]) -> str:
    traced = results[0]["stamp"]["traced"]
    metrics = benchmark["per_layer" if traced else "end_to_end"]
    width = max(len(metric["name"]) for metric in metrics) + 2
    lines = [" " * width + "".join(f"{result['workload']:>18}" for result in results)]
    for metric in metrics:
        cells = "".join(
            f"{result['metrics'][metric['name']]['value']:18.4f}" for result in results
        )
        lines.append(f"{metric['name']:{width}}{cells}  {metric['unit']}")
    return "\n".join(lines)


def suite(benchmark: dict, args) -> int:
    names = [workload["name"] for workload in benchmark["workloads"]]
    directory = _scratch()
    try:
        results = _run_suite(benchmark, args, names, directory, "run")
    finally:
        _drop_scratch(directory)
    print()
    print(_table(benchmark, results))
    problems = suite_problems({result["workload"]: result for result in results})
    problems += [
        f"{result['workload']}: a check failed" for result in results if not result["correct"]
    ]
    for problem in problems:
        print(f"FAILED {problem}")
    if args.out:
        args.out.write_text(json.dumps({"results": results}, indent=1) + "\n")
    print(f"suite wall {sum(result['wall_s'] for result in results):.1f} s")
    return 1 if problems else 0


# -- comparing ----------------------------------------------------------------------


def load(path: Path) -> list[dict]:
    data = json.loads(path.read_text())
    return data["results"] if "results" in data else [data]


def _refusal(results: list[dict], label: str) -> str | None:
    for result in results:
        stamp = result["stamp"]
        if stamp["scale"] != "full":
            return f"{label}: {result['workload']} is stamped scale {stamp['scale']!r}"
        if stamp["traced"]:
            return f"{label}: {result['workload']} is a traced run; compare untraced runs"
    return None


def _within_run_spread(result: dict, metric: str) -> float:
    if metric == "queries_per_s":
        return result["detail"].get("capacity", {}).get("pass_spread", 0.0)
    return 0.0


def compare(benchmark: dict, a: list[dict], b: list[dict], strict: bool = False) -> int:
    """Print one row per workload and metric; 1 if any regressed (or, when
    *strict*, is unresolved), else 0."""
    settings = {(r["stamp"]["seed"], r["stamp"]["seconds"]) for r in a + b}
    if len(settings) > 1:
        print(f"refused: the runs differ in seed or length: {sorted(settings)}")
        return 2
    worst = 0
    print(f"{'workload':16} {'metric':22} {'A':>14} {'B':>14} {'worse by':>9} {'bound':>6} {'spread':>7}  verdict")
    for workload in benchmark["workloads"]:
        name = workload["name"]
        runs_a = [r for r in a if r["workload"] == name]
        runs_b = [r for r in b if r["workload"] == name]
        if not runs_a or not runs_b:
            continue
        for metric in benchmark["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            lower = metric["better"] == "lower"
            values_a = [r["metrics"][key]["value"] for r in runs_a]
            values_b = [r["metrics"][key]["value"] for r in runs_b]
            mid_a, mid_b = statistics.median(values_a), statistics.median(values_b)
            worse_by = ((mid_b - mid_a) if lower else (mid_a - mid_b)) / abs(mid_a)
            spread = max(
                _quartile_spread(values_a),
                _quartile_spread(values_b),
                *(_within_run_spread(r, key) for r in runs_a + runs_b),
            )
            b_always_better = (
                max(values_b) < min(values_a) if lower else min(values_b) > max(values_a)
            )
            if spread > bound and not b_always_better:
                verdict = "unresolved"
                worst = max(worst, 1 if strict else 0)
            elif worse_by > bound:
                verdict = "REGRESSED"
                worst = 1
            elif worse_by < -bound:
                verdict = "improved"
            else:
                verdict = "unchanged"
            print(
                f"{name:16} {key:22} {mid_a:14.4f} {mid_b:14.4f} {worse_by:+9.2%} "
                f"{bound:6.0%} {spread:7.2%}  {verdict}"
            )
    return worst


def compare_files(benchmark: dict, path_a: Path, path_b: Path) -> int:
    a, b = load(path_a), load(path_b)
    for refusal in (_refusal(a, str(path_a)), _refusal(b, str(path_b))):
        if refusal:
            print(f"refused: {refusal}")
            return 2
    return compare(benchmark, a, b)


def selfcheck(benchmark: dict, args) -> int:
    """The untraced suite twice over, B in the opposite order of A."""
    names = [workload["name"] for workload in benchmark["workloads"]]
    args.trace = 0
    directory = _scratch()
    a, b = [], []
    try:
        for number in range(args.runs):
            a += _run_suite(benchmark, args, names, directory, f"a{number}")
            b += _run_suite(benchmark, args, names[::-1], directory, f"b{number}")
    finally:
        _drop_scratch(directory)
    if args.out:
        args.out.write_text(json.dumps({"a": {"results": a}, "b": {"results": b}}, indent=1) + "\n")
    status = 1 if any(not result["correct"] for result in a + b) else 0
    status = max(status, compare(benchmark, a, b, strict=True))
    for name in names:
        costs = {
            result["metrics"]["schedule_cost_cents"]["value"]
            for result in a + b
            if result["workload"] == name
        }
        if len(costs) > 1:
            print(f"FAILED {name}: schedule_cost_cents differs between runs of one seed: {sorted(costs)}")
            status = 1
    for problem in suite_problems({result["workload"]: result for result in a}):
        print(f"FAILED {problem}")
        status = 1
    print("selfcheck passed" if status == 0 else "selfcheck FAILED")
    return status
