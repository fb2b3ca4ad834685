"""Smoke test of the benchmark itself: every workload at ``--scale smoke``.

No timing is asserted — only that every workload runs, checks its outputs,
reports every metric BENCHMARK.json names, and that the result checks fire
on a result corrupted on purpose.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf import checks, compare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _start(name: str, out: Path, trace: int = 0) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", name, "--seed", "5", "--seconds", "1",
            "--trace", str(trace), "--scale", "smoke", "--out", str(out),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every workload untraced plus one traced, started together."""
    directory = tmp_path_factory.mktemp("perf-smoke")
    started = {name: _start(name, directory / f"{name}.json") for name in WORKLOADS}
    started["traced"] = _start("serve_epoch", directory / "traced.json", trace=1)
    finished = {}
    for name, process in started.items():
        stdout, _ = process.communicate(timeout=120)
        assert process.returncode == 0, stdout[-2000:]
        path = directory / ("traced.json" if name == "traced" else f"{name}.json")
        finished[name] = (json.loads(stdout.strip().split("\n")[-1]), json.loads(path.read_text()), path)
    return finished


def test_benchmark_json_shape():
    assert len(SPEC["workloads"]) == 6
    assert len(SPEC["end_to_end"]) == 7
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(checks.NAME.match(name) for name in names)
    assert all(checks.UNIT.match(entry["unit"]) for key in ("end_to_end", "per_layer") for entry in SPEC[key])
    setup = next(entry for entry in SPEC["end_to_end"] if entry["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])
    assert setup["bound"] == max(entry["bound"] for entry in SPEC["end_to_end"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_reports_every_end_to_end_metric(runs, name):
    last_line, result, _ = runs[name]
    assert set(last_line) == {"correct", "attempted", "failed", "metrics"}
    assert last_line["correct"] is True and last_line["failed"] == 0 and last_line["attempted"] >= 1
    assert set(last_line["metrics"]) == {entry["name"] for entry in SPEC["end_to_end"]}
    for entry in SPEC["end_to_end"]:
        metric = last_line["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"] and metric["value"] > 0
    assert result["stamp"]["scale"] == "smoke"
    assert result["checks"] and all(row["ok"] for row in result["checks"])
    assert checks.result_problems(result, SPEC) == []


def test_traced_run_reports_every_per_layer_metric(runs):
    last_line, result, _ = runs["traced"]
    assert set(last_line["metrics"]) == {entry["name"] for entry in SPEC["per_layer"]}
    assert last_line["metrics"]["learning.model.decide_us"]["value"] > 0
    assert last_line["metrics"]["trace.spans"]["value"] > 0
    assert "self time per layer" in result["trace_report"]
    assert checks.result_problems(result, SPEC) == []


def test_same_input_same_cost_inline_and_sharded(runs):
    assert (
        runs["serve_epoch"][1]["metrics"]["schedule_cost_cents"]
        == runs["serve_sharded"][1]["metrics"]["schedule_cost_cents"]
    )
    assert checks.suite_problems({name: runs[name][1] for name in WORKLOADS}) == []


def test_compare_refuses_smoke_results(runs, capsys):
    path = runs["serve_epoch"][2]
    assert compare.compare_files(SPEC, path, path) == 2
    assert "smoke" in capsys.readouterr().out


def test_checks_fire_on_a_corrupted_result(runs):
    good = runs["serve_epoch"][1]

    def problems(change) -> list[str]:
        bad = copy.deepcopy(good)
        change(bad)
        return checks.result_problems(bad, SPEC)

    assert problems(lambda bad: bad["metrics"].pop("op_tail_ms"))
    assert problems(lambda bad: bad["metrics"]["queries_per_s"].update(value=0.0))
    assert problems(lambda bad: bad["metrics"]["peak_rss_mb"].update(unit="MB"))
    assert problems(lambda bad: bad["metrics"].update({"bad name!": {"value": 1.0, "unit": "s"}}))
    assert problems(lambda bad: bad.update(failed=3))
    assert problems(lambda bad: bad["checks"][0].update(ok=False, detail="decided 1, submitted 2"))
    assert problems(lambda bad: bad.update(checks=[]))

    sharded = copy.deepcopy(runs["serve_sharded"][1])
    sharded["metrics"]["schedule_cost_cents"]["value"] += 0.01
    assert checks.suite_problems({"serve_epoch": good, "serve_sharded": sharded})


def test_compare_verdicts():
    def result(value, spread=0.0):
        return {
            "workload": "serve_epoch",
            "stamp": {"seed": 1, "seconds": 10.0, "scale": "full", "traced": False},
            "metrics": {
                entry["name"]: {"value": value if entry["name"] == "queries_per_s" else 1.0}
                for entry in SPEC["end_to_end"]
            },
            "detail": {"capacity": {"pass_spread": spread}},
        }

    assert compare.compare(SPEC, [result(100.0)], [result(99.0)]) == 0
    assert compare.compare(SPEC, [result(100.0)], [result(50.0)]) == 1
    # Too wide a spread to tell: unresolved, which only the self-check fails on.
    assert compare.compare(SPEC, [result(100.0, spread=0.9)], [result(50.0)]) == 0
    assert compare.compare(SPEC, [result(100.0, spread=0.9)], [result(50.0)], strict=True) == 1
