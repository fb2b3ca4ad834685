"""Correctness checks: the ones a run makes on the program's outputs, and the
ones made on a run's result before anyone compares it with another."""

from __future__ import annotations

import math
import re

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Checks:
    """The named yes/no findings of one run."""

    def __init__(self) -> None:
        self.rows: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.rows.append({"name": name, "ok": bool(ok), "detail": "" if ok else detail})

    @property
    def ok(self) -> bool:
        return all(row["ok"] for row in self.rows)

    def failures(self) -> list[dict]:
        return [row for row in self.rows if not row["ok"]]


def placed_once(outcome, workload) -> bool:
    """Whether *outcome* places every query of *workload* exactly once."""
    placed = sorted(record.query_id for record in outcome.query_outcomes)
    return placed == sorted(query.query_id for query in workload)


def result_problems(result: dict, spec: dict) -> list[str]:
    """What is wrong with one workload's result, judged against BENCHMARK.json."""
    problems = []
    layer = "per_layer" if result.get("stamp", {}).get("traced") else "end_to_end"
    wanted = {metric["name"]: metric["unit"] for metric in spec[layer]}
    metrics = result.get("metrics", {})
    for name, unit in wanted.items():
        entry = metrics.get(name)
        if entry is None:
            problems.append(f"metric {name} is missing")
            continue
        value = entry.get("value")
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number: {value!r}")
        elif layer == "end_to_end" and value <= 0:
            problems.append(f"metric {name} is not positive: {value!r}")
        if entry.get("unit") != unit:
            problems.append(f"metric {name} has unit {entry.get('unit')!r}, not {unit!r}")
    for name in metrics:
        if name not in wanted:
            problems.append(f"metric {name} is not in BENCHMARK.json")
        if not NAME.match(name):
            problems.append(f"metric name {name!r} is outside the allowed characters")
    if result.get("workload") not in {workload["name"] for workload in spec["workloads"]}:
        problems.append(f"workload {result.get('workload')!r} is not in BENCHMARK.json")
    attempted, failed = result.get("attempted"), result.get("failed")
    if not isinstance(attempted, int) or attempted < 1:
        problems.append(f"attempted is {attempted!r}")
    if not isinstance(failed, int) or failed != 0:
        problems.append(f"failed is {failed!r}")
    for row in result.get("checks", []):
        if not row["ok"]:
            problems.append(f"check {row['name']} failed: {row['detail']}")
    if not result.get("checks"):
        problems.append("the run made no checks")
    return problems


def suite_problems(results: dict[str, dict]) -> list[str]:
    """Checks that need two workloads' results side by side."""
    problems = []
    epoch, sharded = results.get("serve_epoch"), results.get("serve_sharded")
    if epoch and sharded and not (epoch["stamp"]["traced"] or sharded["stamp"]["traced"]):
        same_input = all(
            epoch["stamp"][key] == sharded["stamp"][key] for key in ("seed", "seconds", "scale")
        )
        one = epoch["metrics"]["schedule_cost_cents"]["value"]
        other = sharded["metrics"]["schedule_cost_cents"]["value"]
        if same_input and one != other:
            problems.append(
                f"serve_sharded schedules cost {other!r} cents, serve_epoch's {one!r}: "
                "the same input must give the same schedules"
            )
    return problems
