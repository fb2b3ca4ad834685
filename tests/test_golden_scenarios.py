"""Golden-scenario regression suite for training and inference.

Every scenario is a fully seeded end-to-end run — train a model, schedule a
workload, record what ran where and what it cost — whose canonical result is
frozen under ``tests/golden/``.  The grid covers all four performance-goal
kinds, batch and online scheduling, and two VM catalogues (single-type and
two-type), so any change to training, feature extraction, tree evaluation, or
either scheduler that shifts a single placement, start time, or cent shows up
as a digest mismatch.

Each scenario runs once and is compared with its frozen digest.  There is
one inference path, so nothing here runs a second one; its oracles live in
the equivalence suite (``tests/test_vectorized_equivalence.py`` — the
full-row decision and a session fed one query per epoch).

Regenerating
------------

Digests change legitimately only when scheduling behaviour is *meant* to
change.  Regenerate deliberately with::

    pytest tests/test_golden_scenarios.py --regen-golden

and review the resulting diff under ``tests/golden/`` like any other code
change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import units
from repro.cloud.vm import single_vm_type_catalog, two_vm_type_catalog
from repro.config import TrainingConfig
from repro.core.scheduler import SchedulingOutcome
from repro.learning.trainer import ModelGenerator
from repro.runtime.batch import BatchScheduler
from repro.runtime.online import OnlineOptimizations, OnlineScheduler
from repro.sla.factory import GOAL_KINDS, default_goal
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.templates import QueryTemplate, TemplateSet

GOLDEN_DIR = Path(__file__).parent / "golden"

CATALOGS = {
    "1vm": single_vm_type_catalog,
    "2vm": lambda: two_vm_type_catalog(slow_templates=["G3"]),
}

SCENARIOS = [
    (kind, mode, catalog)
    for kind in GOAL_KINDS
    for mode in ("batch", "online")
    for catalog in CATALOGS
]


@pytest.fixture(scope="module")
def golden_templates() -> TemplateSet:
    """Three well-separated templates dedicated to the golden grid."""
    return TemplateSet(
        [
            QueryTemplate(name="G1", base_latency=units.minutes(1)),
            QueryTemplate(name="G2", base_latency=units.minutes(2)),
            QueryTemplate(name="G3", base_latency=units.minutes(4)),
        ]
    )


@pytest.fixture(scope="module")
def golden_trainings(golden_templates):
    """One trained model per (goal kind, catalogue), shared by batch/online."""
    trainings = {}
    for kind in GOAL_KINDS:
        for catalog_name, catalog_factory in CATALOGS.items():
            generator = ModelGenerator(
                templates=golden_templates,
                vm_types=catalog_factory(),
                config=TrainingConfig.tiny(seed=13),
            )
            goal = default_goal(kind, golden_templates)
            trainings[(kind, catalog_name)] = (
                generator,
                generator.generate(goal),
            )
    return trainings


def _outcome_payload(outcome: SchedulingOutcome, query_index: dict[int, int]) -> dict:
    """Canonical JSON form of a scheduling outcome (floats round-trip exactly).

    Query ids are auto-assigned from a process-global counter, so they are
    normalised to each query's position within the scenario workload — the
    payload must be identical across processes for the digests to freeze.
    """
    return {
        "scheduler": outcome.scheduler,
        "goal": outcome.goal.kind,
        "schedule": [
            {
                "vm_type": vm.vm_type.name,
                "queries": [
                    [query_index[query.query_id], query.template_name]
                    for query in vm.queries
                ],
            }
            for vm in outcome.schedule
        ],
        "cost": {
            "startup": outcome.cost.startup_cost,
            "execution": outcome.cost.execution_cost,
            "penalty": outcome.cost.penalty_cost,
            "total": outcome.cost.total,
        },
        "records": [
            {
                "query_id": query_index[record.query_id],
                "template": record.template_name,
                "vm_index": record.vm_index,
                "vm_type": record.vm_type_name,
                "arrival": record.arrival_time,
                "start": record.start_time,
                "completion": record.completion_time,
                "execution": record.execution_time,
            }
            for record in sorted(
                outcome.query_outcomes, key=lambda r: (r.vm_index, r.start_time, r.query_id)
            )
        ],
        # Deterministic overhead counters only (never wall-clock times).
        "counters": {
            "decisions": outcome.overhead.decisions,
            "retrains": outcome.overhead.retrains,
            "cache_hits": outcome.overhead.cache_hits,
        },
    }


def _digest(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _scenario_workload(mode, golden_templates):
    stream = WorkloadGenerator(golden_templates, seed=29)
    if mode == "batch":
        return stream.uniform(12)
    return stream.with_fixed_arrivals(stream.uniform(10), delay=45.0)


def _run_scenario(kind, mode, catalog_name, workload, golden_trainings):
    generator, training = golden_trainings[(kind, catalog_name)]
    if mode == "batch":
        outcome = BatchScheduler(training.model).run(workload)
    else:
        scheduler = OnlineScheduler(
            base_training=training,
            generator=generator,
            optimizations=OnlineOptimizations.all(),
            wait_resolution=60.0,
        )
        outcome = scheduler.run(workload)
    query_index = {query.query_id: index for index, query in enumerate(workload)}
    payload = _outcome_payload(outcome, query_index)
    payload["training"] = {
        "examples": training.num_examples,
        "tree_depth": training.model.metadata.tree_depth,
        "tree_leaves": training.model.metadata.tree_leaves,
        "training_set_sha256": hashlib.sha256(
            json.dumps(training.training_set.to_dict(), sort_keys=True).encode()
        ).hexdigest(),
    }
    return payload


def _golden_path(kind, mode, catalog_name) -> Path:
    return GOLDEN_DIR / f"{kind}_{mode}_{catalog_name}.json"


@pytest.mark.parametrize("kind,mode,catalog_name", SCENARIOS)
def test_golden_scenario(
    kind, mode, catalog_name, golden_trainings, golden_templates, regen_golden
):
    """The scenario reproduces its frozen digest."""
    workload = _scenario_workload(mode, golden_templates)
    payload = _run_scenario(kind, mode, catalog_name, workload, golden_trainings)
    digest = _digest(payload)

    path = _golden_path(kind, mode, catalog_name)
    if regen_golden:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(
                {"digest": digest, "payload": payload},
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        return
    assert path.exists(), (
        f"golden file {path.name} is missing — run pytest with --regen-golden "
        "to create it, then commit the result"
    )
    frozen = json.loads(path.read_text())
    assert payload == frozen["payload"], (
        f"scenario {kind}/{mode}/{catalog_name} diverged from its golden record"
    )
    assert digest == frozen["digest"]


def test_golden_grid_covers_every_goal_mode_and_catalog():
    """The scenario grid itself is part of the contract."""
    kinds = {kind for kind, _, _ in SCENARIOS}
    modes = {mode for _, mode, _ in SCENARIOS}
    catalogs = {catalog for _, _, catalog in SCENARIOS}
    assert kinds == set(GOAL_KINDS)
    assert modes == {"batch", "online"}
    assert len(catalogs) >= 2
    assert len(SCENARIOS) == len(GOAL_KINDS) * 2 * len(CATALOGS)
