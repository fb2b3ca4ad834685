"""Keeping a sample's optimal path across retrains: the referee.

``AdaptiveModeler.retrain`` re-prices each sample's stored optimal path under
the new goal and searches only when its cost moved, measured against the
strictest goal it has already solved.  A kept path may differ from the
equal-cost path a re-search's tie-break would return, so adapted *trees* are
not compared here; what must hold is that every sample's optimal **cost** is
what a fresh search over the same workloads says.  The un-kept behaviour
lives only here, as that oracle: ``generate(goal, workloads=base.workloads)``.

``REACHED`` counts the situations the sweeps are meant to hit;
``test_the_sweeps_reached_every_situation`` (last in the file) fails if a
refactor makes them stop reaching one.
"""

from __future__ import annotations

import json
import math
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro import units
from repro.adaptive.retraining import AdaptiveModeler
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import VMType, VMTypeCatalog, single_vm_type_catalog, two_vm_type_catalog
from repro.config import TrainingConfig
from repro.learning import trainer
from repro.learning.sampling import training_workloads
from repro.learning.trainer import ModelGenerator, SampleSolution, TrainingResult
from repro.search.problem import SchedulingProblem
from repro.service import WiSeDBService
from repro.sla.factory import GOAL_KINDS, default_goal
from repro.sla.max_latency import MaxLatencyGoal
from repro.sla.per_query import PerQueryDeadlineGoal
from repro.workloads.templates import QueryTemplate, TemplateSet, tpch_templates

SAVED_V1 = Path(__file__).parent / "data" / "saved_service_v1"

TEMPLATES = TemplateSet(
    [
        QueryTemplate(name="T1", base_latency=units.minutes(1)),
        QueryTemplate(name="T2", base_latency=units.minutes(2)),
        QueryTemplate(name="T3", base_latency=units.minutes(4)),
    ]
)
CATALOGUES = {
    "1vm": single_vm_type_catalog(),
    "2vm": two_vm_type_catalog(slow_templates=["T3"]),
}
SEEDS = (3, 11)
NUM_SAMPLES = 12

REACHED: Counter[str] = Counter()


def _config(seed: int, **overrides) -> TrainingConfig:
    return TrainingConfig(
        num_samples=NUM_SAMPLES, queries_per_sample=6, seed=seed, max_expansions=50_000,
        **overrides,
    )


def _scenarios(goal) -> dict[str, list]:
    """Scenario name -> the goals one modeler is walked through, in order."""
    scenarios = {
        "tightening_sweep": [goal.tightened(p / 100.0, TEMPLATES) for p in range(2, 34, 4)],
        "large_jump": [goal.tightened(0.75, TEMPLATES)],
        "relaxed": [goal.tightened(-0.2, TEMPLATES), goal.tightened(-0.1, TEMPLATES)],
        "out_of_order": [
            goal.tightened(p / 100.0, TEMPLATES) for p in (30, 10, 20, 10, 40, 5)
        ],
    }
    if goal.is_linearly_shiftable:
        scenarios["shift_chain"] = [goal.shifted(5.0 * step) for step in range(1, 9)]
        scenarios["out_of_order"] = [
            goal.shifted(shift) for shift in (40.0, 10.0, 25.0, 10.0, 60.0, 5.0)
        ]
    return scenarios


def _assert_costs_match_fresh(adapted: TrainingResult, fresh: TrainingResult) -> None:
    assert len(adapted.samples) == len(fresh.samples)
    for mine, oracle in zip(adapted.samples, fresh.samples):
        assert mine.template_counts == oracle.template_counts
        assert math.isclose(mine.optimal_cost, oracle.optimal_cost, rel_tol=1e-12), (
            mine.template_counts,
            mine.optimal_cost,
            oracle.optimal_cost,
        )


# ---------------------------------------------------------------------------
# (a) differential: every adapted sample costs what a fresh search says
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("catalogue", sorted(CATALOGUES))
@pytest.mark.parametrize("kind", GOAL_KINDS)
def test_adapted_costs_equal_a_fresh_search(kind, catalogue, seed):
    generator = ModelGenerator(
        TEMPLATES, vm_types=CATALOGUES[catalogue], config=_config(seed)
    )
    goal = default_goal(kind, TEMPLATES)
    base = generator.generate(goal)
    assert base.skipped_samples == 0
    assert all(sample.path for sample in base.samples)
    fresh_by_goal: dict[str, TrainingResult] = {}

    for name, goals in _scenarios(goal).items():
        modeler = AdaptiveModeler(generator, base)
        for new_goal in goals:
            reference, _ = modeler._reference(new_goal)
            result, report = modeler.retrain(new_goal)

            key = json.dumps(new_goal.to_dict(), sort_keys=True)
            if key not in fresh_by_goal:
                fresh_by_goal[key] = generator.generate(new_goal, workloads=base.workloads)
            _assert_costs_match_fresh(result, fresh_by_goal[key])

            assert report.samples_retrained + report.samples_skipped == NUM_SAMPLES
            assert report.samples_retrained == len(result.samples)
            searched = report.samples_retrained - report.samples_kept
            assert 0 <= report.samples_kept <= report.samples_retrained
            assert (report.total_expansions == 0) == (searched == 0)
            for sample in result.samples:
                assert sample.path and sample.cost_lower_bound is None

            REACHED["kept"] += report.samples_kept
            REACHED["searched"] += searched
            if reference is None:
                assert report.samples_kept == 0
                REACHED["relaxed_goal_nothing_kept"] += 1
            elif reference is not base.goal:
                REACHED["reference_other_than_base"] += 1
                REACHED[f"reference_other_than_base:{name}"] += 1
    # Every chained scenario must actually chain.
    assert REACHED["reference_other_than_base:tightening_sweep"]
    assert REACHED["reference_other_than_base:out_of_order"]


def test_the_reference_is_a_function_of_the_set_of_solved_goals():
    """Solving the same goals in another order picks the same reference."""
    generator = ModelGenerator(TEMPLATES, config=_config(SEEDS[0]))
    goal = default_goal("per_query", TEMPLATES)
    base = generator.generate(goal)
    solved = [goal.shifted(shift) for shift in (10.0, 20.0, 30.0)]
    probes = [goal.shifted(shift) for shift in (5.0, 10.0, 15.0, 25.0, 40.0)]
    probes.append(goal.tightened(-0.1, TEMPLATES))
    choices = []
    for order in (solved, solved[::-1], [solved[1], solved[2], solved[0]]):
        modeler = AdaptiveModeler(generator, base)
        for new_goal in order:
            modeler.retrain(new_goal)
        choices.append(
            [
                reference and reference.to_dict()
                for reference, _ in map(modeler._reference, probes)
            ]
        )
    assert choices[0] == choices[1] == choices[2]
    # base for 5 s, the 10 s goal for 10 and 15 s, 20 s for 25 s, 30 s for 40 s, none relaxed.
    expected = [goal, solved[0], solved[0], solved[1], solved[2]]
    assert choices[0] == [g.to_dict() for g in expected] + [None]


def test_relaxed_strategy_samples_are_never_kept_and_never_bounded(monkeypatch):
    """A ``weighted_astar`` tenant's costs are not optima: Lemma 5.1 does not apply."""
    generator = ModelGenerator(
        TEMPLATES, config=_config(SEEDS[0], search_strategy="weighted_astar:1.5")
    )
    goal = default_goal("max", TEMPLATES)
    base = generator.generate(goal)
    assert all(sample.cost_lower_bound is not None for sample in base.samples)
    assert all(sample.path for sample in base.samples)
    REACHED["base_sample_with_cost_lower_bound"] += len(base.samples)

    bounded = []
    original = AdaptiveModeler._adaptive_bound
    monkeypatch.setattr(
        AdaptiveModeler,
        "_adaptive_bound",
        staticmethod(lambda *args: bounded.append(args) or original(*args)),
    )
    modeler = AdaptiveModeler(generator, base)
    for shift in (5.0, 10.0, 5.0):
        new_goal = goal.shifted(shift)
        result, report = modeler.retrain(new_goal)
        assert report.samples_kept == 0 and not bounded
        # An unbounded, un-kept re-search is the fresh search.
        fresh = generator.generate(new_goal, workloads=base.workloads)
        assert [(s.optimal_cost, s.expansions, s.path) for s in result.samples] == [
            (s.optimal_cost, s.expansions, s.path) for s in fresh.samples
        ]
        assert report.total_expansions == sum(s.expansions for s in fresh.samples) > 0


# ---------------------------------------------------------------------------
# Soundness: "stricter" must mean every outcome set is penalised at least as much
# ---------------------------------------------------------------------------


def _tpch_costs(base_goal, new_goal, num_samples, queries_per_sample):
    templates = tpch_templates(10)
    generator = ModelGenerator(
        templates,
        config=TrainingConfig(
            num_samples=num_samples,
            queries_per_sample=queries_per_sample,
            seed=0,
            max_expansions=120_000,
        ),
    )
    base = generator.generate(base_goal)
    adapted, report = AdaptiveModeler(generator, base).retrain(new_goal)
    fresh = generator.generate(new_goal, workloads=base.workloads)
    return adapted, report, fresh


def test_a_lower_penalty_rate_is_not_stricter():
    """A tighter deadline at a thousandth of the rate makes schedules *cheaper*.

    At the parent commit ``h'`` was applied on the deadline alone and 14 of
    these 20 samples were recorded above their true optimum.
    """
    adapted, report, fresh = _tpch_costs(
        MaxLatencyGoal(200.0, penalty_rate=1.0),
        MaxLatencyGoal(190.0, penalty_rate=0.001),
        num_samples=20,
        queries_per_sample=6,
    )
    assert [s.optimal_cost for s in adapted.samples] == [s.optimal_cost for s in fresh.samples]
    assert report.samples_kept == 0


def test_a_lower_mean_deadline_is_not_stricter():
    """One template's deadline tripled, the other nine scaled by 0.7: the mean falls.

    At the parent commit this passed as "stricter" (mean 729.0 -> 696.6) and
    1 of 40 samples was recorded at 3.187 against a true optimum of 3.107.
    """
    templates = tpch_templates(10)
    base_goal = default_goal("per_query", templates)
    first = next(iter(base_goal.deadlines))
    new_goal = PerQueryDeadlineGoal(
        {
            name: deadline * (3.0 if name == first else 0.7)
            for name, deadline in base_goal.deadlines.items()
        }
    )
    assert new_goal.deadline < base_goal.deadline
    adapted, report, fresh = _tpch_costs(
        base_goal, new_goal, num_samples=40, queries_per_sample=8
    )
    assert [s.optimal_cost for s in adapted.samples] == [s.optimal_cost for s in fresh.samples]
    assert report.samples_kept == 0


# ---------------------------------------------------------------------------
# (b) SchedulingProblem.follow against expand
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("catalogue", sorted(CATALOGUES))
@pytest.mark.parametrize("kind", GOAL_KINDS)
def test_follow_agrees_with_expand_vertex_by_vertex(kind, catalogue):
    vm_types = CATALOGUES[catalogue]
    generator = ModelGenerator(TEMPLATES, vm_types=vm_types, config=_config(SEEDS[1]))
    goal = default_goal(kind, TEMPLATES)
    base = generator.generate(goal)
    assert base.skipped_samples == 0
    extractor = generator.extractor
    for workload, solution in zip(base.workloads, base.samples):
        problem = SchedulingProblem.for_workload(
            workload, vm_types, goal, generator.latency_model
        )
        followed = problem.follow(solution.path)
        assert followed is not None and len(followed) == len(solution.path) + 1

        node = problem.initial_node()
        expanded = [node]
        for label in solution.path:
            (node,) = [child for child in problem.expand(node) if child.action.label == label]
            expanded.append(node)

        for mine, theirs in zip(followed, expanded):
            assert mine.state == theirs.state
            assert mine.infra_cost == theirs.infra_cost
            assert mine.penalty == theirs.penalty
            assert mine.last_vm_finish == theirs.last_vm_finish
            assert mine.outcomes == theirs.outcomes
            assert mine.depth == theirs.depth
        assert followed[-1].state.is_goal()
        assert followed[-1].partial_cost == solution.optimal_cost
        assert np.array_equal(
            extractor.matrix(followed[:-1], problem), extractor.matrix(expanded[:-1], problem)
        )


def test_follow_returns_none_when_a_step_is_not_possible():
    picky = VMType(
        name="picky", startup_cost=0.05, running_cost=0.001, unsupported_templates=("T3",)
    )
    vm_types = VMTypeCatalog([single_vm_type_catalog()["t2.medium"], picky])
    problem = SchedulingProblem(
        {"T1": 1, "T3": 1},
        TEMPLATES,
        vm_types,
        default_goal("max", TEMPLATES),
        TemplateLatencyModel(TEMPLATES),
    )
    assert problem.follow(()) is not None
    complete = problem.follow(
        ("provision:picky", "assign:T1", "provision:t2.medium", "assign:T3")
    )
    assert complete is not None and complete[-1].state.is_goal()
    assert problem.follow(("assign:T1",)) is None  # no VM yet
    assert problem.follow(("provision:picky", "assign:T3")) is None  # unsupported
    assert problem.follow(("provision:picky", "assign:T1", "assign:T1")) is None  # none left
    assert problem.follow(("provision:picky", "assign:T2")) is None  # not in the workload
    assert problem.follow(("provision:t9.huge",)) is None  # unknown VM type
    assert problem.follow(("provision:picky", "assign:T9")) is None  # unknown template
    assert problem.follow(("launch:picky",)) is None  # unknown label


# ---------------------------------------------------------------------------
# (c) work guard on the benchmark-shaped set
# ---------------------------------------------------------------------------


def test_small_shifts_search_only_the_samples_whose_optimum_moved(monkeypatch):
    """``online_retrain``'s regime: 480 searches at the parent, 26 when written."""
    templates = tpch_templates(10)
    generator = ModelGenerator(
        templates,
        config=TrainingConfig(
            num_samples=40,
            queries_per_sample=8,
            seed=0,
            max_expansions=120_000,
            min_samples_leaf=5,
            max_depth=30,
        ),
    )
    goal = default_goal("max", templates)
    base = generator.generate(goal)

    searches = []
    original = trainer.astar_search
    monkeypatch.setattr(
        trainer,
        "astar_search",
        lambda *args, **kwargs: searches.append(1) or original(*args, **kwargs),
    )
    modeler = AdaptiveModeler(generator, base)
    per_retrain = []
    for step in range(1, 13):
        searches.clear()
        _, report = modeler.retrain(goal.shifted(5.0 * step))
        assert report.samples_retrained == 40
        assert report.samples_kept == 40 - len(searches)
        per_retrain.append(len(searches))
    assert sum(per_retrain) <= 40, per_retrain
    assert per_retrain.count(0) >= 8, per_retrain

    # Re-solving a goal already remembered (the Shift-only configuration).
    searches.clear()
    _, report = modeler.retrain(goal.shifted(35.0))
    assert (len(searches), report.samples_kept, report.total_expansions) == (0, 40, 0)


# ---------------------------------------------------------------------------
# (d) any n_jobs, (e) persistence
# ---------------------------------------------------------------------------

_WALL_CLOCK_KEYS = {"training_time", "search_time", "fit_time", "training_time_seconds"}


def _timeless(data):
    """``to_dict()`` output without its wall-clock fields."""
    if isinstance(data, dict):
        return {k: _timeless(v) for k, v in data.items() if k not in _WALL_CLOCK_KEYS}
    if isinstance(data, list):
        return [_timeless(entry) for entry in data]
    return data


def test_kept_and_searched_retrains_are_identical_for_any_n_jobs():
    goal = default_goal("max", TEMPLATES)
    # Drawn once: query ids come from a process-wide counter.
    workloads = training_workloads(TEMPLATES, _config(SEEDS[0]))
    outputs = []
    for n_jobs in (1, 2):
        with ModelGenerator(TEMPLATES, config=_config(SEEDS[0], n_jobs=n_jobs)) as generator:
            modeler = AdaptiveModeler(generator, generator.generate(goal, workloads=workloads))
            walked = [modeler.retrain(goal.shifted(shift)) for shift in (5.0, 30.0, 60.0, 30.0)]
        assert any(0 < report.samples_kept < NUM_SAMPLES for _, report in walked)
        outputs.append(
            [
                (_timeless(result.to_dict()), report.samples_kept, report.total_expansions)
                for result, report in walked
            ]
        )
    assert outputs[0] == outputs[1]


def test_path_round_trips_and_is_omitted_when_empty():
    solution = SampleSolution(
        {"T1": 2}, 1.5, 7, path=("provision:t2.medium", "assign:T1", "assign:T1")
    )
    data = json.loads(json.dumps(solution.to_dict()))
    assert data["path"] == list(solution.path)
    assert SampleSolution.from_dict(data) == solution
    without = SampleSolution({"T1": 2}, 1.5, 7)
    assert "path" not in without.to_dict()
    assert SampleSolution.from_dict(without.to_dict()).path == ()

    generator = ModelGenerator(TEMPLATES, config=_config(SEEDS[0]))
    result = generator.generate(default_goal("max", TEMPLATES))
    restored = TrainingResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert [s.path for s in restored.samples] == [s.path for s in result.samples]
    assert restored.to_dict()["version"] == 1


def test_v1_artifact_without_paths_loads_adapts_and_re_exports(tmp_path):
    (original,) = (SAVED_V1 / "models").glob("*.json")
    training = json.loads(original.read_text(encoding="utf-8"))["training"]
    assert all("path" not in sample for sample in training["samples"])
    assert json.dumps(TrainingResult.from_dict(training).to_dict()) == json.dumps(training)

    deployment = tmp_path / "deployment"
    shutil.copytree(SAVED_V1, deployment)
    service = WiSeDBService.load(deployment)
    try:
        goal = service.tenant("acme").spec.goal
        result, report = service.adapt("acme", goal.shifted(30.0))
        # Nothing to follow: every sample is searched (under h'), and keeps its path.
        assert report.samples_kept == 0 and report.total_expansions > 0
        assert all(sample.path for sample in result.samples)
        REACHED["v1_artifact_without_paths"] += 1
        fresh = service.tenant("acme").generator.generate(
            goal.shifted(30.0), workloads=result.workloads
        )
        _assert_costs_match_fresh(result, fresh)
        exported = {path.name: path for path in service.registry.export_json(tmp_path / "out")}
    finally:
        service.close()
    assert len(exported) == 2  # the v1 model and the adapted one
    assert exported[original.name].read_bytes() == original.read_bytes()


def test_the_sweeps_reached_every_situation():
    for situation in (
        "kept",
        "searched",
        "reference_other_than_base",
        "relaxed_goal_nothing_kept",
        "base_sample_with_cost_lower_bound",
        "v1_artifact_without_paths",
    ):
        assert REACHED[situation] > 0, (situation, dict(REACHED))
