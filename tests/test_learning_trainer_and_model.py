"""The training pipeline and the resulting decision models."""

from __future__ import annotations

import dataclasses

import pytest

from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import single_vm_type_catalog
from repro.config import TrainingConfig
from repro.exceptions import ModelError, TrainingError
from repro.learning.decision_tree import DecisionTreeClassifier
from repro.learning.features import FEATURE_FAMILIES, FeatureExtractor
from repro.learning.model import DecisionModel
from repro.learning.trainer import ModelGenerator, SampleSolver
from repro.runtime.batch import BatchScheduler
from repro.runtime.online import OnlineScheduler
from repro.search.actions import PlaceQuery, ProvisionVM
from repro.search.astar import astar_search
from repro.search.problem import ProblemTables, SchedulingProblem
from repro.sla.factory import default_goal
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.templates import tpch_templates
from repro.workloads.workload import Workload

from search_helpers import children
from oracles import validate_complete


def test_training_result_contents(trained_max, tiny_config):
    assert trained_max.num_examples > 0
    assert trained_max.model.metadata.tree_depth >= 1
    assert trained_max.model.metadata.num_training_samples == len(trained_max.samples)
    assert len(trained_max.workloads) == tiny_config.num_samples
    assert trained_max.training_time > 0.0
    assert trained_max.search_time > 0.0


def test_training_labels_are_valid_actions(trained_max, small_templates):
    valid_labels = {f"assign:{name}" for name in small_templates.names}
    valid_labels |= {"provision:t2.medium"}
    assert set(trained_max.training_set.labels()) <= valid_labels


def test_training_examples_per_sample_match_decisions(model_generator, max_goal):
    # Each sample contributes (#placements + #provisionings) examples, which is
    # at least the number of queries per sample.
    result = model_generator.generate(max_goal)
    assert result.num_examples >= sum(
        sum(sample.template_counts.values()) for sample in result.samples
    )


def test_solver_labels_every_decision_on_the_optimal_path(small_templates, max_goal):
    workload = Workload.from_counts(small_templates, {"T1": 2, "T2": 1})
    vm_types = single_vm_type_catalog()
    latency_model = TemplateLatencyModel(small_templates)
    extractor = FeatureExtractor(
        ProblemTables(small_templates, vm_types, max_goal, latency_model)
    )
    solver = SampleSolver(extractor, max_expansions=None)
    values, solution = solver.solve(workload)
    problem = SchedulingProblem.for_workload(workload, vm_types, max_goal, latency_model)
    result = astar_search(problem)
    assert solution.path == tuple(action.label for _, action in result.decisions())
    assert (solution.optimal_cost, solution.expansions) == (result.cost, result.expansions)
    # Per decision the vertex's wait time, penalty and two-float accumulator
    # summary; the pass writes the rows.
    assert values.shape == (len(solution.path), 4)
    rows, cost = extractor.matrix(problem, solution.path)
    assert cost == result.cost
    block = extractor.block([(solution.path, values, solution.template_counts)])
    assert block.tobytes() == rows.tobytes()
    assert solution.path[0].startswith("provision:")


def test_generate_requires_workloads(model_generator, max_goal):
    with pytest.raises(TrainingError):
        model_generator.generate(max_goal, workloads=[])


def test_generate_with_external_workloads(small_templates, max_goal, vm_catalog):
    generator = ModelGenerator(
        templates=small_templates,
        vm_types=vm_catalog,
        config=TrainingConfig.tiny(seed=3),
    )
    workloads = list(
        WorkloadGenerator(small_templates, seed=11).sample_workloads(10, 5)
    )
    result = generator.generate(max_goal, workloads=workloads)
    assert len(result.workloads) == 10
    assert result.model.goal is max_goal


def test_fit_costs_less_than_the_searches_that_feed_it(tpch10):
    """With one worker, search time is pure search; the C4.5 fit must cost less."""
    config = TrainingConfig(
        num_samples=40, queries_per_sample=8, seed=0, min_samples_leaf=5, max_depth=30
    )
    result = ModelGenerator(tpch10, config=config).generate(default_goal("max", tpch10))
    assert result.fit_time < result.search_time, (result.fit_time, result.search_time)


def test_model_decides_valid_actions(trained_max, small_templates, vm_catalog):
    model = trained_max.model
    problem = SchedulingProblem(
        template_counts={"T1": 2, "T2": 2, "T3": 1},
        templates=small_templates,
        vm_types=vm_catalog,
        goal=model.goal,
        latency_model=model.latency_model,
    )
    node = problem.initial_node()
    # First decision must be provisioning (no VM exists yet).
    before = model.stats.decisions
    action = model.decide(node, problem)
    assert isinstance(action, ProvisionVM)
    assert model.stats.decisions == before + 1


def test_model_never_stacks_empty_vms(trained_max, small_templates, vm_catalog):
    model = trained_max.model
    problem = SchedulingProblem(
        template_counts={"T1": 1},
        templates=small_templates,
        vm_types=vm_catalog,
        goal=model.goal,
        latency_model=model.latency_model,
    )
    node = problem.initial_node()
    provisioned = children(problem, node)[0]
    assert provisioned.state.last_vm()[1] == ()
    action = model.decide(provisioned, problem)
    assert isinstance(action, PlaceQuery)


def test_model_rejects_complete_states(trained_max, small_templates, vm_catalog):
    model = trained_max.model
    problem = SchedulingProblem(
        template_counts={"T1": 1},
        templates=small_templates,
        vm_types=vm_catalog,
        goal=model.goal,
        latency_model=model.latency_model,
    )
    node = problem.initial_node()
    node = children(problem, node)[0]
    node = children(problem, node)[0]
    assert node.state.is_goal()
    with pytest.raises(ModelError):
        model.decide(node, problem)


@pytest.mark.parametrize(
    "families",
    [
        ["wait_time", "have"],
        ["wait_time", "proportion_of", "supports", "have"],
        ["proportion_of", "wait_time", "supports", "cost_of", "have"],
    ],
    ids=["two-families", "no-cost-of", "reordered"],
)
def test_a_serialized_model_on_other_feature_families_is_refused(trained_max, families):
    """Every model decides on one row of all five families in a fixed order,
    so a model written on any other list cannot be rebuilt."""
    data = trained_max.model.to_dict()
    assert data["feature_families"] == list(FEATURE_FAMILIES)
    assert DecisionModel.from_dict(data)._extractor.feature_names == (
        trained_max.model._extractor.feature_names
    )
    with pytest.raises(ModelError, match="feature families"):
        DecisionModel.from_dict({**data, "feature_families": families})


def _one_leaf_model(label, templates, vm_types, goal):
    """A model whose tree is one leaf labelled *label*: every decision is *label*."""
    extractor = FeatureExtractor(
        ProblemTables(templates, vm_types, goal, TemplateLatencyModel(templates))
    )
    tree = DecisionTreeClassifier.from_dict(
        {
            "max_depth": 1,
            "min_samples_leaf": 1,
            "min_samples_split": 2,
            "min_gain": 0.0,
            "feature_names": list(extractor.feature_names),
            "classes": [label],
            "root": {"samples": 1, "class_counts": {label: 1}, "label": label},
        }
    )
    return DecisionModel(tree, extractor)


@pytest.mark.parametrize(
    "label, twin",
    [("assign:NOPE", "garbage"), ("provision:NOPE", "provision:t2.medium")],
)
def test_a_leaf_naming_no_action_of_the_specification_falls_back(
    label, twin, trained_max, model_generator, small_templates
):
    """A leaf naming a template or VM type outside the model's specification
    neither raises at adoption nor at a decision: ``assign:NOPE`` reads like an
    unparseable label, ``provision:NOPE`` like the default VM type, in batch
    and online scheduling, and every decision counts as a fallback."""
    templates = tpch_templates(3)
    vm_types = single_vm_type_catalog()
    goal = default_goal("max", templates)
    workload = WorkloadGenerator(templates, seed=5).uniform(5)
    model = _one_leaf_model(label, templates, vm_types, goal)
    model.compiled_evaluator()  # adoption builds every settler
    outcome = BatchScheduler(model).run(workload)
    validate_complete(outcome.schedule, workload)
    expected = BatchScheduler(_one_leaf_model(twin, templates, vm_types, goal)).run(workload)
    assert outcome.schedule.signature() == expected.schedule.signature()
    assert outcome.cost == expected.cost
    assert outcome.overhead.fallbacks == outcome.overhead.decisions > 0

    base = trained_max.model
    stream = WorkloadGenerator(small_templates, seed=6).uniform(6)
    online = {}
    for name in (label, twin):
        crafted = _one_leaf_model(name, small_templates, base.vm_types, base.goal)
        training = dataclasses.replace(trained_max, model=crafted)
        online[name] = OnlineScheduler(training, model_generator, wait_resolution=1e9).run(stream)
        validate_complete(online[name].schedule, stream)
    assert online[label].schedule.signature() == online[twin].schedule.signature()
    assert online[label].cost == online[twin].cost


def test_model_metadata(trained_max):
    assert trained_max.model.metadata.goal_kind == "max"


def test_trained_model_schedules_reasonably(trained_max, small_templates):
    """The learned strategy should avoid penalties on an easy workload."""
    model = trained_max.model
    workload = Workload.from_counts(small_templates, {"T1": 4, "T2": 4, "T3": 4})
    schedule = BatchScheduler(model).schedule(workload)
    validate_complete(schedule, workload)
    from repro.core.cost_model import CostModel

    breakdown = CostModel(model.latency_model).breakdown(schedule, model.goal)
    # The max-latency deadline is generous (10 minutes): a sensible learned
    # strategy packs queries without violating it.
    assert breakdown.penalty_cost == pytest.approx(0.0, abs=1.0)


def test_fit_from_training_set_ablation(model_generator, trained_max, max_goal):
    reduced = trained_max.training_set.without_features(
        [name for name in trained_max.training_set.feature_names if name.startswith("cost_of")]
    )
    model = model_generator.fit_from_training_set(max_goal, reduced)
    assert model.metadata.num_training_examples == len(reduced)
    assert model.tree._feature_names == reduced.feature_names
