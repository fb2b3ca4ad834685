"""Batch scheduling with trained decision models."""

from __future__ import annotations

import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import units
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import VMType, VMTypeCatalog, single_vm_type_catalog, t2_medium
from repro.core.cost_model import CostModel
from repro.learning.decision_tree import DecisionTreeClassifier
from repro.learning.features import FeatureExtractor
from repro.learning.model import DecisionModel
from repro.runtime.batch import BatchScheduler
from repro.search.actions import PlaceQuery
from repro.search.problem import ProblemTables, SchedulingProblem, VertexStepper
from repro.sla.factory import GOAL_KINDS, default_goal
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.templates import QueryTemplate
from repro.workloads.workload import Workload

from search_helpers import children
from oracles import OneQueryPerVMScheduler, state_of, validate_complete


def test_schedule_is_complete_and_valid(trained_max, small_templates):
    workload = WorkloadGenerator(small_templates, seed=3).uniform(20)
    schedule = BatchScheduler(trained_max.model).schedule(workload)
    validate_complete(schedule, workload)


def test_empty_workload_gives_empty_schedule(trained_max, small_templates):
    schedule = BatchScheduler(trained_max.model).schedule(Workload(small_templates, []))
    assert schedule.num_vms() == 0


def test_scheduling_is_deterministic(trained_max, small_templates):
    workload = WorkloadGenerator(small_templates, seed=4).uniform(15)
    first = BatchScheduler(trained_max.model).schedule(workload)
    second = BatchScheduler(trained_max.model).schedule(workload)
    assert first.signature() == second.signature()


def test_larger_workloads_use_more_vms(trained_max, small_templates):
    generator = WorkloadGenerator(small_templates, seed=5)
    small = BatchScheduler(trained_max.model).schedule(generator.uniform(6))
    large = BatchScheduler(trained_max.model).schedule(generator.uniform(40))
    assert large.num_vms() > small.num_vms()


def test_schedule_cost_is_reasonable(trained_max, small_templates):
    """The learned strategy should stay in the same ballpark as a per-query-per-VM plan."""
    workload = WorkloadGenerator(small_templates, seed=6).uniform(24)
    model = trained_max.model
    schedule = BatchScheduler(model).schedule(workload)
    cost_model = CostModel(model.latency_model)
    cost = cost_model.total_cost(schedule, model.goal)
    # Reference: every query on its own VM is penalty-free but pays maximal start-up fees.
    reference = OneQueryPerVMScheduler(model.vm_types.default).schedule(workload)
    reference_cost = cost_model.total_cost(reference, model.goal)
    assert cost <= reference_cost * 1.05


def test_unknown_template_mapped_to_closest(trained_max, small_templates):
    """Queries from unseen templates are scheduled as their closest known template."""
    foreign_templates = small_templates.extended(
        [QueryTemplate(name="T_new", base_latency=units.minutes(2.1))]
    )
    workload = Workload.from_template_names(
        foreign_templates, ["T1", "T_new", "T3", "T_new"]
    )
    schedule = BatchScheduler(trained_max.model).schedule(workload)
    validate_complete(schedule, workload)
    assert schedule.num_queries() == 4


def test_detailed_result_with_existing_vm(trained_max, small_templates, vm_catalog):
    workload = Workload.from_counts(small_templates, {"T1": 3, "T2": 2})
    result = BatchScheduler(trained_max.model).schedule_detailed(
        workload,
        existing_vm_type=vm_catalog.default,
        existing_vm_busy_time=units.minutes(1),
    )
    total = result.schedule.num_queries() + len(result.placed_on_existing_vm)
    assert total == len(workload)
    assert result.decisions >= len(workload)


#: ``2vm``'s small type cannot run T3, so a row holds infeasible prices too.
_SMALL = VMType(
    name="t2.small",
    running_cost=t2_medium().running_cost / 2,
    unsupported_templates=frozenset({"T3"}),
)
_CATALOGS = {
    "1vm": single_vm_type_catalog(),
    "2vm": VMTypeCatalog([t2_medium(), _SMALL]),
}


def _model_for(templates, vm_types, goal, rows=((0.0, "provision:t2.medium"),)):
    """A model of the specification whose tree splits ``wait_time`` only,
    fitted on ``(wait_time, label)`` *rows* (its tables depend only on the
    specification and goal)."""
    tables = ProblemTables(templates, vm_types, goal, TemplateLatencyModel(templates))
    tree = DecisionTreeClassifier(min_samples_leaf=1).fit(
        np.asarray([[wait] for wait, _ in rows]), [label for _, label in rows], ["wait_time"]
    )
    return DecisionModel(tree=tree, extractor=FeatureExtractor(tables))


@pytest.mark.parametrize("catalog", sorted(_CATALOGS))
@pytest.mark.parametrize("rate", (1.0, 1.5, 0.3))
@pytest.mark.parametrize("kind", GOAL_KINDS)
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    counts=st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3).filter(
        lambda values: sum(values) >= 2
    ),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_a_stepper_vertex_is_the_search_vertex_and_prices_like_it(
    small_templates, kind, rate, catalog, counts, seed
):
    """One stepper, one price, any vertex.

    Along a random search path, a :class:`VertexStepper` over the model's
    tables takes the same actions as the path.  At every vertex its running
    values equal the A* node's, its remaining counts, last VM, queue and
    queue counts equal the state rebuilt from the node's path
    (``oracles.state_of``), and the one Equation-2 body gives both the same
    row, to the bit and ``inf`` included (no VM yet, a type that cannot run
    T3, a template outside the specification), at any penalty rate.
    """
    vm_types = _CATALOGS[catalog]
    goal = default_goal(kind, small_templates, penalty_rate=rate)
    template_counts = {
        name: count for name, count in zip(small_templates.names, counts) if count
    }
    problem = SchedulingProblem(
        template_counts=template_counts,
        templates=small_templates,
        vm_types=vm_types,
        goal=goal,
        latency_model=TemplateLatencyModel(small_templates),
    )
    tables = _model_for(small_templates, vm_types, goal).tables
    stepper = VertexStepper(tables)
    stepper.reset(template_counts)
    names = small_templates.names + ("NOPE",)
    rng = random.Random(seed)
    node = problem.initial_node()
    priced = Counter()
    while True:
        assert stepper.infra_cost == node.infra_cost
        assert stepper.penalty == node.penalty
        assert stepper.last_vm_finish == node.last_vm_finish
        assert stepper.last_vm_index == node.last_vm_index
        vms, remaining = state_of(node, template_counts)
        assert tuple(stepper.remaining.items()) == remaining
        if not vms:
            assert stepper.last_vm_index == -1 and not stepper.queue
        else:
            assert (vm_types.names[stepper.last_vm_index], tuple(stepper.queue)) == vms[-1]
        assert stepper.queue_counts == Counter(stepper.queue)
        assert 0 not in stepper.queue_counts.values()
        row = [tables.placement_edge_cost(stepper, name) for name in names]
        assert row == [problem.placement_edge_cost(node, name) for name in names]
        priced.update("inf" if cost == float("inf") else "finite" for cost in row)
        successors = children(problem, node)
        if not successors:
            break
        node = rng.choice(successors)
        if isinstance(node.action, PlaceQuery):
            stepper.place(tables.tpl_id[node.action.template_name])
        else:
            stepper.provision(tables.vm_id[node.action.vm_type_name])
    assert priced["inf"] and priced["finite"]


def test_a_stepper_continues_a_rented_vm(small_templates, two_type_catalog):
    """``reset`` with a VM type starts on that VM, busy and seen empty, and a
    later ``reset`` without one forgets it."""
    goal = default_goal("max", small_templates)
    tables = _model_for(small_templates, two_type_catalog, goal).tables
    stepper = VertexStepper(tables)
    stepper.reset({"T2": 1, "T1": 2}, "t2.small", 30.0)
    assert list(stepper.remaining) == ["T1", "T2"]
    assert stepper.last_vm_index == tables.vm_id["t2.small"] and stepper.queue == []
    assert stepper.last_vm_finish == 30.0 and stepper.infra_cost == 0.0
    stepper.place(tables.tpl_id["T1"])
    assert stepper.last_vm_finish == 30.0 + tables.latency_table[1][0]
    assert stepper.infra_cost == tables.run_cost_table[1][0]
    assert stepper.queue_counts == {"T1": 1}
    stepper.reset({"T1": 1})
    assert stepper.last_vm_index == -1 and stepper.queue == []
    assert stepper.last_vm_finish == 0.0 and stepper.penalty == 0.0
    assert not stepper.queue_counts
    assert tables.placement_edge_cost(stepper, "T1") == float("inf")


def test_kernel_vertex_carries_the_penalty_of_its_placements(
    small_templates, two_type_catalog, monkeypatch
):
    """Every decision of a pass sees ``penalty`` equal to the goal's penalty of
    the placements made so far in that pass, for each goal kind at a rate
    where the float forms of Equation 2 could differ."""
    from repro.search.problem import LatencyOutcome

    real = DecisionModel.decide
    checked = []
    state = {}

    def decide(self, node):
        if isinstance(state["action"], PlaceQuery):
            state["outcomes"].append(
                LatencyOutcome(state["action"].template_name, node.last_vm_finish)
            )
        assert node.penalty == self.goal.penalty(state["outcomes"])
        checked.append(node.penalty)
        state["action"] = real(self, node)
        return state["action"]

    monkeypatch.setattr(DecisionModel, "decide", decide)
    workload = WorkloadGenerator(small_templates, seed=5).uniform(30)
    # Queue queries until a VM holds ten minutes of work, then rent another.
    rows = ((0.0, "assign:T2"), (units.minutes(10), "provision:t2.medium"))
    for kind in GOAL_KINDS:
        goal = default_goal(kind, small_templates, penalty_rate=0.3)
        model = _model_for(small_templates, two_type_catalog, goal, rows)
        for _ in range(2):  # a second pass starts from a fresh accumulator
            state.update(action=None, outcomes=[])
            BatchScheduler(model).schedule(workload)
    assert any(penalty > 0.0 for penalty in checked)


def test_scheduler_counts_decisions(trained_max, small_templates):
    workload = Workload.from_counts(small_templates, {"T1": 4, "T3": 2})
    result = BatchScheduler(trained_max.model).schedule_detailed(workload)
    # At least one decision per query (placements) and at least one provisioning.
    assert result.decisions >= len(workload) + 1
