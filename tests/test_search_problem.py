"""The scheduling-graph problem: successors, reductions, edge costs, bounds."""

from __future__ import annotations

import pytest

from repro import units
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import VMType, VMTypeCatalog, single_vm_type_catalog, t2_medium
from repro.search.actions import PlaceQuery, ProvisionVM
from repro.search.problem import SchedulingProblem
from repro.sla.average_latency import AverageLatencyGoal
from repro.sla.max_latency import MaxLatencyGoal
from repro.workloads.workload import Workload


@pytest.fixture()
def max_problem(small_templates, max_goal):
    return SchedulingProblem(
        template_counts={"T1": 2, "T3": 1},
        templates=small_templates,
        vm_types=single_vm_type_catalog(),
        goal=max_goal,
        latency_model=TemplateLatencyModel(small_templates),
    )


def actions_of(problem, node):
    return [child.action for child in problem.expand(node)]


def test_initial_node_only_provisions(max_problem):
    node = max_problem.initial_node()
    actions = actions_of(max_problem, node)
    assert actions
    assert all(isinstance(action, ProvisionVM) for action in actions)


def test_no_second_empty_vm(max_problem):
    node = max_problem.initial_node()
    provisioned = max_problem.expand(node)[0]
    actions = actions_of(max_problem, provisioned)
    # The most recent VM is empty, so only placements are offered.
    assert all(isinstance(action, PlaceQuery) for action in actions)


def test_placements_only_for_remaining_templates(max_problem):
    node = max_problem.initial_node()
    provisioned = max_problem.expand(node)[0]
    placements = {a.template_name for a in actions_of(max_problem, provisioned)}
    assert placements == {"T1", "T3"}


def test_placement_decrements_and_tracks_outcomes(max_problem):
    node = max_problem.initial_node()
    provisioned = max_problem.expand(node)[0]
    placed = next(
        child
        for child in max_problem.expand(provisioned)
        if isinstance(child.action, PlaceQuery) and child.action.template_name == "T1"
    )
    assert placed.state.remaining_total() == 2
    assert placed.last_vm_finish == pytest.approx(units.minutes(1))
    assert len(placed.outcomes) == 1
    assert placed.infra_cost > provisioned.infra_cost


def test_unsupported_templates_are_not_offered(small_templates, max_goal):
    limited = VMType(name="limited", unsupported_templates={"T3"})
    problem = SchedulingProblem(
        template_counts={"T3": 1, "T1": 1},
        templates=small_templates,
        vm_types=VMTypeCatalog([t2_medium(), limited]),
        goal=max_goal,
        latency_model=TemplateLatencyModel(small_templates),
    )
    on_limited = next(
        child
        for child in problem.expand(problem.initial_node())
        if isinstance(child.action, ProvisionVM) and child.action.vm_type_name == "limited"
    )
    placements = {
        a.template_name
        for a in actions_of(problem, on_limited)
        if isinstance(a, PlaceQuery)
    }
    assert placements == {"T1"}


def test_no_vm_type_supports_template_rejected(small_templates, max_goal):
    from repro.exceptions import SpecificationError

    limited = VMType(name="limited", unsupported_templates={"T3"})
    with pytest.raises(SpecificationError):
        SchedulingProblem(
            template_counts={"T3": 1},
            templates=small_templates,
            vm_types=VMTypeCatalog([limited]),
            goal=max_goal,
            latency_model=TemplateLatencyModel(small_templates),
        )


def test_goal_node_has_no_expansion_requirement(max_problem):
    # Walk a full greedy path; the goal node should report is_goal.
    node = max_problem.initial_node()
    while not node.state.is_goal():
        node = max_problem.expand(node)[0]
    assert node.state.is_goal()
    assert node.partial_cost > 0.0


def test_placement_edge_cost_matches_equation_2(max_problem):
    node = max_problem.initial_node()
    provisioned = max_problem.expand(node)[0]
    vm = t2_medium()
    cost = max_problem.placement_edge_cost(provisioned, "T1")
    # No penalty within the deadline: cost is execution time times rental rate.
    assert cost == pytest.approx(vm.running_cost * units.minutes(1))


def test_placement_edge_cost_includes_penalty(small_templates):
    tight_goal = MaxLatencyGoal(deadline=units.minutes(1))
    problem = SchedulingProblem(
        template_counts={"T3": 1},
        templates=small_templates,
        vm_types=single_vm_type_catalog(),
        goal=tight_goal,
        latency_model=TemplateLatencyModel(small_templates),
    )
    provisioned = problem.expand(problem.initial_node())[0]
    cost = problem.placement_edge_cost(provisioned, "T3")
    # T3 runs for 4 minutes against a 1-minute deadline: 3 minutes of penalty.
    expected_penalty = units.minutes(3) * tight_goal.penalty_rate
    assert cost == pytest.approx(
        t2_medium().running_cost * units.minutes(4) + expected_penalty
    )


def test_placement_edge_cost_infinite_without_vm(max_problem):
    node = max_problem.initial_node()
    assert max_problem.placement_edge_cost(node, "T1") == float("inf")


def test_startup_edge_cost(max_problem):
    assert max_problem.startup_edge_cost("t2.medium") == pytest.approx(
        t2_medium().startup_cost
    )


def test_heuristic_is_cheapest_remaining_execution(max_problem):
    # On a fresh VM all 6 minutes of work fit the 10-minute deadline, so the
    # f-value is the start-up fee plus Equation 3 and nothing else.
    provisioned = max_problem.expand(max_problem.initial_node())[0]
    vm = t2_medium()
    expected = vm.startup_cost + vm.running_cost * units.minutes(1 + 1 + 4)
    assert provisioned.priority == pytest.approx(expected)


def test_priority_includes_penalty_for_monotonic(max_problem):
    node = max_problem.initial_node()
    assert node.priority >= t2_medium().running_cost * units.minutes(1 + 1 + 4)


def test_priority_for_goal_node_is_partial_cost(max_problem):
    node = max_problem.initial_node()
    while not node.state.is_goal():
        node = max_problem.expand(node)[0]
    assert max_problem.priority(node) == pytest.approx(node.partial_cost)


def test_ordering_reduction_prunes_permutations(small_templates, max_goal):
    problem = SchedulingProblem(
        template_counts={"T1": 1, "T2": 1},
        templates=small_templates,
        vm_types=single_vm_type_catalog(),
        goal=max_goal,
        latency_model=TemplateLatencyModel(small_templates),
    )
    provisioned = problem.expand(problem.initial_node())[0]
    # Place the longer template first; within the order-free horizon the
    # shorter template may then not be appended behind it.
    placed_long = next(
        child
        for child in problem.expand(provisioned)
        if isinstance(child.action, PlaceQuery) and child.action.template_name == "T2"
    )
    follow_up = {a.template_name for a in actions_of(problem, placed_long) if isinstance(a, PlaceQuery)}
    assert "T1" not in follow_up
    # The reverse order (short first, long second) is allowed.
    placed_short = next(
        child
        for child in problem.expand(provisioned)
        if isinstance(child.action, PlaceQuery) and child.action.template_name == "T1"
    )
    follow_up_short = {
        a.template_name for a in actions_of(problem, placed_short) if isinstance(a, PlaceQuery)
    }
    assert "T2" in follow_up_short


def test_average_goal_priority_uses_violation_lower_bound(small_templates):
    goal = AverageLatencyGoal(deadline=units.minutes(1))
    problem = SchedulingProblem(
        template_counts={"T3": 3},
        templates=small_templates,
        vm_types=single_vm_type_catalog(),
        goal=goal,
        latency_model=TemplateLatencyModel(small_templates),
    )
    node = problem.initial_node()
    # Even with nothing assigned, the final average of three 4-minute queries
    # must exceed the 1-minute deadline by at least 3 minutes.
    assert node.priority >= goal.penalty_rate * units.minutes(3)


def test_for_workload_constructor(small_templates, max_goal):
    workload = Workload.from_counts(small_templates, {"T1": 2})
    problem = SchedulingProblem.for_workload(
        workload,
        single_vm_type_catalog(),
        max_goal,
        TemplateLatencyModel(small_templates),
    )
    assert problem.template_counts == {"T1": 2}
    assert sum(problem.template_counts.values()) == 2


def test_unknown_template_in_counts_rejected(small_templates, max_goal):
    from repro.exceptions import SpecificationError

    with pytest.raises(SpecificationError):
        SchedulingProblem(
            template_counts={"T9": 1},
            templates=small_templates,
            vm_types=single_vm_type_catalog(),
            goal=max_goal,
            latency_model=TemplateLatencyModel(small_templates),
        )
