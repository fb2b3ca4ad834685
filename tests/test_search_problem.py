"""The scheduling-graph problem: successors, reductions, edge costs, bounds."""

from __future__ import annotations

import pytest

from repro import units
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import (
    VMType,
    VMTypeCatalog,
    single_vm_type_catalog,
    t2_medium,
    two_vm_type_catalog,
)
from repro.search.actions import PlaceQuery, ProvisionVM
from repro.search.problem import ProblemTables, SchedulingProblem
from repro.search.strategy import strategy_from_spec
from repro.sla.average_latency import AverageLatencyGoal
from repro.sla.factory import default_goal
from repro.sla.max_latency import MaxLatencyGoal
from repro.workloads.templates import tpch_templates
from repro.workloads.workload import Workload

from oracles import state_of
from search_helpers import children


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
    return [child.action for child in children(problem, node)]


def test_initial_node_only_provisions(max_problem):
    node = max_problem.initial_node()
    actions = actions_of(max_problem, node)
    assert actions
    assert all(isinstance(action, ProvisionVM) for action in actions)


def test_no_second_empty_vm(max_problem):
    node = max_problem.initial_node()
    provisioned = children(max_problem, node)[0]
    actions = actions_of(max_problem, provisioned)
    # The most recent VM is empty, so only placements are offered.
    assert all(isinstance(action, PlaceQuery) for action in actions)


def test_placements_only_for_remaining_templates(max_problem):
    node = max_problem.initial_node()
    provisioned = children(max_problem, node)[0]
    placements = {a.template_name for a in actions_of(max_problem, provisioned)}
    assert placements == {"T1", "T3"}


def test_placement_decrements_and_tracks_outcomes(max_problem):
    node = max_problem.initial_node()
    provisioned = children(max_problem, node)[0]
    placed = next(
        child
        for child in children(max_problem, provisioned)
        if isinstance(child.action, PlaceQuery) and child.action.template_name == "T1"
    )
    assert placed.row.count == 2
    _, remaining = state_of(placed, max_problem.template_counts)
    assert remaining == placed.row.remaining == (("T1", 1), ("T3", 1))
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
        for child in children(problem, problem.initial_node())
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


#: A catalogue whose cheaper type cannot run T3, on 2 T1, 2 T2 and 3 T3: per
#: goal kind (``default_goal``), exact A*'s cost and path, and the vertices
#: it generated while provisioning children of a type that runs none of the
#: remaining templates were still generated (they are dead ends).
DEAD_END_CASES = {
    "max": (
        1.54,
        "provision:t2.small assign:T1 assign:T1 assign:T2 assign:T2 provision:t2.medium "
        "assign:T3 assign:T3 provision:t2.medium assign:T3",
        137,
    ),
    "per_query": (
        1.46,
        "provision:t2.small assign:T1 assign:T1 assign:T2 assign:T2 provision:t2.medium "
        "assign:T3 assign:T3 assign:T3",
        34,
    ),
    "average": (
        1.46,
        "provision:t2.small assign:T1 assign:T1 assign:T2 assign:T2 provision:t2.medium "
        "assign:T3 assign:T3 assign:T3",
        63,
    ),
    "percentile": (
        1.6633333333333333,
        "provision:t2.medium assign:T3 provision:t2.small assign:T1 assign:T2 assign:T2 "
        "provision:t2.medium assign:T3 provision:t2.medium assign:T1 assign:T3",
        251,
    ),
}


@pytest.mark.parametrize("kind", DEAD_END_CASES)
def test_no_provisioning_child_is_a_dead_end(kind, small_templates):
    small = VMType(
        name="t2.small",
        running_cost=t2_medium().running_cost / 2,
        unsupported_templates=frozenset({"T3"}),
    )
    catalog = VMTypeCatalog([t2_medium(), small])
    problem = SchedulingProblem(
        template_counts={"T1": 2, "T2": 2, "T3": 3},
        templates=small_templates,
        vm_types=catalog,
        goal=default_goal(kind, small_templates),
        latency_model=TemplateLatencyModel(small_templates),
    )
    popped = []
    expand = problem.expand

    def probe(node):
        popped.append(node)
        return expand(node)

    problem.expand = probe  # type: ignore[method-assign]
    result = strategy_from_spec("astar").search(problem)
    dead_ends = 0
    for node in popped:
        vms, remaining = state_of(node, problem.template_counts)
        if vms and not vms[-1][1]:
            runs = catalog[vms[-1][0]].supports
            dead_ends += not any(runs(name) for name, _ in remaining)
    assert dead_ends == 0
    cost, labels, generated_with_dead_ends = DEAD_END_CASES[kind]
    assert result.cost == cost
    assert " ".join(node.action.label for node in result.path()[1:]) == labels
    assert result.generated < generated_with_dead_ends


def test_goal_node_has_no_expansion_requirement(max_problem):
    # Walk a full greedy path; the goal node has nothing left.
    node = max_problem.initial_node()
    while node.row.count:
        node = children(max_problem, node)[0]
    assert state_of(node, max_problem.template_counts)[1] == ()
    assert node.partial_cost > 0.0


@pytest.mark.parametrize("catalog", [single_vm_type_catalog(), two_vm_type_catalog(["T3"])])
def test_every_node_carries_the_key_of_its_state(small_templates, max_goal, catalog):
    """The key fields agree with the state rebuilt from the node's path."""
    problem = SchedulingProblem(
        template_counts={"T1": 2, "T2": 1, "T3": 1},
        templates=small_templates,
        vm_types=catalog,
        goal=max_goal,
        latency_model=TemplateLatencyModel(small_templates),
    )
    counts = problem.template_counts
    nodes = [problem.initial_node()]
    for node in nodes:
        nodes.extend(children(problem, node))
        vms, remaining = state_of(node, counts)
        assert node.row.remaining == remaining
        assert node.row.count == sum(count for _, count in remaining)
        if not vms:
            assert (node.last_vm_index, node.last_template) == (-1, -1)
            continue
        vm_type_name, queue = vms[-1]
        assert catalog.names[node.last_vm_index] == vm_type_name
        assert node.last_template == (small_templates.names.index(queue[-1]) if queue else -1)
    assert len(nodes) > 20


def test_placement_edge_cost_matches_equation_2(max_problem):
    node = max_problem.initial_node()
    provisioned = children(max_problem, node)[0]
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
    provisioned = children(problem, problem.initial_node())[0]
    cost = problem.placement_edge_cost(provisioned, "T3")
    # T3 runs for 4 minutes against a 1-minute deadline: 3 minutes of penalty.
    expected_penalty = units.minutes(3) * tight_goal.penalty_rate
    assert cost == pytest.approx(
        t2_medium().running_cost * units.minutes(4) + expected_penalty
    )


def test_placement_edge_cost_infinite_without_vm(max_problem):
    node = max_problem.initial_node()
    assert max_problem.placement_edge_cost(node, "T1") == float("inf")


def test_heuristic_is_cheapest_remaining_execution(max_problem):
    # On a fresh VM all 6 minutes of work fit the 10-minute deadline, so the
    # f-value is the start-up fee plus Equation 3 and nothing else.
    provisioned = children(max_problem, max_problem.initial_node())[0]
    vm = t2_medium()
    expected = vm.startup_cost + vm.running_cost * units.minutes(1 + 1 + 4)
    assert provisioned.priority == pytest.approx(expected)


def test_priority_includes_penalty_for_monotonic(max_problem):
    node = max_problem.initial_node()
    assert node.priority >= t2_medium().running_cost * units.minutes(1 + 1 + 4)


def test_priority_for_goal_node_is_partial_cost(max_problem):
    node = max_problem.initial_node()
    while node.row.count:
        node = children(max_problem, node)[0]
    assert max_problem.priority(node) == pytest.approx(node.partial_cost)


def test_ordering_reduction_prunes_permutations(small_templates, max_goal):
    problem = SchedulingProblem(
        template_counts={"T1": 1, "T2": 1},
        templates=small_templates,
        vm_types=single_vm_type_catalog(),
        goal=max_goal,
        latency_model=TemplateLatencyModel(small_templates),
    )
    provisioned = children(problem, problem.initial_node())[0]
    # Place the longer template first; within the order-free horizon the
    # shorter template may then not be appended behind it.
    placed_long = next(
        child
        for child in children(problem, provisioned)
        if isinstance(child.action, PlaceQuery) and child.action.template_name == "T2"
    )
    follow_up = {a.template_name for a in actions_of(problem, placed_long) if isinstance(a, PlaceQuery)}
    assert "T1" not in follow_up
    # The reverse order (short first, long second) is allowed.
    placed_short = next(
        child
        for child in children(problem, provisioned)
        if isinstance(child.action, PlaceQuery) and child.action.template_name == "T1"
    )
    follow_up_short = {
        a.template_name for a in actions_of(problem, placed_short) if isinstance(a, PlaceQuery)
    }
    assert "T2" in follow_up_short


def test_average_goal_priority_uses_the_future_cost_lower_bound(small_templates):
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


@pytest.mark.parametrize("catalog", [single_vm_type_catalog, two_vm_type_catalog])
def test_every_row_folds_its_sums_left_to_right(catalog):
    """A row's ``execution`` (Equation 3) and ``work`` are the plain ``+=``
    fold of their per-template terms in name order, on every interpreter.

    Python 3.12 compensates ``sum()``: over these 1,024 multisets it moves
    the last bit of 223 of them, and with it f-value ties.
    """
    templates = tpch_templates(10)
    tables = ProblemTables(
        templates, catalog(), default_goal("max", templates), TemplateLatencyModel(templates)
    )
    problem = SchedulingProblem.from_tables(tables, {name: 1 for name in templates.names})
    for code in range(2 ** len(templates)):
        row = problem.row(code)
        execution = work = 0.0
        for name, left in row.remaining:
            execution += tables.cheapest_execution[name] * left
            work += tables.cheapest_time[name] * left
        assert (row.execution, row.work) == (execution, work), row.remaining
