"""The incremental-penalty search core agrees with the batch definitions.

The A* search carries a copy-on-write violation accumulator per vertex and
computes node penalties, f-values, and Equation-2 edge weights from penalty
*deltas* (see :mod:`repro.search.problem`).  These tests pin the contract that
makes that safe:

* for every goal kind and any placement sequence, the accumulator-backed
  penalty equals ``goal.penalty(outcomes)`` evaluated from scratch — bit for
  bit, not approximately;
* the f-value ``expand`` prices from the parent equals ``problem.priority``;
* branch copy-on-write isolation: mutating a branch never disturbs its parent;
* training output (training set and fitted tree) is identical for ``n_jobs=1``
  and ``n_jobs=4``.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import single_vm_type_catalog, two_vm_type_catalog
from repro.config import TrainingConfig
from repro.learning.trainer import ModelGenerator, TrainingResult
from repro.search.problem import SchedulingProblem
from repro.sla.average_latency import AverageLatencyGoal
from repro.sla.max_latency import MaxLatencyGoal
from repro.sla.per_query import PerQueryDeadlineGoal
from repro.sla.percentile import PercentileGoal
from repro.workloads.templates import QueryTemplate, TemplateSet

from oracles import state_of
from search_helpers import children


TEMPLATES = TemplateSet(
    [
        QueryTemplate(name="T1", base_latency=units.minutes(1)),
        QueryTemplate(name="T2", base_latency=units.minutes(2)),
        QueryTemplate(name="T3", base_latency=units.minutes(4)),
    ]
)


def goal_of(kind: str, deadline: float):
    if kind == "max":
        return MaxLatencyGoal(deadline=deadline)
    if kind == "per_query":
        return PerQueryDeadlineGoal(
            {"T1": deadline, "T2": 1.5 * deadline, "T3": 2.0 * deadline}
        )
    if kind == "average":
        return AverageLatencyGoal(deadline=deadline)
    if kind == "percentile":
        return PercentileGoal(percent=90.0, deadline=deadline)
    raise AssertionError(kind)


GOAL_KINDS = ("max", "per_query", "average", "percentile")


@given(
    kind=st.sampled_from(GOAL_KINDS),
    deadline=st.floats(min_value=30.0, max_value=1200.0),
    latencies=st.lists(
        st.tuples(
            st.sampled_from(("T1", "T2", "T3")),
            st.floats(min_value=0.0, max_value=3600.0),
        ),
        max_size=12,
    ),
)
@settings(max_examples=120, deadline=None)
def test_property_accumulator_matches_batch_penalty(kind, deadline, latencies):
    """Accumulated violation equals the batch definition for any add sequence."""
    from repro.search.problem import LatencyOutcome

    goal = goal_of(kind, deadline)
    accumulator = goal.accumulator()
    outcomes = []
    for template_name, latency in latencies:
        # The hypothetical (non-mutating) delta must agree with the batch
        # penalty of outcomes + [candidate] before the candidate is recorded.
        hypothetical = goal.penalty_rate * accumulator.violation_with(
            template_name, latency
        )
        batch_hypothetical = goal.penalty(
            outcomes + [LatencyOutcome(template_name, latency)]
        )
        assert hypothetical == batch_hypothetical

        accumulator = accumulator.branch()
        accumulator.add(template_name, latency)
        outcomes.append(LatencyOutcome(template_name, latency))
        assert goal.penalty_rate * accumulator.violation() == goal.penalty(outcomes)


@given(
    kind=st.sampled_from(GOAL_KINDS),
    deadline=st.floats(min_value=60.0, max_value=900.0),
    choices=st.lists(st.integers(min_value=0, max_value=7), max_size=10),
    two_types=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_property_search_nodes_match_batch_penalty_and_priority(
    kind, deadline, choices, two_types
):
    """Random walks through expand(): node penalties and f-values are exact."""
    goal = goal_of(kind, deadline)
    vm_types = two_vm_type_catalog(["T3"]) if two_types else single_vm_type_catalog()
    problem = SchedulingProblem(
        template_counts={"T1": 2, "T2": 2, "T3": 1},
        templates=TEMPLATES,
        vm_types=vm_types,
        goal=goal,
        latency_model=TemplateLatencyModel(TEMPLATES),
    )
    node = problem.initial_node()
    for choice in choices:
        successors = children(problem, node)
        if not successors:
            break
        node = successors[choice % len(successors)]
        # Batch penalty over the node's full outcome history.
        assert node.penalty == goal.penalty(node.outcomes)
        # The f-value expand() priced from the parent equals priority()'s.
        assert node.priority == problem.priority(node)
        # Equation-2 edge weights agree with the batch delta definition.
        vms, remaining = state_of(node, problem.template_counts)
        for template_name, _ in remaining:
            cost = problem.placement_edge_cost(node, template_name)
            if cost == float("inf"):
                continue
            assert vms
            vm_type = vm_types[vms[-1][0]]
            execution = TemplateLatencyModel(TEMPLATES).latency(template_name, vm_type)
            from repro.search.problem import LatencyOutcome

            batch = goal.penalty(
                node.outcomes
                + (LatencyOutcome(template_name, node.last_vm_finish + execution),)
            )
            assert cost == vm_type.running_cost * execution + (batch - node.penalty)


def test_branch_copy_on_write_isolation():
    """Mutating a branch leaves the parent accumulator untouched (all kinds)."""
    for kind in GOAL_KINDS:
        goal = goal_of(kind, deadline=100.0)
        parent = goal.accumulator()
        parent.add("T1", 150.0)
        before = parent.violation()
        child = parent.branch()
        child.add("T2", 400.0)
        assert parent.violation() == before
        assert child.violation() >= before
        # And the parent can still be extended independently afterwards.
        parent.add("T3", 90.0)
        grandchild = child.branch()
        grandchild.add("T1", 500.0)
        assert child.violation() != grandchild.violation() or kind in (
            "average",
            "percentile",
        )


def _training_fingerprint(result: TrainingResult) -> str:
    digest = hashlib.sha256()
    matrix, labels = result.training_set.to_matrix()
    for label, row in zip(labels, matrix.tolist()):
        digest.update(label.encode())
        for value in row:
            digest.update(repr(value).encode())
    digest.update(result.model.tree.to_text().encode())
    for sample in result.samples:
        digest.update(repr(sample.optimal_cost).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("kind", ["max", "average"])
def test_parallel_training_is_deterministic(kind):
    """n_jobs=1 and n_jobs=4 produce identical training sets and trees."""
    goal = goal_of(kind, deadline=units.minutes(6))
    fingerprints = {}
    for n_jobs in (1, 4):
        generator = ModelGenerator(
            TEMPLATES, config=TrainingConfig.tiny(seed=11).with_n_jobs(n_jobs)
        )
        result = generator.generate(goal)
        fingerprints[n_jobs] = _training_fingerprint(result)
    assert fingerprints[1] == fingerprints[4]


def test_parallel_adaptive_retraining_is_deterministic():
    """Adaptive retraining is also bit-identical across worker counts."""
    from repro.adaptive.retraining import AdaptiveModeler

    goal = goal_of("max", deadline=units.minutes(8))
    results = {}
    for n_jobs in (1, 4):
        generator = ModelGenerator(
            TEMPLATES, config=TrainingConfig.tiny(seed=5).with_n_jobs(n_jobs)
        )
        base = generator.generate(goal)
        modeler = AdaptiveModeler(generator, base)
        adapted, report = modeler.retrain(goal.with_deadline(units.minutes(6)))
        results[n_jobs] = (
            _training_fingerprint(adapted),
            report.samples_retrained,
            report.total_expansions,
        )
    assert results[1] == results[4]
