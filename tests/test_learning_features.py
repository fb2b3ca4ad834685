"""Feature extraction from scheduling-graph vertices.

:func:`features_of` is the name → value reference the extractor's rows are
held to: each Section 4.4 family computed straight from its definition, in the
canonical column order, sharing no code with :mod:`repro.learning.features`.
It reads a search node and the state rebuilt from the node's path
(``oracles.state_of``); the extractor reads the stepper vertex that
``ProblemTables.walk`` steps to the same place.
"""

from __future__ import annotations

import pytest

from repro import units
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import VMType, VMTypeCatalog, single_vm_type_catalog, t2_medium
from repro.learning.features import (
    FEATURE_FAMILIES,
    FeatureExtractor,
    INFEASIBLE_COST,
    cost_feature,
    have_feature,
    proportion_feature,
    supports_feature,
    wait_time_feature,
)
from repro.search.problem import ProblemTables, SchedulingProblem

from oracles import state_of
from search_helpers import at_node, children


def features_of(node, problem) -> dict[str, float]:
    """All five feature families of the search node *node*, by name, in the extractor's order."""
    vms, remaining = state_of(node, problem.template_counts)
    last = vms[-1] if vms else None
    queue = last[1] if last is not None else ()
    unassigned = {name for name, count in remaining if count}
    features = {"wait_time": node.last_vm_finish}
    for name in problem._tables.templates.names:
        features[f"proportion_of[{name}]"] = (
            queue.count(name) / len(queue) if queue else 0.0
        )
        features[f"supports[{name}]"] = (
            1.0 if last is not None and problem._tables.vm_types[last[0]].supports(name) else 0.0
        )
        cost = problem.placement_edge_cost(node, name)
        features[f"cost_of[{name}]"] = INFEASIBLE_COST if cost == float("inf") else cost
        features[f"have[{name}]"] = 1.0 if name in unassigned else 0.0
    return features


def _row_features(extractor, node, problem) -> dict[str, float]:
    """The extractor's row at *node* by name, held to :func:`features_of`."""
    width = len(extractor.feature_names)
    row = at_node(problem, node, lambda vertex: extractor.extract_into(vertex, [0.0] * width))
    features = dict(zip(extractor.feature_names, row))
    assert features == features_of(node, problem)
    return features


@pytest.fixture()
def problem(small_templates, max_goal):
    return SchedulingProblem(
        template_counts={"T1": 2, "T2": 1},
        templates=small_templates,
        vm_types=single_vm_type_catalog(),
        goal=max_goal,
        latency_model=TemplateLatencyModel(small_templates),
    )


@pytest.fixture()
def extractor(small_templates, max_goal):
    return FeatureExtractor(
        ProblemTables(
            small_templates,
            single_vm_type_catalog(),
            max_goal,
            TemplateLatencyModel(small_templates),
        )
    )


def test_feature_names_cover_all_templates(extractor, small_templates):
    names = extractor.feature_names
    assert wait_time_feature() in names
    for template in small_templates.names:
        assert proportion_feature(template) in names
        assert supports_feature(template) in names
        assert cost_feature(template) in names
        assert have_feature(template) in names
    # 1 wait-time feature plus 4 per template.
    assert len(names) == 1 + 4 * len(small_templates)


def test_initial_vertex_features(extractor, problem):
    node = problem.initial_node()
    features = _row_features(extractor, node, problem)
    assert features[wait_time_feature()] == 0.0
    assert features[have_feature("T1")] == 1.0
    assert features[have_feature("T3")] == 0.0
    # No VM yet: nothing is supported and placements are infeasible.
    assert features[supports_feature("T1")] == 0.0
    assert features[cost_feature("T1")] == INFEASIBLE_COST
    assert features[proportion_feature("T1")] == 0.0


def test_features_after_placements(extractor, problem):
    node = problem.initial_node()
    node = children(problem, node)[0]  # provision
    placed = next(
        child for child in children(problem, node) if getattr(child.action, "template_name", None) == "T1"
    )
    features = _row_features(extractor, placed, problem)
    assert features[wait_time_feature()] == pytest.approx(units.minutes(1))
    assert features[proportion_feature("T1")] == 1.0
    assert features[proportion_feature("T2")] == 0.0
    assert features[supports_feature("T2")] == 1.0
    assert features[have_feature("T1")] == 1.0  # one T1 instance still unassigned
    # Placement cost of T2 equals its execution cost (no penalty yet).
    expected = t2_medium().running_cost * units.minutes(2)
    assert features[cost_feature("T2")] == pytest.approx(expected)


def test_proportions_sum_to_one_on_mixed_queue(extractor, problem):
    node = problem.initial_node()
    node = children(problem, node)[0]
    # Place T1 then T2 on the same VM.
    node = next(c for c in children(problem, node) if getattr(c.action, "template_name", None) == "T1")
    node = next(c for c in children(problem, node) if getattr(c.action, "template_name", None) == "T2")
    features = _row_features(extractor, node, problem)
    total = sum(features[proportion_feature(t)] for t in ("T1", "T2", "T3"))
    assert total == pytest.approx(1.0)
    assert features[proportion_feature("T1")] == pytest.approx(0.5)


def test_unsupported_template_features(small_templates, max_goal):
    limited = VMType(name="limited", unsupported_templates={"T2"})
    catalog = VMTypeCatalog([t2_medium(), limited])
    problem = SchedulingProblem(
        template_counts={"T1": 1, "T2": 1},
        templates=small_templates,
        vm_types=catalog,
        goal=max_goal,
        latency_model=TemplateLatencyModel(small_templates),
    )
    extractor = FeatureExtractor(
        ProblemTables(small_templates, catalog, max_goal, TemplateLatencyModel(small_templates))
    )
    on_limited = next(
        child
        for child in children(problem, problem.initial_node())
        if getattr(child.action, "vm_type_name", None) == "limited"
    )
    features = _row_features(extractor, on_limited, problem)
    assert features[supports_feature("T2")] == 0.0
    assert features[cost_feature("T2")] == INFEASIBLE_COST
    assert features[supports_feature("T1")] == 1.0


def test_vector_ordering(extractor, problem):
    node = children(problem, problem.initial_node())[0]
    features = features_of(node, problem)
    width = len(extractor.feature_names)
    row = at_node(problem, node, lambda vertex: extractor.extract_into(vertex, [0.0] * width))
    assert tuple(features) == extractor.feature_names
    assert row == list(features.values())


def test_all_families_constant():
    assert set(FEATURE_FAMILIES) == {"wait_time", "proportion_of", "supports", "cost_of", "have"}
