"""One block over many paths is the per-vertex rows of each path, stacked.

Training writes a whole pass's feature rows at once: each sample's solve
records only four floats per vertex — wait time, penalty and the goal
accumulator's two-float summary (``FeatureExtractor.vertex_values``) — and
``FeatureExtractor.block`` derives every other column from the labels and
the template counts, over all the paths laid end to end, pricing
``cost-of-X`` with the accumulator's array twin of ``violation_with``.  The
oracle is the one-vertex definition, ``extract_into``, at every vertex
``ProblemTables.walk`` steps through.  Rows are compared as bytes.

Hypothesis draws the paths: any order of provisionings and placements a walk
accepts, on workloads that lack some templates, with several VMs per path,
empty VMs in the middle and at the end, over the four goal kinds (tightened,
so placements pay penalties) and two catalogues, the second with a type that
cannot run ``T3``.  The extractor's tables list the catalogue either in the
problem's order or reversed, since ``supports`` must be looked up by the type's
name.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import VMType, VMTypeCatalog, single_vm_type_catalog
from repro.learning.features import FeatureExtractor
from repro.search.actions import PlaceQuery, ProvisionVM
from repro.search.problem import ProblemTables, SchedulingProblem
from repro.sla.factory import GOAL_KINDS, default_goal
from repro.workloads.templates import QueryTemplate, TemplateSet

from search_helpers import walk

TEMPLATES = TemplateSet(
    [
        QueryTemplate(name="T1", base_latency=units.minutes(1)),
        QueryTemplate(name="T2", base_latency=units.minutes(2)),
        QueryTemplate(name="T3", base_latency=units.minutes(4)),
        QueryTemplate(name="T4", base_latency=units.minutes(3.3)),
    ]
)
PICKY = VMType(
    name="picky", startup_cost=0.05, running_cost=0.001, unsupported_templates=("T3",)
)
CATALOGUES = {
    "1vm": single_vm_type_catalog(),
    "2vm": VMTypeCatalog([single_vm_type_catalog()["t2.medium"], PICKY]),
}
LATENCY = TemplateLatencyModel(TEMPLATES)


def _reversed(catalogue: VMTypeCatalog) -> VMTypeCatalog:
    return VMTypeCatalog(list(catalogue)[::-1])


def _extractor(catalogue: VMTypeCatalog, goal) -> FeatureExtractor:
    """An extractor whose tables list *catalogue* (perhaps not the problem's order)."""
    return FeatureExtractor(ProblemTables(TEMPLATES, catalogue, goal, LATENCY))


def _oracle(extractor, problem, labels) -> tuple[np.ndarray, float | None]:
    """``extract_into`` at every vertex of the walk along *labels*, and its cost."""
    rows = np.empty((len(labels), len(extractor.feature_names)))
    cost = walk(
        problem, labels, lambda index, vertex: extractor.extract_into(vertex, problem, rows[index])
    )
    return rows, cost


@st.composite
def _paths(draw, catalogue: VMTypeCatalog):
    """``(template counts, labels)`` of a path a walk completes."""
    names = TEMPLATES.names
    counts = {name: draw(st.integers(0, 3)) for name in names}
    if not any(counts.values()):
        counts[draw(st.sampled_from(names))] = 1
    left = dict(counts)
    labels: list[str] = []
    vm_type = None
    while any(left.values()):
        placeable = [
            name for name in names if left[name] and vm_type is not None and vm_type.supports(name)
        ]
        # Provision when nothing can be placed, and now and then anyway (an
        # empty VM in the middle of a path is a path the walk accepts).
        if not placeable or draw(st.integers(0, 4)) == 4:
            useful = [
                candidate
                for candidate in catalogue
                if placeable or any(left[name] and candidate.supports(name) for name in names)
            ]
            vm_type = draw(st.sampled_from(useful))
            labels.append(ProvisionVM(vm_type.name).label)
            continue
        name = draw(st.sampled_from(placeable))
        left[name] -= 1
        labels.append(PlaceQuery(name).label)
    if draw(st.booleans()):  # an empty trailing VM
        labels.append(ProvisionVM(draw(st.sampled_from(list(catalogue))).name).label)
    return counts, tuple(labels)


def _refused(counts: dict[str, int], labels: tuple[str, ...], how: int) -> tuple[str, ...]:
    """*labels* changed so the walk refuses them, one of four ways."""
    if how == 0:  # queries left unassigned
        return labels[:-1] if labels[-1].startswith("assign:") else labels[:-2]
    if how == 1:  # a label no problem knows
        return ("launch:picky",) + labels
    if how == 2:  # a template the sample does not have
        missing = [name for name in TEMPLATES.names if not counts[name]] or ["T9"]
        return labels + (PlaceQuery(missing[0]).label,)
    return (PlaceQuery("T1").label,) + labels  # a placement before any VM


@pytest.mark.parametrize("order", ("same", "reversed"))
@pytest.mark.parametrize("catalogue", sorted(CATALOGUES))
@pytest.mark.parametrize("kind", GOAL_KINDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_one_block_over_many_paths_is_extract_into_stacked(kind, catalogue, order, data):
    vm_types = CATALOGUES[catalogue]
    goal = default_goal(kind, TEMPLATES).tightened(0.5, TEMPLATES)
    extractor = _extractor(vm_types if order == "same" else _reversed(vm_types), goal)
    paths = data.draw(st.lists(_paths(vm_types), min_size=1, max_size=6))
    refused_at = data.draw(st.integers(0, len(paths)))
    how = data.draw(st.integers(0, 3))

    blocks, oracles = [], []
    for counts, labels in paths:
        problem = SchedulingProblem(counts, TEMPLATES, vm_types, goal, LATENCY)
        values, cost = extractor.vertex_values(counts, labels)
        rows, oracle_cost = _oracle(extractor, problem, labels)
        assert cost == oracle_cost and cost is not None
        assert values.shape == (len(labels), 4)
        matrix, matrix_cost = extractor.matrix(problem, labels)
        assert matrix_cost == cost
        assert matrix.tobytes() == rows.tobytes()
        blocks.append((labels, values, problem.template_counts))
        oracles.append(rows)

    # A refused path in the middle of a block is written without raising and
    # leaves every other path's rows as they are.
    counts, labels = paths[min(refused_at, len(paths) - 1)]
    bad = _refused(counts, labels, how)
    problem = SchedulingProblem(counts, TEMPLATES, vm_types, goal, LATENCY)
    bad_values, bad_cost = extractor.vertex_values(counts, bad)
    assert bad_cost is None
    assert extractor.matrix(problem, bad)[1] is None
    with_bad = blocks[:refused_at] + [(bad, bad_values, counts)] + blocks[refused_at:]
    # An empty path anywhere contributes no row.
    with_bad.insert(data.draw(st.integers(0, len(with_bad))), ((), bad_values[:0], counts))

    block = extractor.block(blocks)
    assert block.tobytes() == np.vstack(oracles).tobytes()
    mixed = extractor.block(with_bad)
    keep = np.ones(len(mixed), dtype=bool)
    start = sum(len(labels) for labels, _, _ in blocks[:refused_at])
    keep[start : start + len(bad)] = False
    assert mixed[keep].tobytes() == block.tobytes()


def test_an_empty_label_list_has_no_rows_and_no_cost():
    vm_types = CATALOGUES["2vm"]
    goal = default_goal("max", TEMPLATES)
    extractor = _extractor(vm_types, goal)
    problem = SchedulingProblem({"T1": 1}, TEMPLATES, vm_types, goal, LATENCY)
    rows, cost = extractor.matrix(problem, ())
    assert rows.shape == (0, len(extractor.feature_names)) and cost is None
    assert extractor.block([]).shape == (0, len(extractor.feature_names))


def test_supports_follows_the_type_name_not_the_catalogue_position():
    """The path provisions ``picky`` (no ``T3``): the extractor listing the
    catalogue the other way round still writes picky's ``supports`` row."""
    vm_types = CATALOGUES["2vm"]
    labels = (ProvisionVM("picky").label, PlaceQuery("T1").label)
    goal = default_goal("max", TEMPLATES)
    problem = SchedulingProblem({"T1": 1}, TEMPLATES, vm_types, goal, LATENCY)
    for catalogue in (vm_types, _reversed(vm_types)):
        extractor = _extractor(catalogue, goal)
        rows, cost = extractor.matrix(problem, labels)
        assert cost is not None
        supports = rows[1, 2::4]
        assert supports.tolist() == [1.0, 1.0, 0.0, 1.0]
