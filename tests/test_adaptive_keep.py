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

import gc
import json
import math
import shutil
import tracemalloc
import sqlite3
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro import units
from repro.adaptive.retraining import AdaptiveModeler
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import VMType, VMTypeCatalog, single_vm_type_catalog, two_vm_type_catalog
from repro.config import TrainingConfig
from repro.learning.features import FeatureExtractor
from repro.learning.sampling import training_workloads
from repro.learning.trainer import ModelGenerator, SampleSolution, SampleSolver, TrainingResult
from repro.runtime.batch import BatchScheduler
from repro.search import strategy
from repro.search.astar import astar_search
from repro.search.bounds import MemoizedGoalBound, ProvisioningBound
from repro.search.problem import ProblemTables, SchedulingProblem, SearchNode, VertexStepper
from repro.service import WiSeDBService
from repro.sla.factory import GOAL_KINDS, default_goal
from repro.sla.max_latency import MaxLatencyGoal
from repro.sla.per_query import PerQueryDeadlineGoal
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.templates import QueryTemplate, TemplateSet, tpch_templates
from repro.workloads.workload import Workload

from oracles import state_of
from search_helpers import children, walk

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
# (b) the walk against the search's own vertices
# ---------------------------------------------------------------------------


def _labels(result) -> tuple[str, ...]:
    return tuple(action.label for _, action in result.decisions())


def _rows_over(extractor, problem, path) -> np.ndarray:
    """``extract_into`` at every vertex of the search *path* an action leaves,
    on the stepper walked along it: the oracle of ``FeatureExtractor.matrix``."""
    rows = np.empty((len(path) - 1, len(extractor.feature_names)))
    labels = [node.action.label for node in path[1:]]
    walk(problem, labels, lambda index, vertex: extractor.extract_into(vertex, rows[index]))
    return rows


def _expanded(problem, labels):
    """The vertices ``expand`` builds along *labels* (``None`` where it prunes a step)."""
    node = problem.initial_node()
    nodes = [node]
    for label in labels:
        matching = [child for child in children(problem, node) if child.action.label == label]
        if not matching:
            return None
        (node,) = matching
        nodes.append(node)
    return nodes


@pytest.mark.parametrize("catalogue", sorted(CATALOGUES))
@pytest.mark.parametrize("kind", GOAL_KINDS)
def test_the_walk_retraces_the_astar_solution_vertex_by_vertex(kind, catalogue):
    vm_types = CATALOGUES[catalogue]
    goal = default_goal(kind, TEMPLATES)
    latency_model = TemplateLatencyModel(TEMPLATES)
    for workload in training_workloads(TEMPLATES, _config(SEEDS[1])):
        problem = SchedulingProblem.for_workload(workload, vm_types, goal, latency_model)
        result = astar_search(problem)
        seen = []

        def visit(index, vertex):
            vm_index = vertex.last_vm_index
            seen.append(
                (
                    (vm_types.names[vm_index], tuple(vertex.queue)) if vm_index >= 0 else None,
                    tuple(vertex.remaining.items()),
                    vertex.last_vm_finish,
                    vertex.infra_cost,
                    vertex.penalty,
                )
            )

        cost = walk(problem, _labels(result), visit)
        expected = []
        for node in result.path()[:-1]:
            vms, remaining = state_of(node, problem.template_counts)
            last = vms[-1] if vms else None
            expected.append(
                (last, remaining, node.last_vm_finish, node.infra_cost, node.penalty)
            )
        assert seen == expected
        assert cost == result.cost  # bit for bit, not approximately


@pytest.mark.parametrize("kind", GOAL_KINDS)
def test_matrix_rows_are_extract_into_over_the_search_vertices(kind):
    """Searched, ``h'``-searched and kept paths all label as their vertices read."""
    vm_types = CATALOGUES["2vm"]
    generator = ModelGenerator(TEMPLATES, vm_types=vm_types, config=_config(SEEDS[0]))
    latency_model = generator.latency_model
    goal = default_goal(kind, TEMPLATES)
    base = generator.generate(goal)
    # Tight enough that some samples are searched and some kept, per kind.
    stricter = goal.tightened(0.5 if kind == "percentile" else 0.2, TEMPLATES)
    adapted, _ = AdaptiveModeler(generator, base).retrain(stricter)
    extractor = adapted.model._extractor
    assert base.skipped_samples == adapted.skipped_samples == 0
    adapted_rows, _ = adapted.training_set.to_matrix()
    offset = 0
    cases: Counter[str] = Counter()
    for workload, old, new in zip(base.workloads, base.samples, adapted.samples):
        block = adapted_rows[offset : offset + len(new.path)]
        offset += len(new.path)
        plain = SchedulingProblem.for_workload(workload, vm_types, stricter, latency_model)
        bounded = SchedulingProblem.for_workload(
            workload,
            vm_types,
            stricter,
            latency_model,
            adaptive_bound=AdaptiveModeler._adaptive_bound(goal, old.optimal_cost),
        )
        for problem in (plain, bounded):
            result = astar_search(problem)
            rows, cost = extractor.matrix(problem, _labels(result))
            assert cost == result.cost
            assert rows.tobytes() == _rows_over(extractor, problem, result.path()).tobytes()
        if new.expansions:
            # Searched under h': the bounded search above, row for row.
            assert new.path == _labels(result)
            assert block.tobytes() == rows.tobytes()
            cases["searched"] += 1
            continue
        nodes = _expanded(plain, new.path)
        if nodes is not None:
            assert block.tobytes() == _rows_over(extractor, plain, nodes).tobytes()
            cases["kept"] += 1
    assert offset == len(adapted_rows)
    assert cases["kept"] and cases["searched"], cases


def test_the_walk_refuses_a_path_the_problem_cannot_take():
    picky = VMType(
        name="picky", startup_cost=0.05, running_cost=0.001, unsupported_templates=("T3",)
    )
    vm_types = VMTypeCatalog([single_vm_type_catalog()["t2.medium"], picky])
    goal = default_goal("max", TEMPLATES)
    latency_model = TemplateLatencyModel(TEMPLATES)
    problem = SchedulingProblem({"T1": 1, "T3": 1}, TEMPLATES, vm_types, goal, latency_model)

    def cost(*labels):
        return walk(problem, labels, lambda index, vertex: None)

    complete = ("provision:picky", "assign:T1", "provision:t2.medium", "assign:T3")
    assert cost(*complete) == _expanded(problem, complete)[-1].partial_cost
    assert cost() is None  # nothing placed
    assert cost(*complete[:-1]) is None  # a query left unassigned
    assert cost("assign:T1") is None  # no VM yet
    assert cost("provision:picky", "assign:T3") is None  # unsupported
    assert cost("provision:picky", "assign:T1", "assign:T1") is None  # none left
    assert cost("provision:picky", "assign:T2") is None  # not in the workload
    assert cost("provision:t9.huge") is None  # unknown VM type
    assert cost("provision:picky", "assign:T9") is None  # unknown template
    assert cost("launch:picky") is None  # unknown label
    extractor = FeatureExtractor(ProblemTables(TEMPLATES, vm_types, goal, latency_model))
    assert extractor.matrix(problem, ("assign:T1",))[1] is None

    # A kept sample whose path is refused is searched again.
    solver = SampleSolver(extractor, max_expansions=None)
    workload = Workload.from_counts(TEMPLATES, {"T1": 1, "T3": 1})
    rows, searched = solver.solve(workload)
    assert searched.expansions > 0
    kept_rows, kept = solver.solve(workload, keep=searched)
    assert kept == replace(searched, expansions=0)
    assert kept_rows.tobytes() == rows.tobytes()
    for refused in (complete[:-1], ("launch:picky",), ("provision:picky", "assign:T3")):
        again_rows, again = solver.solve(workload, keep=replace(searched, path=refused))
        assert again == searched
        assert again_rows.tobytes() == rows.tobytes()


# ---------------------------------------------------------------------------
# (c) work and memory guards on the benchmark-shaped set
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def max_tenant():
    """``online_retrain``'s tenant: ``max`` over ten TPC-H templates, 40 samples x 8."""
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
    return generator, goal, generator.generate(goal)


def test_small_shifts_search_only_the_samples_whose_optimum_moved(max_tenant, monkeypatch):
    """``online_retrain``'s regime: 480 searches at the parent, 26 when written."""
    generator, goal, base = max_tenant
    searches = []
    original = strategy.astar_search
    monkeypatch.setattr(
        strategy,
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


def test_a_retrain_that_keeps_every_sample_walks_each_path_once(max_tenant, monkeypatch):
    """One stepper per labelled path and no search node, and per sample one
    float array of the per-vertex values, not rows or dicts: the wait time,
    the penalty and the two-float accumulator summary of each vertex."""
    generator, goal, base = max_tenant
    modeler = AdaptiveModeler(generator, base)
    payloads = []
    solve = SampleSolver.solve
    monkeypatch.setattr(
        SampleSolver,
        "__call__",
        lambda self, *args: payloads.append(solve(self, *args)) or payloads[-1],
    )
    counts: Counter[str] = Counter()
    node_init = SearchNode.__init__
    stepper_init = VertexStepper.__init__

    def counting(name, init):
        def count(self, *args, **kwargs):
            counts[name] += 1
            init(self, *args, **kwargs)

        return count

    monkeypatch.setattr(SearchNode, "__init__", counting("SearchNode", node_init))
    monkeypatch.setattr(VertexStepper, "__init__", counting("VertexStepper", stepper_init))
    result, report = modeler.retrain(goal)
    assert report.samples_kept == len(payloads) == 40
    assert counts == {"VertexStepper": 40}
    for (values, solution), sample in zip(payloads, result.samples):
        assert type(values) is np.ndarray and values.dtype == np.float64
        assert values.shape == (len(solution.path), 4)
        assert solution is sample
    assert len(result.training_set) == sum(len(s.path) for s in base.samples)


def test_a_retrain_that_keeps_every_sample_builds_no_problem_and_no_bound(
    max_tenant, monkeypatch
):
    """A kept sample costs one plain walk of its path on the pass's tables:
    no ``SchedulingProblem``, no cost-to-go bound, one walk per sample."""
    generator, goal, base = max_tenant
    modeler = AdaptiveModeler(generator, base)
    counts: Counter[str] = Counter()
    walked: list[tuple[str, ...]] = []
    attach = SchedulingProblem._attach
    table_walk = ProblemTables.walk

    def counting_attach(self, *args):
        counts["problems"] += 1
        attach(self, *args)

    def counting_walk(self, template_counts, labels, visit):
        walked.append(tuple(labels))
        return table_walk(self, template_counts, labels, visit)

    monkeypatch.setattr(SchedulingProblem, "_attach", counting_attach)
    monkeypatch.setattr(ProblemTables, "walk", counting_walk)
    for bound in (ProvisioningBound, MemoizedGoalBound):
        monkeypatch.setattr(
            bound,
            "attach",
            lambda self, problem, _attach=bound.attach: counts.update(["bounds"])
            or _attach(self, problem),
        )
    _, report = modeler.retrain(goal)
    assert report.samples_kept == 40 and report.total_expansions == 0
    assert counts == {}, counts
    assert walked == [sample.path for sample in base.samples]

    # The same guard counts what a searched sample builds.
    _, report = modeler.retrain(goal.shifted(30.0))
    searched = 40 - report.samples_kept
    assert searched > 0
    assert counts == {"problems": searched, "bounds": searched}, counts


def test_a_training_pass_makes_no_equation_2_call(max_tenant, monkeypatch):
    """Training prices every ``cost-of-X`` of a pass in the block: the
    scalar ``placement_edge_cost`` runs for no vertex, searched or kept."""
    generator, goal, base = max_tenant
    modeler = AdaptiveModeler(generator, base)
    calls = []
    edge = ProblemTables.placement_edge_cost
    monkeypatch.setattr(
        ProblemTables,
        "placement_edge_cost",
        lambda self, node, name: calls.append(name) or edge(self, node, name),
    )
    fresh = generator.generate(goal, workloads=base.workloads)
    _, report = modeler.retrain(goal.shifted(30.0))
    assert 0 < report.samples_kept < 40
    assert len(fresh.training_set) and calls == []


def test_a_training_pass_builds_one_block_and_one_set_of_tables(max_tenant, monkeypatch):
    """Per ``_solve_and_fit``: one call of ``FeatureExtractor.block`` over every
    solved sample, and one ``ProblemTables`` build shared by the 40 problems
    and the fitted model, whose first schedule builds no other."""
    generator, goal, base = max_tenant
    modeler = AdaptiveModeler(generator, base)
    workload = WorkloadGenerator(generator.templates, seed=3).uniform(60)
    calls: Counter[str] = Counter()
    built: list[ProblemTables] = []
    block = FeatureExtractor.block
    tables_init = ProblemTables.__init__

    def counting_block(self, paths):
        calls["block"] += 1
        calls["paths"] += len(paths)
        return block(self, paths)

    def counting_tables(self, *args):
        calls["tables"] += 1
        built.append(self)
        tables_init(self, *args)

    def check(result, context):
        assert calls == {"block": 1, "paths": 40, "tables": 1}, (context, calls)
        assert result.model.tables is built[-1], context
        BatchScheduler(result.model).schedule(workload)
        assert calls["tables"] == 1, (context, calls)

    monkeypatch.setattr(FeatureExtractor, "block", counting_block)
    monkeypatch.setattr(ProblemTables, "__init__", counting_tables)
    for shift in (0.0, 5.0, 30.0):
        calls.clear()
        result, report = modeler.retrain(goal.shifted(shift))
        check(result, shift)
    calls.clear()
    check(generator.generate(goal, workloads=base.workloads), "generate")


def test_the_passes_of_one_generator_share_the_goal_free_extractor_parts(max_tenant):
    """Retrains and fresh passes bring their own tables and share the first
    pass's feature names, column layout, label codes and ``supports`` block."""
    generator, goal, base = max_tenant
    modeler = AdaptiveModeler(generator, base)
    models = [modeler.retrain(goal.shifted(shift))[0].model for shift in (5.0, 30.0)]
    models.append(generator.generate(goal.shifted(60.0), workloads=base.workloads).model)
    first = base.model._extractor
    for model in models:
        extractor = model._extractor
        assert extractor is not first
        assert extractor.tables is not first.tables
        assert extractor.feature_names is first.feature_names
        assert extractor.column_layout is first.column_layout
        assert extractor._label_codes is first._label_codes
        assert extractor._supports_block is first._supports_block


def test_a_training_set_holds_little_beyond_its_float_rows(max_tenant):
    """Under tracemalloc: at most 1.25 x the float64 bytes (a dict per row held 2.8x)."""
    generator, goal, base = max_tenant
    modeler = AdaptiveModeler(generator, base)
    modeler.retrain(goal)  # lazily built state is allocated before tracing
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result, _ = modeler.retrain(goal)
        training_set = result.training_set
        del result, modeler
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(training_set) == 430
    nbytes = len(training_set) * len(training_set.feature_names) * 8
    assert retained <= 1.25 * nbytes, (retained, nbytes)


# ---------------------------------------------------------------------------
# (d) any n_jobs, (e) persistence
# ---------------------------------------------------------------------------

_WALL_CLOCK_KEYS = {"training_time", "search_time", "fit_time", "training_time_seconds"}


def _timeless(data, drop=_WALL_CLOCK_KEYS):
    """``to_dict()`` output without its wall-clock fields (or any key in *drop*)."""
    if isinstance(data, dict):
        return {k: _timeless(v, drop) for k, v in data.items() if k not in drop}
    if isinstance(data, list):
        return [_timeless(entry, drop) for entry in data]
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
    assert restored.to_dict()["version"] == 2


def test_v1_artifact_without_paths_loads_adapts_and_re_exports(tmp_path):
    (original,) = (SAVED_V1 / "models").glob("*.json")
    training = json.loads(original.read_text(encoding="utf-8"))["training"]
    assert all("path" not in sample for sample in training["samples"])
    assert training["version"] == 1
    restored = TrainingResult.from_dict(training)
    re_exported = restored.to_dict()
    assert re_exported["version"] == 2
    for key in training.keys() - {"version", "training_set"}:
        assert json.dumps(re_exported[key]) == json.dumps(training[key]), key
    assert re_exported.keys() == training.keys()
    # The training set by content: the v1 rows, bit for bit, in the v2 block.
    v1_rows = training["training_set"]["examples"]
    matrix, labels = restored.training_set.to_matrix()
    assert labels == [row["label"] for row in v1_rows]
    assert matrix.tobytes() == np.array([row["values"] for row in v1_rows]).tobytes()
    assert list(restored.training_set.feature_names) == training["training_set"]["feature_names"]

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


# ---------------------------------------------------------------------------
# (f) the service keeps one modeler per base fingerprint, seeded from the registry
# ---------------------------------------------------------------------------

SWEEP_PERCENTS = tuple(range(2, 26, 2))


def _service(registry=None, goals=None) -> WiSeDBService:
    """Tenants of one base, one per goal (default: one per goal kind), trained in order."""
    goals = goals or {kind: default_goal(kind, TEMPLATES) for kind in GOAL_KINDS}
    service = WiSeDBService(registry=registry, n_jobs=1)
    for name, goal in goals.items():
        service.register(name, TEMPLATES, goal, config=_config(SEEDS[0]))
        service.train(name)
    return service


def _close(service: WiSeDBService) -> None:
    service.close()
    service.registry.close()


def test_service_adapts_measure_against_the_nearest_goal_solved():
    """``train_adapt``'s sweep, small: every cost exact, less work than from the base."""
    service = _service()
    totals: Counter[str] = Counter()
    try:
        for percent in SWEEP_PERCENTS:
            for kind in GOAL_KINDS:
                tenant = service.tenant(kind)
                base = service.training(kind)
                goal = base.goal.tightened(percent / 100.0, TEMPLATES)
                reference, _ = service._modeler(tenant)._reference(goal)
                result, report = service.adapt(kind, goal)
                _assert_costs_match_fresh(
                    result, tenant.generator.generate(goal, workloads=base.workloads)
                )
                _, from_base = AdaptiveModeler(tenant.generator, base).retrain(goal)
                totals["expansions"] += report.total_expansions
                totals["kept"] += report.samples_kept
                totals["from_base_expansions"] += from_base.total_expansions
                totals["from_base_kept"] += from_base.samples_kept
                if reference is not None and reference.to_dict() != base.goal.to_dict():
                    REACHED["reference_from_service_history"] += 1
    finally:
        _close(service)
    assert totals["expansions"] < totals["from_base_expansions"], totals
    assert totals["kept"] > totals["from_base_kept"], totals


def test_a_second_service_seeds_from_every_artifact_under_the_base(tmp_path):
    goal = default_goal("max", TEMPLATES)
    looser, between, tighter = (goal.tightened(p, TEMPLATES) for p in (0.1, 0.2, 0.3))
    first = _service(tmp_path, {"max": goal})
    try:
        for solved in (looser, tighter):
            first.adapt("max", solved)
    finally:
        _close(first)

    second = _service(tmp_path, {"max": goal})
    try:
        tenant = second.tenant("max")
        assert tenant.provenance == "registry"
        reference, _ = second._modeler(tenant)._reference(between)
        assert reference.to_dict() == looser.to_dict()
        looser_fingerprint = replace(tenant.spec, goal=looser).fingerprint()
        assert second.registry.provenance(looser_fingerprint) == "adaptive"
        result, report = second.adapt("max", between)
        assert report.samples_kept > 0
        _assert_costs_match_fresh(
            result, tenant.generator.generate(between, workloads=tenant.training.workloads)
        )
    finally:
        _close(second)


def test_registration_order_does_not_change_an_adapt():
    goal = default_goal("max", TEMPLATES)
    goals = {"loose": goal.tightened(0.1, TEMPLATES), "tight": goal.tightened(0.3, TEMPLATES)}
    outputs = []
    for order in (("loose", "tight"), ("tight", "loose")):
        service = _service(goals={name: goals[name] for name in order})
        try:
            result, report = service.adapt("tight", goal.tightened(0.2, TEMPLATES))
        finally:
            _close(service)
        # Query ids come from a process-wide counter: the second service draws
        # the same sample workloads under other ids.
        outputs.append(
            (
                _timeless(result.to_dict(), _WALL_CLOCK_KEYS | {"query_id"}),
                report.samples_kept,
                report.total_expansions,
            )
        )
    assert outputs[0] == outputs[1]
    assert outputs[0][1] > 0


def test_a_quarantined_artifact_under_the_base_is_skipped(tmp_path):
    goal = default_goal("max", TEMPLATES)
    looser, between = goal.tightened(0.1, TEMPLATES), goal.tightened(0.2, TEMPLATES)
    first = _service(tmp_path, {"max": goal})
    try:
        first.adapt("max", looser)
        looser_fingerprint = replace(first.tenant("max").spec, goal=looser).fingerprint()
    finally:
        _close(first)
    with sqlite3.connect(tmp_path / "registry.db") as connection:
        connection.execute(
            "UPDATE artifacts SET training = '{\"not\": \"a result\"}' WHERE fingerprint = ?",
            (looser_fingerprint,),
        )

    second = _service(tmp_path, {"max": goal})
    try:
        tenant = second.tenant("max")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            modeler = second._modeler(tenant)
        reference, _ = modeler._reference(between)
        assert reference.to_dict() == goal.to_dict()
        assert looser_fingerprint in dict(second.registry.quarantined())
        result, _ = second.adapt("max", between)
        _assert_costs_match_fresh(
            result, tenant.generator.generate(between, workloads=tenant.training.workloads)
        )
    finally:
        _close(second)


def test_the_sweeps_reached_every_situation():
    for situation in (
        "kept",
        "searched",
        "reference_other_than_base",
        "reference_from_service_history",
        "relaxed_goal_nothing_kept",
        "base_sample_with_cost_lower_bound",
        "v1_artifact_without_paths",
    ):
        assert REACHED[situation] > 0, (situation, dict(REACHED))
