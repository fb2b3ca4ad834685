"""Property tests: the vectorized inference fast path equals the legacy path.

Three independent implementations must agree bit-for-bit:

* feature extraction — the dict-returning :meth:`FeatureExtractor.extract`
  (legacy), the preallocated-row :meth:`FeatureExtractor.extract_into`, and
  the batch :meth:`FeatureExtractor.matrix`;
* tree evaluation — the :class:`TreeNode` walk (``predict_vector`` /
  ``predict``) and the compiled flat-array evaluator (``predict_row`` /
  ``predict_matrix``), including compilation onto an external feature order
  with missing features constant-folded to 0.0;
* online scheduling — the epoch-batched arrival loop and the legacy
  one-pass-per-query loop (``REPRO_SLOW_PATH=1``) on arrival streams with
  distinct timestamps, where the two groupings must coincide exactly;
* one decision — :meth:`DecisionModel.decide`'s walk, which computes a feature
  only when the tree path tests it, against the full-row oracle
  ``predict_row(extract_into(...))`` → ``_validate`` on every decision of
  seeded batch and online runs and on A* vertices, with ``seen`` counters that
  fail the sweep if it stops reaching a case, and a work guard on how much a
  decision may evaluate.
"""

from __future__ import annotations

import os
import random as random_module
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import units
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import (
    VMType,
    VMTypeCatalog,
    single_vm_type_catalog,
    t2_medium,
    two_vm_type_catalog,
)
from repro.config import TrainingConfig
from repro.learning.decision_tree import CompiledTreeEvaluator, DecisionTreeClassifier
from repro.learning.features import FEATURE_FAMILIES, INFEASIBLE_COST, FeatureExtractor
from repro.learning.model import DecisionModel
from repro.learning.trainer import ModelGenerator
from repro.runtime.batch import BatchScheduler, RuntimeSchedulingContext
from repro.runtime.online import OnlineOptimizations, OnlineScheduler
from repro.search.actions import action_from_label
from repro.search.problem import SchedulingProblem
from repro.sla import accumulators
from repro.sla.factory import GOAL_KINDS, default_goal
from repro.workloads.query import Query
from repro.workloads.templates import QueryTemplate, TemplateSet
from repro.workloads.workload import Workload

# ---------------------------------------------------------------------------
# Feature extraction: dict vs row vs matrix
# ---------------------------------------------------------------------------


def _build_problem(kind: str, counts: list[int], two_types: bool):
    templates = TemplateSet(
        [
            QueryTemplate(name=f"T{i + 1}", base_latency=units.minutes(i + 1))
            for i in range(len(counts))
        ]
    )
    if two_types:
        vm_types = two_vm_type_catalog(slow_templates=[templates.names[-1]])
    else:
        vm_types = single_vm_type_catalog()
    goal = default_goal(kind, templates)
    problem = SchedulingProblem(
        template_counts={
            name: count for name, count in zip(templates.names, counts) if count
        },
        templates=templates,
        vm_types=vm_types,
        goal=goal,
        latency_model=TemplateLatencyModel(templates),
    )
    return templates, vm_types, problem


def _random_walk(problem, rng: random_module.Random, max_steps: int):
    """Nodes visited along a random successor walk from the initial vertex."""
    node = problem.initial_node()
    nodes = [node]
    for _ in range(max_steps):
        successors = problem.expand(node)
        if not successors:
            break
        node = rng.choice(successors)
        nodes.append(node)
    return nodes


@pytest.mark.slow
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(GOAL_KINDS),
    counts=st.lists(st.integers(min_value=0, max_value=3), min_size=2, max_size=4).filter(
        lambda values: sum(values) >= 2
    ),
    two_types=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_extract_row_and_matrix_match_dict(kind, counts, two_types, seed):
    templates, vm_types, problem = _build_problem(kind, counts, two_types)
    extractor = FeatureExtractor(templates, vm_types)
    rng = random_module.Random(seed)
    nodes = _random_walk(problem, rng, max_steps=sum(counts) + 3)

    matrix = extractor.matrix(nodes, problem)
    assert matrix.shape == (len(nodes), len(extractor.feature_names))
    for index, node in enumerate(nodes):
        legacy = extractor.extract(node, problem)
        assert tuple(legacy) == extractor.feature_names  # same order, same names
        row = extractor.extract_into(node, problem, np.zeros(len(extractor.feature_names)))
        list_row = extractor.extract_into(
            node, problem, [0.0] * len(extractor.feature_names)
        )
        expected = [legacy[name] for name in extractor.feature_names]
        assert row.tolist() == expected
        assert list_row == expected
        assert matrix[index].tolist() == expected


@pytest.mark.slow
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(GOAL_KINDS),
    counts=st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=3),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_problem_cost_row_matches_scalar(kind, counts, seed):
    """The search problem's cost row equals per-template scalar edge costs."""
    templates, vm_types, problem = _build_problem(kind, counts, two_types=True)
    extractor = FeatureExtractor(templates, vm_types)
    rng = random_module.Random(seed)
    for node in _random_walk(problem, rng, max_steps=sum(counts) + 3):
        row = problem.placement_cost_row(node, templates.names)
        scalar = [
            problem.placement_edge_cost(node, name) for name in templates.names
        ]
        assert row == scalar


# ---------------------------------------------------------------------------
# Decision tree: compiled evaluator vs node walk
# ---------------------------------------------------------------------------


@pytest.mark.slow
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_compiled_tree_matches_node_walk(data):
    n_features = data.draw(st.integers(min_value=1, max_value=5))
    n_rows = data.draw(st.integers(min_value=4, max_value=40))
    matrix = np.asarray(
        data.draw(
            st.lists(
                st.lists(
                    st.floats(
                        min_value=-100, max_value=100, allow_nan=False, width=32
                    ),
                    min_size=n_features,
                    max_size=n_features,
                ),
                min_size=n_rows,
                max_size=n_rows,
            )
        ),
        dtype=float,
    )
    labels = data.draw(
        st.lists(
            st.sampled_from(["place[T1]", "place[T2]", "provision[vm]"]),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    feature_names = [f"f{i}" for i in range(n_features)]
    tree = DecisionTreeClassifier(max_depth=8, min_samples_leaf=1).fit(
        matrix, labels, feature_names
    )

    walked = [tree.predict_vector(row) for row in matrix]
    compiled = tree.compiled()
    assert [compiled.predict_row(row) for row in matrix] == walked
    assert tree.predict_matrix(matrix) == walked

    # Compilation onto a shuffled superset order, exercising the re-mapping.
    extended = feature_names + ["extra"]
    rng = random_module.Random(data.draw(st.integers(0, 2**16)))
    rng.shuffle(extended)
    remapped = tree.compiled(extended)
    column_of = {name: index for index, name in enumerate(extended)}
    wide = np.zeros((n_rows, len(extended)))
    for name, source in zip(feature_names, range(n_features)):
        wide[:, column_of[name]] = matrix[:, source]
    assert [remapped.predict_row(row) for row in wide] == walked
    assert remapped.predict_matrix(wide) == walked

    # Missing features constant-fold exactly like predict()'s 0.0 default.
    dropped = data.draw(st.sampled_from(feature_names))
    reduced_order = [name for name in feature_names if name != dropped]
    folded = tree.compiled(reduced_order)
    reduced_columns = [feature_names.index(name) for name in reduced_order]
    for row in matrix:
        mapping = {name: row[feature_names.index(name)] for name in reduced_order}
        assert folded.predict_row(row[reduced_columns]) == tree.predict(mapping)


def test_compiled_cache_invalidated_by_refit():
    matrix = np.asarray([[0.0], [1.0], [2.0], [3.0]])
    tree = DecisionTreeClassifier(min_samples_leaf=1).fit(
        matrix, ["a", "a", "b", "b"], ["x"]
    )
    first = tree.compiled()
    assert tree.compiled() is first  # cached
    tree.fit(matrix, ["b", "b", "a", "a"], ["x"])
    assert tree.compiled() is not first
    assert tree.compiled().predict_row([0.0]) == tree.predict_vector([0.0])


# ---------------------------------------------------------------------------
# Online scheduling: epoch batching vs the per-query reference loop
# ---------------------------------------------------------------------------


def _outcome_key(outcome):
    return (
        tuple(
            (vm.vm_type.name, tuple(query.query_id for query in vm.queries))
            for vm in outcome.schedule
        ),
        (outcome.cost.startup_cost, outcome.cost.execution_cost, outcome.cost.penalty_cost),
        tuple(
            (
                record.query_id,
                record.template_name,
                record.vm_index,
                record.start_time,
                record.completion_time,
            )
            for record in outcome.query_outcomes
        ),
    )


@pytest.mark.slow
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    gaps=st.lists(
        st.floats(min_value=1.0, max_value=120.0, allow_nan=False),
        min_size=2,
        max_size=8,
    ),
    template_picks=st.lists(st.integers(min_value=0, max_value=2), min_size=8, max_size=8),
)
def test_batched_online_equals_per_query_reference(
    gaps, template_picks, trained_max, model_generator, small_templates
):
    """Distinct arrival times: epoch batching must equal the legacy loop."""
    names = small_templates.names
    arrival = 0.0
    queries = []
    for index, gap in enumerate(gaps):
        arrival += gap  # strictly increasing => every epoch is one query
        queries.append(
            Query(
                template_name=names[template_picks[index % len(template_picks)] % len(names)],
                arrival_time=arrival,
            )
        )
    workload = Workload(small_templates, queries)

    def run():
        return OnlineScheduler(
            base_training=trained_max,
            generator=model_generator,
            optimizations=OnlineOptimizations.all(),
            wait_resolution=60.0,
        ).run(workload)

    saved = os.environ.pop("REPRO_SLOW_PATH", None)
    try:
        batched = run()
        os.environ["REPRO_SLOW_PATH"] = "1"
        reference = run()
    finally:
        if saved is None:
            os.environ.pop("REPRO_SLOW_PATH", None)
        else:
            os.environ["REPRO_SLOW_PATH"] = saved

    assert _outcome_key(batched) == _outcome_key(reference)
    assert batched.overhead.decisions == reference.overhead.decisions
    assert batched.overhead.retrains == reference.overhead.retrains


def test_batch_scheduler_fast_and_slow_paths_identical(trained_max, small_templates):
    """One non-property spot check through the public batch scheduler."""
    from repro.workloads.generator import WorkloadGenerator

    workload = WorkloadGenerator(small_templates, seed=31).uniform(40)
    scheduler = BatchScheduler(trained_max.model)
    saved = os.environ.pop("REPRO_SLOW_PATH", None)
    try:
        fast = scheduler.run(workload)
        os.environ["REPRO_SLOW_PATH"] = "1"
        slow = scheduler.run(workload)
    finally:
        if saved is None:
            os.environ.pop("REPRO_SLOW_PATH", None)
        else:
            os.environ["REPRO_SLOW_PATH"] = saved
    assert _outcome_key(fast) == _outcome_key(slow)


def test_context_row_tables_shared_across_schedulers(trained_max, small_templates):
    """The per-VM tables live on the model, so fresh contexts reuse them."""
    model = trained_max.model
    first = RuntimeSchedulingContext(model)
    tables = model.vm_tables(model.vm_types.default.name)
    again = model.vm_tables(model.vm_types.default.name)
    assert tables is again
    del first
    second = RuntimeSchedulingContext(model)
    assert model.vm_tables(model.vm_types.default.name) is tables
    del second


# ---------------------------------------------------------------------------
# One decision: the walk that computes only what its path tests vs the full row
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def walk_trainings(small_templates):
    """(generator, training) per goal kind × catalogue; ``2vm``'s small type cannot run T3."""
    small = VMType(
        name="t2.small",
        running_cost=t2_medium().running_cost / 2,
        unsupported_templates=frozenset({"T3"}),
    )
    trainings = {}
    for catalog_name, vm_types in (
        ("1vm", single_vm_type_catalog()),
        ("2vm", VMTypeCatalog([t2_medium(), small])),
    ):
        generator = ModelGenerator(
            templates=small_templates,
            vm_types=vm_types,
            config=TrainingConfig(
                num_samples=16, queries_per_sample=6, seed=3, max_expansions=50_000
            ),
        )
        for kind in GOAL_KINDS:
            goal = default_goal(kind, small_templates)
            trainings[(kind, catalog_name)] = (generator, generator.generate(goal))
    return trainings


def _oracle(model, node, problem):
    """``(row, label, columns the path tests, validated action)`` from the full row."""
    extractor = model.extractor
    row = extractor.extract_into(node, problem, [0.0] * len(extractor.feature_names))
    evaluator = model.compiled_evaluator()
    label = evaluator.predict_row(row)
    features, thresholds, lefts, rights, _ = evaluator.scalar_arrays()
    path, index = [], 0
    while features[index] >= 0:
        path.append(int(features[index]))
        index = lefts[index] if row[features[index]] <= thresholds[index] else rights[index]
    try:
        action = action_from_label(label)
    except ValueError:
        action = None
    return row, label, path, model._validate(action, node, problem)


def _check_decisions(monkeypatch, seen: Counter) -> None:
    """Hold every ``decide`` call against the oracle and count what it reached."""
    real_decide = DecisionModel.decide
    real_guard = DecisionModel._apply_penalty_guard
    real_fallback = DecisionModel._fallback_placement

    def decide(self, node, problem, slow_path=None):
        row, label, path, expected = _oracle(self, node, problem)
        families, names, _ = self.extractor.column_layout
        walked_label, costs = self._walk(node, problem)
        assert walked_label == label
        assert set(costs) == {
            names[column] for column in path if FEATURE_FAMILIES[families[column]] == "cost_of"
        }
        for name, cost in costs.items():
            assert cost == problem.placement_edge_cost(node, name)
        assert real_decide(self, node, problem, slow_path=False) == expected
        for column in path:
            family = FEATURE_FAMILIES[families[column]]
            seen[family] += 1
            if family == "cost_of" and row[column] == INFEASIBLE_COST:
                seen["infeasible cost tested"] += 1
            if family == "supports" and row[column] == 0.0 and node.state.vms:
                seen["unsupported template tested"] += 1
        return expected

    def guard(self, action, node, problem, costs=None):
        last = node.state.last_vm()
        # `costs` is None on the oracle's own _validate call.
        if costs is not None and self.penalty_guard_enabled and last and last[1]:
            walked = action.template_name in costs
            seen["guard reused a walked cost" if walked else "guard derived its cost"] += 1
        return real_guard(self, action, node, problem, costs)

    def fallback(self, node, problem, preferred=None):
        seen["fallback placement"] += 1
        return real_fallback(self, node, problem, preferred)

    monkeypatch.setattr(DecisionModel, "decide", decide)
    monkeypatch.setattr(DecisionModel, "_apply_penalty_guard", guard)
    monkeypatch.setattr(DecisionModel, "_fallback_placement", fallback)


def _without_family(model, family):
    """*model*'s tree on an extractor lacking *family*: those splits constant-fold."""
    families = tuple(name for name in FEATURE_FAMILIES if name != family)
    return DecisionModel(
        tree=model.tree,
        extractor=FeatureExtractor(model.templates, model.vm_types, families),
        templates=model.templates,
        vm_types=model.vm_types,
        goal=model.goal,
        latency_model=model.latency_model,
    )


def test_walk_equals_full_row_oracle_on_every_decision(
    walk_trainings, small_templates, monkeypatch
):
    from repro.workloads.generator import WorkloadGenerator

    seen: Counter = Counter()
    _check_decisions(monkeypatch, seen)
    workloads = WorkloadGenerator(small_templates, seed=11)
    batch = workloads.uniform(60)
    # Arrivals a second apart against minutes-long queries: most of the stream
    # is pulled back every epoch and continues the most recent VM.
    stream = workloads.with_fixed_arrivals(workloads.uniform(14), delay=1.0)
    aged = workloads.with_fixed_arrivals(workloads.uniform(5), delay=45.0)
    for (kind, catalog_name), (generator, training) in walk_trainings.items():
        model = training.model
        BatchScheduler(model).run(batch)
        BatchScheduler(model.with_penalty_guard(False)).run(batch)
        OnlineScheduler(training, generator, wait_resolution=1e9).run(stream)
        if catalog_name == "2vm":
            # Full trees on extractors lacking one family (the ablation axis).
            for family in FEATURE_FAMILIES:
                BatchScheduler(_without_family(model, family)).run(batch)
        # A* vertices, costed by the search problem itself.
        problem = SchedulingProblem(
            template_counts={"T1": 3, "T2": 2, "T3": 2},
            templates=small_templates,
            vm_types=model.vm_types,
            goal=model.goal,
            latency_model=model.latency_model,
        )
        rng = random_module.Random(17)
        for _ in range(4):
            for node in _random_walk(problem, rng, max_steps=12):
                if node.state.remaining:
                    model.decide(node, problem)
    # Aged templates (an augmented model trained mid-stream) and an evaluator
    # over adopted arrays, as a shard worker attaches it from shared memory.
    generator, training = walk_trainings[("average", "1vm")]
    outcome = OnlineScheduler(training, generator, wait_resolution=60.0).run(aged)
    assert outcome.overhead.retrains > 0
    compiled = training.model.compiled_evaluator()
    attached = training.model.with_penalty_guard(True)
    attached.use_evaluator(
        CompiledTreeEvaluator.from_arrays(
            compiled.feature,
            compiled.threshold,
            compiled.left,
            compiled.right,
            compiled.leaf_label,
            compiled.labels,
            compiled.feature_names,
        )
    )
    BatchScheduler(attached).run(batch)

    reached = FEATURE_FAMILIES + (
        "infeasible cost tested",
        "unsupported template tested",
        "guard reused a walked cost",
        "guard derived its cost",
        "fallback placement",
    )
    assert not [case for case in reached if not seen[case]], dict(seen)


def test_a_decision_evaluates_only_what_its_path_tests(walk_trainings, small_templates, monkeypatch):
    """Work guard: Equation 2 runs once per ``cost-of-X`` column on the path, plus
    once when the penalty guard needs a cost the path did not ask for — not once
    per template — and nothing under ``schedule_detailed`` fills a full row."""
    from repro.workloads.generator import WorkloadGenerator

    calls = Counter()
    for accumulator in (
        accumulators.PerQueryViolationAccumulator,
        accumulators.AverageLatencyViolationAccumulator,
        accumulators.PercentileViolationAccumulator,
    ):
        def counted(self, template_name, latency, _real=accumulator.violation_with):
            calls["violation_with"] += 1
            return _real(self, template_name, latency)

        monkeypatch.setattr(accumulator, "violation_with", counted)

    def forbidden(*args, **kwargs):
        raise AssertionError("a runtime decision filled a full feature or cost row")

    monkeypatch.setattr(FeatureExtractor, "extract_into", forbidden)
    monkeypatch.setattr(RuntimeSchedulingContext, "placement_cost_row", forbidden)

    real_walk = DecisionModel._walk
    real_guard = DecisionModel._apply_penalty_guard
    real_fallback = DecisionModel._fallback_placement
    real_decide = DecisionModel.decide
    allowed = [0]
    most = Counter()

    def walk(self, node, problem):
        label, costs = real_walk(self, node, problem)
        allowed[0] = len(costs)
        return label, costs

    def guard(self, action, node, problem, costs=None):
        allowed[0] += action.template_name not in costs  # one derivation, else none
        return real_guard(self, action, node, problem, costs)

    def fallback(self, node, problem, preferred=None):
        if preferred is None:  # picks the cheapest candidate: costs each once
            allowed[0] += len(self.templates)
        return real_fallback(self, node, problem, preferred)

    def decide(self, node, problem, slow_path=None):
        before = calls["violation_with"]
        action = real_decide(self, node, problem, slow_path=False)
        evaluated = calls["violation_with"] - before
        assert evaluated <= allowed[0]
        most["evaluated"] = max(most["evaluated"], evaluated)
        most["decisions"] += 1
        return action

    monkeypatch.setattr(DecisionModel, "_walk", walk)
    monkeypatch.setattr(DecisionModel, "_apply_penalty_guard", guard)
    monkeypatch.setattr(DecisionModel, "_fallback_placement", fallback)
    monkeypatch.setattr(DecisionModel, "decide", decide)
    workload = WorkloadGenerator(small_templates, seed=12).uniform(60)
    for generator, training in walk_trainings.values():
        BatchScheduler(training.model).run(workload)
    assert most["decisions"] > 8 * len(workload) and 0 < most["evaluated"] <= 3
