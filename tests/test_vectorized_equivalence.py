"""Property tests: the program's one inference path equals its test oracles.

Each implementation is held bit-for-bit against a reference that lives only
here or in the tree's own API:

* feature extraction — the preallocated-row :meth:`FeatureExtractor.extract_into`
  at the stepper vertices ``ProblemTables.walk`` steps along random successor
  walks, and the path walk :meth:`FeatureExtractor.matrix` (rows and cost),
  against the name → value reference ``features_of`` of
  ``tests/test_learning_features.py`` at the search nodes of the same walks;
* tree evaluation — the :class:`TreeNode` walk (``predict_vector`` /
  ``predict`` in ``tests/oracles.py``) and the compiled flat-array evaluator (``predict_row``),
  including compilation onto an external feature order with missing features
  constant-folded to 0.0;
* online scheduling — the epoch-batched arrival loop against a session fed one
  query per epoch (the paper's per-arrival loop) on arrival streams with
  distinct timestamps, where the two groupings must coincide exactly;
* one decision — :meth:`DecisionModel.decide`, whose generated walk computes
  a feature only when the tree path tests it and whose leaf settles the label,
  against the full-row label ``predict_row(extract_into(...))`` settled by a
  straight-line validator written here from the rules (graph reduction,
  nearest-latency and cheapest-edge fallbacks, penalty guard): the action,
  the :class:`DecisionStats` delta and the Equation-2 calls, counted on the
  model's tables, on every decision of seeded batch and online runs and at
  the stepper vertices of random search paths, with ``seen`` counters that
  fail the sweep if it stops reaching a case; a whole batch run decided by
  the oracle schedules and prices identically;
* the walk function a model generates — from a tree nested deeper than
  CPython's tokenizer allows and from an artifact with ±inf / nan thresholds
  and names that need escaping — against the same oracle, generated once per
  compiled evaluator with one settler per distinct label.
"""

from __future__ import annotations

import dataclasses
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
from repro.search.actions import PlaceQuery, ProvisionVM
from repro.search.problem import ProblemTables, SchedulingProblem
from repro.sla.factory import GOAL_KINDS, default_goal
from repro.workloads.query import Query
from repro.workloads.templates import QueryTemplate, TemplateSet
from repro.workloads.workload import Workload

from search_helpers import at_vertices, children

from test_learning_features import features_of
from oracles import predict, predict_vector

# ---------------------------------------------------------------------------
# Feature extraction: row and matrix vs the name -> value reference
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
        successors = children(problem, node)
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
    extractor = FeatureExtractor(
        ProblemTables(templates, vm_types, problem.goal, TemplateLatencyModel(templates))
    )
    rng = random_module.Random(seed)
    nodes = _random_walk(problem, rng, max_steps=sum(counts) + 3)

    # The matrix walks the same edges: a row per vertex an action leaves.
    matrix, cost = extractor.matrix(problem, [node.action.label for node in nodes[1:]])
    assert matrix.shape == (len(nodes) - 1, len(extractor.feature_names))
    assert cost == (None if nodes[-1].row.count else nodes[-1].partial_cost)
    width = len(extractor.feature_names)
    extracted = []
    at_vertices(
        problem,
        nodes,
        lambda node, vertex: extracted.append(
            (
                features_of(node, problem),
                extractor.extract_into(vertex, np.zeros(width)),
                extractor.extract_into(vertex, [0.0] * width),
            )
        ),
    )
    assert len(extracted) == len(nodes)
    for index, (reference, row, list_row) in enumerate(extracted):
        assert tuple(reference) == extractor.feature_names  # same order, same names
        expected = list(reference.values())
        assert row.tolist() == expected
        assert list_row == expected
        if index < len(matrix):
            assert matrix[index].tolist() == expected


@pytest.mark.slow
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(GOAL_KINDS),
    counts=st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=3),
    seed=st.integers(min_value=0, max_value=2**20),
)
def test_block_cost_columns_match_scalar_edge_costs_at_search_nodes(kind, counts, seed):
    """Training's array-priced ``cost-of-X`` columns equal the scalar Equation-2
    body at the search nodes of the same path, template by template."""
    templates, vm_types, problem = _build_problem(kind, counts, two_types=True)
    extractor = FeatureExtractor(
        ProblemTables(templates, vm_types, problem.goal, TemplateLatencyModel(templates))
    )
    rng = random_module.Random(seed)
    nodes = _random_walk(problem, rng, max_steps=sum(counts) + 3)
    rows, _ = extractor.matrix(problem, [node.action.label for node in nodes[1:]])
    for node, row in zip(nodes, rows):
        scalar = [problem.placement_edge_cost(node, name) for name in templates.names]
        assert row[3::4].tolist() == [
            INFEASIBLE_COST if cost == float("inf") else cost for cost in scalar
        ]


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

    walked = [predict_vector(tree, row) for row in matrix]
    compiled = tree.compiled()
    assert [compiled.predict_row(row) for row in matrix] == walked

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

    # Missing features constant-fold exactly like predict()'s 0.0 default.
    dropped = data.draw(st.sampled_from(feature_names))
    reduced_order = [name for name in feature_names if name != dropped]
    folded = tree.compiled(reduced_order)
    reduced_columns = [feature_names.index(name) for name in reduced_order]
    for row in matrix:
        mapping = {name: row[feature_names.index(name)] for name in reduced_order}
        assert folded.predict_row(row[reduced_columns]) == predict(tree, mapping)


def test_compiled_cache_invalidated_by_refit():
    matrix = np.asarray([[0.0], [1.0], [2.0], [3.0]])
    tree = DecisionTreeClassifier(min_samples_leaf=1).fit(
        matrix, ["a", "a", "b", "b"], ["x"]
    )
    first = tree.compiled()
    assert tree.compiled() is first  # cached
    tree.fit(matrix, ["b", "b", "a", "a"], ["x"])
    assert tree.compiled() is not first
    assert tree.compiled().predict_row([0.0]) == predict_vector(tree, [0.0])


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
    """Distinct arrival times: epoch batching must equal one session pass per query."""
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

    def scheduler():
        return OnlineScheduler(
            base_training=trained_max,
            generator=model_generator,
            optimizations=OnlineOptimizations.all(),
            wait_resolution=60.0,
        )

    batched = scheduler().run(workload)
    session = scheduler().session()
    for query in sorted(workload, key=lambda q: (q.arrival_time, q.query_id)):
        session.submit([query])
    reference = session.outcome()

    assert _outcome_key(batched) == _outcome_key(reference)
    assert batched.overhead.decisions == reference.overhead.decisions
    assert batched.overhead.retrains == reference.overhead.retrains


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


#: The full-row oracle's feature extraction, kept even where a test forbids
#: the program from filling a full row.
_EXTRACT_INTO = FeatureExtractor.extract_into
#: The real ``decide``, kept while a test wraps it.
_DECIDE = DecisionModel.decide
#: The one Equation-2 body, which the oracle prices with uncounted.
_EDGE = ProblemTables.placement_edge_cost


class _CountingEdges:
    """*tables*' Equation-2 edge cost, counted: installed on the model's
    tables for one decision, it is all a decision may price with."""

    def __init__(self, tables) -> None:
        self.tables = tables
        self.calls = 0

    def __call__(self, node, template_name):
        self.calls += 1
        return _EDGE(self.tables, node, template_name)


def _full_row_label(model, node):
    """``(row, label, columns the path tests)`` from ``predict_row(extract_into(...))``."""
    extractor = model._extractor
    row = _EXTRACT_INTO(extractor, node, [0.0] * len(extractor.feature_names))
    evaluator = model.compiled_evaluator()
    label = evaluator.predict_row(row)
    features, thresholds, lefts, rights, _ = evaluator.scalar_arrays()
    path, index = [], 0
    while features[index] >= 0:
        path.append(int(features[index]))
        index = lefts[index] if row[features[index]] <= thresholds[index] else rights[index]
    return row, label, path


def _settle(model, label, node, walked):
    """What a decision must return at the vertex *node* for the tree's *label*, by the rules.

    Returns ``(action, DecisionStats delta, Equation-2 calls, cases reached)``.
    The rules, written out: a placement needs a VM (else the cheapest VM type
    for the template is provisioned) and an unassigned template the VM's type
    runs (else the remaining template it runs with the nearest base latency);
    a placement on a non-empty VM whose marginal penalty exceeds the start-up
    fee of the template's cheapest VM type becomes that provisioning when the
    penalty guard is on; a provisioning is refused on an empty VM (graph
    reduction) and an unknown VM type becomes the default one; a label naming
    no action of the specification provisions the default type with no VM.
    Where the VM must take a query the label cannot give, it takes the
    remaining template it runs at the cheapest edge, or, running none, a
    fresh VM of the first remaining template's cheapest type is provisioned.
    *walked* names the templates whose ``cost-of`` column the path tested:
    each cost the guard needs beyond them is one more Equation-2 call.
    """
    remaining = list(node.remaining)
    templates, vm_types = model.templates, model.vm_types
    vm_index = node.last_vm_index
    last = (vm_types.names[vm_index], tuple(node.queue)) if vm_index >= 0 else None
    latency = model.latency_model.latency
    kind, _, payload = label.partition(":")
    labelled = {"assign": PlaceQuery, "provision": ProvisionVM}.get(kind) if payload else None
    labelled = labelled(payload) if labelled else None
    cases = []
    calls = len(walked)

    def cheapest_vm_type(name):
        supporting = [vm for vm in vm_types if vm.supports(name)]
        return min(supporting, key=lambda vm: vm.running_cost * latency(name, vm))

    def take_a_query():
        nonlocal calls
        vm_type = vm_types[last[0]]
        candidates = [name for name in remaining if vm_type.supports(name)]
        if not candidates:
            cases.append("nothing placeable")
            return ProvisionVM(cheapest_vm_type(remaining[0]).name)
        cases.append("cheapest-edge fallback")
        calls += len(candidates)
        return PlaceQuery(min(candidates, key=lambda name: _EDGE(model.tables, node, name)))

    def guard(name):
        nonlocal calls
        if not model._penalty_guard or not last[1]:
            return PlaceQuery(name), False
        calls += name not in walked
        vm_type = vm_types[last[0]]
        fresh = cheapest_vm_type(name)
        edge = _EDGE(model.tables, node, name)
        if edge - vm_type.running_cost * latency(name, vm_type) > fresh.startup_cost:
            walk = "walked" if name in walked else "derived"
            cases.append(f"guard fired on a {walk} cost")
            return ProvisionVM(fresh.name), True
        cases.append("guard did not fire")
        return PlaceQuery(name), True

    if kind == "assign" and payload in templates:
        runs = vm_types[last[0]].supports if last is not None else None
        candidates = [name for name in remaining if runs and runs(name)]
        if last is None:
            cases.append("placement with no VM")
            action = ProvisionVM(cheapest_vm_type(payload).name)
        elif payload in candidates:
            cases.append("valid placement")
            action, _ = guard(payload)
        elif candidates:
            target = templates[payload].base_latency
            nearest = min(
                candidates, key=lambda name: abs(templates[name].base_latency - target)
            )
            action, guarded = guard(nearest)
            cases.append("nearest-latency fallback" + (", then guarded" if guarded else ""))
        else:
            action = take_a_query()
    elif kind == "provision" and payload:
        if last is not None and not last[1]:
            cases.append("provisioning refused on an empty VM")
            action = take_a_query()
        elif payload in vm_types:
            cases.append("provisioning accepted")
            action = labelled
        else:
            cases.append("unknown VM type")
            action = ProvisionVM(vm_types.default.name)
    else:
        cases.append("unknown template" if labelled else "unparseable label")
        action = ProvisionVM(vm_types.default.name) if last is None else take_a_query()
    provisions = isinstance(action, ProvisionVM)
    delta = {
        "decisions": 1,
        "fallbacks": int(action != labelled),
        "provision_decisions": int(provisions),
        "placement_decisions": int(not provisions),
        "guard_activations": sum(case.startswith("guard fired") for case in cases),
    }
    return action, delta, calls, cases


def _hold_decision(model, node, seen: Counter) -> tuple:
    """One ``decide`` at the vertex *node* against the full-row label settled by the rules: the
    action, the :class:`DecisionStats` delta and the Equation-2 calls (the
    path's ``cost-of`` columns once each, one more for a guard cost the path
    did not test, one per candidate on a cheapest-edge fallback) must all
    agree.  Counts the cases reached in *seen*; returns ``(action, path
    length, Equation-2 calls)``."""
    row, label, path = _full_row_label(model, node)
    families, names, _ = model._extractor.column_layout
    walked = {
        names[column] for column in path if FEATURE_FAMILIES[families[column]] == "cost_of"
    }
    expected, delta, calls, cases = _settle(model, label, node, walked)
    before = dataclasses.asdict(model.stats)
    counting = model.tables.placement_edge_cost = _CountingEdges(model.tables)
    try:
        action = _DECIDE(model, node)
    finally:
        del model.tables.placement_edge_cost
    after = dataclasses.asdict(model.stats)
    assert action == expected, (label, cases)
    assert {key: after[key] - before[key] for key in after} == delta, (label, cases)
    assert counting.calls == calls, (label, cases)
    seen.update(cases)
    for column in path:
        family = FEATURE_FAMILIES[families[column]]
        seen[family] += 1
        if family == "cost_of" and row[column] == INFEASIBLE_COST:
            seen["infeasible cost tested"] += 1
        if family == "supports" and row[column] == 0.0 and node.last_vm_index >= 0:
            seen["unsupported template tested"] += 1
    return action, len(path), counting.calls


def _check_decisions(monkeypatch, seen: Counter) -> None:
    """Hold every ``decide`` call against the oracle and count what it reached."""
    monkeypatch.setattr(
        DecisionModel,
        "decide",
        lambda self, node: _hold_decision(self, node, seen)[0],
    )


def _one_leaf(model, label):
    """*model*'s specification deciding *label* at every vertex."""
    names = model._extractor.feature_names
    return DecisionModel(
        tree=DecisionTreeClassifier.from_dict(_spine(names, [], [label])),
        extractor=model._extractor,
    )


#: Labels a fitted tree rarely or never emits, each decided at every vertex.
_ONE_LEAF_LABELS = (
    "assign:T1",
    "assign:T3",
    "provision:t2.small",
    "provision:NOPE",
    "assign:NOPE",
    "garbage",
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
        if catalog_name == "2vm" and kind == "per_query":
            for label in _ONE_LEAF_LABELS:
                BatchScheduler(_one_leaf(model, label)).run(batch)
        # The vertices of random search paths, stepped by ProblemTables.walk.
        problem = SchedulingProblem(
            template_counts={"T1": 3, "T2": 2, "T3": 2},
            templates=small_templates,
            vm_types=model.vm_types,
            goal=model.goal,
            latency_model=model.latency_model,
        )
        rng = random_module.Random(17)
        for _ in range(4):
            at_vertices(
                problem,
                _random_walk(problem, rng, max_steps=12),
                lambda node, vertex: vertex.remaining and model.decide(vertex),
            )
    # Aged templates: an augmented model trained mid-stream.
    generator, training = walk_trainings[("average", "1vm")]
    outcome = OnlineScheduler(training, generator, wait_resolution=60.0).run(aged)
    assert outcome.overhead.retrains > 0

    reached = FEATURE_FAMILIES + (
        "infeasible cost tested",
        "unsupported template tested",
        "valid placement",
        "guard fired on a walked cost",
        "guard fired on a derived cost",
        "guard did not fire",
        "nearest-latency fallback, then guarded",
        "provisioning accepted",
        "provisioning refused on an empty VM",
        "unknown VM type",
        "unknown template",
        "unparseable label",
        "placement with no VM",
        "cheapest-edge fallback",
        "nothing placeable",
    )
    assert not [case for case in reached if not seen[case]], dict(seen)


def test_batch_run_equals_full_row_decisions(trained_max, small_templates, monkeypatch):
    """One spot check through the public batch scheduler: a run whose every
    decision comes from the full-row oracle schedules and prices identically."""
    from repro.workloads.generator import WorkloadGenerator

    workload = WorkloadGenerator(small_templates, seed=31).uniform(40)
    scheduler = BatchScheduler(trained_max.model)
    walked = scheduler.run(workload)

    def oracle(self, node):
        label = _full_row_label(self, node)[1]
        return _settle(self, label, node, walked=set())[0]

    monkeypatch.setattr(DecisionModel, "decide", oracle)
    assert _outcome_key(scheduler.run(workload)) == _outcome_key(walked)


def test_a_model_reads_its_walk_table_once_per_evaluator(
    trained_max, small_templates, monkeypatch, tmp_path
):
    """Work guard: a model generates its walk function once per evaluator it
    compiles — in-process, in a ``with_penalty_guard`` copy, or reloaded from
    a registry — and never per decision, reading the evaluator's arrays once for it and building one
    settler per distinct label (one label parse each) before generating."""
    from repro.learning import model as model_module
    from repro.service.registry import ModelRegistry
    from repro.workloads.generator import WorkloadGenerator

    reads, generated, parsed = [], [], []
    real = CompiledTreeEvaluator.scalar_arrays
    monkeypatch.setattr(
        CompiledTreeEvaluator, "scalar_arrays", lambda self: reads.append(self) or real(self)
    )
    real_parse = model_module.action_from_label
    monkeypatch.setattr(
        model_module, "action_from_label", lambda label: parsed.append(label) or real_parse(label)
    )
    real_generate = model_module._generate_walk

    def generate(evaluator, extractor, settlers):
        labels = {str(label) for label in evaluator.labels}
        assert set(settlers) == labels and sorted(parsed[-len(labels):]) == sorted(labels)
        generated.append(evaluator)
        return real_generate(evaluator, extractor, settlers)

    monkeypatch.setattr(model_module, "_generate_walk", generate)
    model = trained_max.model.with_penalty_guard(True)  # a copy with no evaluator yet
    workload = WorkloadGenerator(small_templates, seed=31).uniform(40)
    compiled_run = BatchScheduler(model).run(workload)
    compiled = model.compiled_evaluator()
    labels = len(set(compiled.labels))
    assert compiled_run.overhead.decisions > 1 and reads == generated == [compiled]
    assert len(parsed) == labels

    copy_run = BatchScheduler(model.with_penalty_guard(True)).run(workload)
    assert generated == [compiled, compiled]  # the tree caches its evaluator
    registry = ModelRegistry(directory=tmp_path)
    registry.put("model", "base", {}, trained_max)
    registry.close()
    reloaded = ModelRegistry(directory=tmp_path)
    reloaded_model = reloaded.get("model").model
    reloaded_run = BatchScheduler(reloaded_model).run(workload)
    reloaded.close()
    assert generated[2:] == [reloaded_model.compiled_evaluator()] and len(reads) == 3
    assert len(parsed) == 3 * labels
    assert _outcome_key(copy_run) == _outcome_key(reloaded_run) == _outcome_key(compiled_run)


def test_a_decision_evaluates_only_what_its_path_tests(walk_trainings, small_templates, monkeypatch):
    """Work guard, counted at the one seam a decision prices through, its
    model's tables: Equation 2 runs once per ``cost-of-X`` column on the path, once
    more when the penalty guard needs a cost the path did not test, and once
    per candidate on a cheapest-edge fallback — not once per template on every
    decision — and nothing under ``schedule_detailed`` fills a full row."""
    from repro.workloads.generator import WorkloadGenerator

    def forbidden(*args, **kwargs):
        raise AssertionError("a runtime decision filled a full feature or cost row")

    monkeypatch.setattr(FeatureExtractor, "extract_into", forbidden)
    monkeypatch.setattr(RuntimeSchedulingContext, "placement_cost_row", forbidden)
    seen, most = Counter(), Counter()

    def decide(self, node):
        action, _, calls = _hold_decision(self, node, seen)
        most["evaluated"] = max(most["evaluated"], calls)
        most["decisions"] += 1
        return action

    monkeypatch.setattr(DecisionModel, "decide", decide)
    workload = WorkloadGenerator(small_templates, seed=12).uniform(60)
    for generator, training in walk_trainings.values():
        BatchScheduler(training.model).run(workload)
    assert most["decisions"] > 8 * len(workload) and 0 < most["evaluated"] <= 3
    assert seen["valid placement"] and seen["guard did not fire"]


# ---------------------------------------------------------------------------
# The generated walk function: deep trees, odd artifacts
# ---------------------------------------------------------------------------


def _hold_walk_against_oracle(model, problem, paths) -> int:
    """Every decision at the stepper vertices along the search *paths* agrees
    with the full-row oracle and the rules (:func:`_hold_decision`); the
    longest tree path."""
    seen: Counter = Counter()
    lengths = []
    for nodes in paths:
        at_vertices(
            problem,
            nodes,
            lambda node, vertex: vertex.remaining
            and lengths.append(_hold_decision(model, vertex, seen)[1]),
        )
    return max(lengths)


def _search_paths(model, counts, seed):
    """A problem over *model*'s specification and random search paths in it."""
    problem = SchedulingProblem(
        template_counts=dict(zip(model.templates.names, counts)),
        templates=model.templates,
        vm_types=model.vm_types,
        goal=model.goal,
        latency_model=model.latency_model,
    )
    rng = random_module.Random(seed)
    return problem, [_random_walk(problem, rng, max_steps=14) for _ in range(8)]


def _spine(feature_names, splits, labels, bottom=None, side="right") -> dict:
    """A ``DecisionTreeClassifier.to_dict`` payload: one split per level.

    Split ``k`` is ``(column, threshold)``; its child on *side* is the next
    split and the other a leaf.  The last split's child on *side* is *bottom*
    (a ``to_dict`` node), or a leaf.
    """

    def leaf(index):
        label = labels[index % len(labels)]
        return {"samples": 1, "class_counts": {label: 1}, "label": label}

    node = bottom if bottom is not None else leaf(len(splits))
    for index in reversed(range(len(splits))):
        column, threshold = splits[index]
        node = {
            **leaf(index),
            "feature_index": column,
            "threshold": threshold,
            "left": leaf(index),
            "right": leaf(index),
            side: node,
        }
    return {
        "max_depth": len(splits) + 1,
        "min_samples_leaf": 1,
        "min_samples_split": 2,
        "min_gain": 0.0,
        "feature_names": list(feature_names),
        "classes": sorted(set(labels)),
        "root": node,
    }


def test_a_walk_deeper_than_the_tokenizer_allows_continues_in_helpers(
    walk_trainings, small_templates, monkeypatch
):
    """A 260-split tree whose splits nest on their left: CPython's tokenizer
    stops at 100 indentation levels, so the generated walk splits into helper
    functions, and a helper reads the costs its caller computed back from
    ``costs``."""
    from repro.learning.model import _walk_source
    from repro.workloads.generator import WorkloadGenerator

    base = walk_trainings[("per_query", "2vm")][1].model
    names = base._extractor.feature_names
    problem, paths = _search_paths(base, (3, 2, 2), seed=5)
    rows = []
    for nodes in paths:
        at_vertices(
            problem,
            nodes,
            lambda node, vertex: rows.append(
                base._extractor.extract_into(vertex, [0.0] * len(names))
            ),
        )
    splits = []
    for index in range(260):
        column = index % len(names)
        values = sorted(row[column] for row in rows)
        # Every 40th split sends an eighth of the vertices to a leaf; the
        # rest send every vertex on down the spine.
        splits.append((column, values[-len(values) // 8] if index % 40 == 39 else values[-1] + 1.0))
    tree = DecisionTreeClassifier.from_dict(_spine(names, splits, base.tree._classes, side="left"))
    model = DecisionModel(tree=tree, extractor=base._extractor)
    source, _ = _walk_source(model.compiled_evaluator(), model._extractor)
    assert tree.depth() == 260 and "def walk_" in source
    assert max(len(line) - len(line.lstrip(" ")) for line in source.splitlines()) < 4 * 100
    assert _hold_walk_against_oracle(model, problem, paths) > 100
    _check_decisions(monkeypatch, Counter())
    BatchScheduler(model).run(WorkloadGenerator(small_templates, seed=8).uniform(30))


def test_a_walk_generated_from_an_artifact_with_odd_thresholds_and_names(monkeypatch):
    """Thresholds ±inf and nan are bound by name, and template and VM type
    names with quotes, backslashes and a newline enter the source through
    ``repr``: the walk still equals the oracle, and the source holds only
    int, float and string literals.  The trained tree, its thresholds made
    odd, sits under a spine that tests every column against nan and -inf
    (folded, for have-X and supports-X) and every cost-of-X against a
    threshold above INFEASIBLE_COST, where an infeasible cost goes left."""
    import ast
    import json
    import math

    from repro.learning.model import _walk_source
    from repro.workloads.generator import WorkloadGenerator

    templates = TemplateSet(
        [
            QueryTemplate(name='T"1', base_latency=units.minutes(1)),
            QueryTemplate(name="T'2\\", base_latency=units.minutes(2)),
            QueryTemplate(name="T\n3", base_latency=units.minutes(4)),
        ]
    )
    small = VMType(
        name='sm"all\\\n',
        running_cost=t2_medium().running_cost / 2,
        unsupported_templates=frozenset({"T\n3"}),
    )
    generator = ModelGenerator(
        templates=templates,
        vm_types=VMTypeCatalog([t2_medium(), small]),
        config=TrainingConfig(num_samples=16, queries_per_sample=6, seed=4, max_expansions=50_000),
    )
    data = generator.generate(default_goal("per_query", templates)).model.to_dict()
    odd = (math.inf, -math.inf, math.nan, 5.0e12, None)
    tested = Counter()
    stack = [data["tree"]["root"]]
    while stack:
        node = stack.pop()
        if "feature_index" in node:
            family = data["tree"]["feature_names"][node["feature_index"]].split("[")[0]
            threshold = odd[tested[family] % len(odd)]
            tested[family] += 1
            if threshold is not None:
                node["threshold"] = threshold
            stack += [node["left"], node["right"]]
    tree = data["tree"]
    columns = range(len(tree["feature_names"]))
    splits = [(column, threshold) for threshold in (math.nan, -math.inf) for column in columns]
    splits += [
        (column, 5.0e12) for column in columns if tree["feature_names"][column].startswith("cost_of")
    ]
    data["tree"] = _spine(tree["feature_names"], splits, tree["classes"], bottom=tree["root"])
    model = DecisionModel.from_dict(json.loads(json.dumps(data)))
    assert {"cost_of", "have"} <= set(tested)

    source, namespace = _walk_source(model.compiled_evaluator(), model._extractor)
    bound = {name: value for name, value in namespace.items() if name.startswith("t")}
    assert bound and not [value for value in bound.values() if math.isfinite(value)]
    strings = set(templates.names) | {"t2.medium", small.name} | set(model.tree._classes)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant):
            assert node.value is None or type(node.value) in (int, float) or node.value in strings
    problem, paths = _search_paths(model, (3, 2, 2), seed=9)
    _hold_walk_against_oracle(model, problem, paths)
    seen: Counter = Counter()
    _check_decisions(monkeypatch, seen)
    BatchScheduler(model).run(WorkloadGenerator(templates, seed=4).uniform(40))
    assert seen["cost_of"] and seen["have"]
