"""The pluggable search engine: strategies, future-cost bounds, admissibility.

Three contracts are locked here:

* **Admissibility** — every registered future-cost bound is a true lower
  bound: the f-value it induces at any vertex never exceeds the cost of the
  best complete schedule reachable through that vertex (checked directly by
  exhaustive completion on small random problems, for all four goal kinds),
  and exact A* under any registered bound returns the same optimal cost as
  the default engine.
* **Bit-identity of the default** — the engine's default strategy (exact A*
  with the memoized bound) produces the same f-values, expansion sequence,
  and generated counts as a plain reference implementation that knows nothing
  about the pluggable machinery: the refactor moved code, not behaviour
  (the golden-scenario digests pin the end-to-end version of this, and
  ``test_search_oracle.py`` pins every strategy × bound × goal kind against a
  frozen file).  Every f-value ``expand`` prices incrementally equals
  ``priority()``'s from-scratch one, for every bound and goal kind, with and
  without the adaptive ``h'``.
* **No silent degradation** — relaxed strategies report a sound
  ``cost_lower_bound``: never above the true optimum, so the derived
  optimality ratio never understates the loss.
"""

from __future__ import annotations

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.adaptive.retraining import AdaptiveBound
from repro.cloud.latency import TemplateLatencyModel
from repro.cloud.vm import single_vm_type_catalog, two_vm_type_catalog
from repro.config import TrainingConfig
from repro.exceptions import SpecificationError
from repro.search.astar import astar_search
from repro.search.bounds import registered_future_cost_bounds
from repro.search.problem import SchedulingProblem
from repro.search.strategy import (
    AStarStrategy,
    BeamSearchStrategy,
    WeightedAStarStrategy,
    registered_search_strategies,
    strategy_from_spec,
)
from repro.sla.average_latency import AverageLatencyGoal
from repro.sla.max_latency import MaxLatencyGoal
from repro.sla.per_query import PerQueryDeadlineGoal
from repro.sla.percentile import PercentileGoal
from repro.workloads.templates import QueryTemplate, TemplateSet
from repro.workloads.workload import Workload

TEMPLATES = TemplateSet(
    [
        QueryTemplate(name="T1", base_latency=units.minutes(1)),
        QueryTemplate(name="T2", base_latency=units.minutes(2)),
        QueryTemplate(name="T3", base_latency=units.minutes(4)),
    ]
)
LATENCY = TemplateLatencyModel(TEMPLATES)
CATALOGS = {
    "1vm": single_vm_type_catalog(),
    "2vm": two_vm_type_catalog(slow_templates=["T3"]),
}

workload_strategy = st.lists(
    st.sampled_from(TEMPLATES.names), min_size=1, max_size=5
).map(lambda names: Workload.from_template_names(TEMPLATES, names))

goal_strategy = st.sampled_from(
    [
        MaxLatencyGoal(deadline=units.minutes(6)),
        PerQueryDeadlineGoal.from_factor(TEMPLATES, factor=2.0),
        AverageLatencyGoal(deadline=units.minutes(3)),
        AverageLatencyGoal(deadline=units.minutes(5)),
        PercentileGoal(percent=75.0, deadline=units.minutes(4)),
        PercentileGoal(percent=90.0, deadline=units.minutes(6)),
    ]
)

catalog_strategy = st.sampled_from(sorted(CATALOGS))


def reference_astar(problem, max_expansions=None):
    """A deliberately plain A*: no incremental f-values, no strategy machinery.

    Computes every child's priority via :meth:`SchedulingProblem.priority`
    and uses the same frontier keys as the engine, so any divergence between
    this and the default strategy is a behaviour change in the refactor.
    Returns ``(cost, expansions, generated, expanded f-value sequence)``.
    """
    start = problem.initial_node()
    if start.state.is_goal():
        return start.partial_cost, 0, 1, []
    counter = 0
    generated = 1
    expansions = 0
    frontier = [((start.priority, start.state.remaining_total(), 0, start.depth), start)]
    visited = set()
    f_trace = []
    while frontier:
        key, node = heapq.heappop(frontier)
        if node.state in visited:
            continue
        visited.add(node.state)
        if not node.state.remaining:
            return node.partial_cost, expansions, generated, f_trace
        f_trace.append(key[0])
        expansions += 1
        for child in problem.expand(node):
            if child.state in visited:
                continue
            counter += 1
            generated += 1
            priority = problem.priority(child)
            heapq.heappush(
                frontier,
                ((priority, child.state.remaining_total(), -counter, child.depth), child),
            )
    raise AssertionError("no goal vertex reached")


def exhaustive_best_completion(problem, node, cache):
    """Minimum cost over *every* complete schedule reachable through *node*.

    Memoised per state: a vertex of this graph fully determines its partial
    schedule and cost, so the best-completion value is a state property.
    Dead ends (a provisioned VM type that supports nothing remaining) value
    as ``inf``, which makes any finite f-value trivially admissible there.
    """
    state = node.state
    cached = cache.get(state)
    if cached is not None:
        return cached
    if not state.remaining:
        value = node.partial_cost
    else:
        value = float("inf")
        for child in problem.expand(node):
            completion = exhaustive_best_completion(problem, child, cache)
            if completion < value:
                value = completion
    cache[state] = value
    return value


# ---------------------------------------------------------------------------
# Admissibility of every registered bound
# ---------------------------------------------------------------------------


@given(workload=workload_strategy, goal=goal_strategy, catalog=catalog_strategy)
@settings(max_examples=40, deadline=None)
def test_registered_bounds_never_exceed_true_completion_cost(workload, goal, catalog):
    """Direct admissibility: f(v) <= best complete-schedule cost through v."""
    vm_types = CATALOGS[catalog]
    for bound_name in registered_future_cost_bounds():
        problem = SchedulingProblem.for_workload(
            workload, vm_types, goal, LATENCY, future_bound=bound_name
        )
        start = problem.initial_node()
        # The start vertex plus its first two expansion levels cover empty,
        # provisioned-but-empty, and partially loaded VMs.
        nodes = [start]
        for node in problem.expand(start):
            nodes.append(node)
            nodes.extend(problem.expand(node))
        cache: dict = {}
        for node in nodes:
            truth = exhaustive_best_completion(problem, node, cache)
            assert node.priority <= truth + 1e-7, (
                f"{bound_name} bound overestimates at\n{node!r}\n"
                f"f={node.priority} > best completion {truth}"
            )


@given(workload=workload_strategy, goal=goal_strategy, catalog=catalog_strategy)
@settings(max_examples=40, deadline=None)
def test_every_registered_bound_finds_the_same_optimal_cost(workload, goal, catalog):
    """Exact A* under any registered bound returns the default optimal cost."""
    vm_types = CATALOGS[catalog]
    reference = None
    for bound_name in registered_future_cost_bounds():
        problem = SchedulingProblem.for_workload(
            workload, vm_types, goal, LATENCY, future_bound=bound_name
        )
        result = astar_search(problem)
        if reference is None:
            reference = result.cost
        else:
            assert result.cost == pytest.approx(reference, rel=1e-9, abs=1e-9)
        assert result.is_exact and result.optimality_ratio == 1.0


@given(
    workload=workload_strategy,
    goal=goal_strategy,
    catalog=catalog_strategy,
    adaptive=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_hook_matches_recompute_for_every_bound_and_goal(workload, goal, catalog, adaptive):
    """Expand-maintained f-values equal priority() recomputation, exactly.

    Every registered bound × every goal kind (the monotonic goals get the
    provisioning bound whatever the name), with and without ``h'`` raising
    the f-value.
    """
    vm_types = CATALOGS[catalog]
    adaptive_bound = None
    if adaptive:
        old_goal = goal.with_deadline(goal.deadline * 1.5)  # a looser reference
        old_cost = astar_search(
            SchedulingProblem.for_workload(workload, vm_types, old_goal, LATENCY)
        ).cost
        adaptive_bound = AdaptiveBound(old_goal, old_cost)
    for bound_name in registered_future_cost_bounds():
        problem = SchedulingProblem.for_workload(
            workload,
            vm_types,
            goal,
            LATENCY,
            future_bound=bound_name,
            adaptive_bound=adaptive_bound,
        )
        result = astar_search(problem)
        for node in result.path():
            assert node.priority == problem.priority(node), node.debug_dict()


@given(workload=workload_strategy, goal=goal_strategy)
@settings(max_examples=25, deadline=None)
def test_tight_bound_dominates_the_memoized_bound_pointwise(workload, goal):
    """tight f(v) >= memoized f(v) at every vertex ("tighter", not just different).

    Pointwise dominance is the principled guarantee — per-instance node
    counts can wobble either way on f-value ties (expansion order differs),
    which is why the bench asserts the aggregate reduction instead.
    """
    memoized_problem = SchedulingProblem.for_workload(
        workload, CATALOGS["1vm"], goal, LATENCY
    )
    tight_problem = SchedulingProblem.for_workload(
        workload, CATALOGS["1vm"], goal, LATENCY, future_bound="tight"
    )
    frontier = [(memoized_problem.initial_node(), tight_problem.initial_node())]
    for _ in range(2):
        next_frontier = []
        for memo_node, tight_node in frontier:
            assert tight_node.priority >= memo_node.priority - 1e-9, (
                memo_node.debug_dict(),
                tight_node.debug_dict(),
            )
            memo_children = memoized_problem.expand(memo_node)
            tight_children = tight_problem.expand(tight_node)
            # Both problems apply identical reductions, so the successor
            # lists align one-to-one.
            assert [c.action for c in memo_children] == [
                c.action for c in tight_children
            ]
            next_frontier.extend(zip(memo_children, tight_children))
        frontier = next_frontier


# ---------------------------------------------------------------------------
# Bit-identity of the default engine
# ---------------------------------------------------------------------------


@given(workload=workload_strategy, goal=goal_strategy, catalog=catalog_strategy)
@settings(max_examples=40, deadline=None)
def test_default_strategy_matches_reference_astar_bit_for_bit(workload, goal, catalog):
    vm_types = CATALOGS[catalog]
    engine = strategy_from_spec("astar").search(
        SchedulingProblem.for_workload(workload, vm_types, goal, LATENCY)
    )
    cost, expansions, generated, _ = reference_astar(
        SchedulingProblem.for_workload(workload, vm_types, goal, LATENCY)
    )
    assert engine.cost == cost
    assert engine.expansions == expansions
    assert engine.generated == generated
    assert engine.strategy == "astar"
    assert engine.is_exact


def test_default_strategy_expanded_f_values_match_reference():
    """The expansion order (f-value sequence) is identical, not just the sums."""
    workload = Workload.from_template_names(
        TEMPLATES, ["T1", "T2", "T3", "T3", "T1", "T2"]
    )
    goal = PercentileGoal(percent=90.0, deadline=units.minutes(5))
    _, _, _, reference_trace = reference_astar(
        SchedulingProblem.for_workload(workload, CATALOGS["1vm"], goal, LATENCY)
    )
    # Engine trace: re-run with a probe wrapped around expand.
    problem = SchedulingProblem.for_workload(workload, CATALOGS["1vm"], goal, LATENCY)
    engine_trace = []
    original_expand = problem.expand

    def probe(node):
        engine_trace.append(node.priority)
        return original_expand(node)

    problem.expand = probe  # type: ignore[method-assign]
    astar_search(problem)
    assert engine_trace == reference_trace


# ---------------------------------------------------------------------------
# Relaxed strategies: sound reporting, never silent degradation
# ---------------------------------------------------------------------------


@given(
    workload=workload_strategy,
    goal=goal_strategy,
    spec=st.sampled_from(["weighted_astar:1.5", "weighted_astar:3", "beam:1", "beam:4"]),
)
@settings(max_examples=40, deadline=None)
def test_relaxed_strategies_report_sound_lower_bounds(workload, goal, spec):
    optimal = astar_search(
        SchedulingProblem.for_workload(workload, CATALOGS["1vm"], goal, LATENCY)
    ).cost
    result = strategy_from_spec(spec).search(
        SchedulingProblem.for_workload(workload, CATALOGS["1vm"], goal, LATENCY)
    )
    # Never better than optimal; lower bound never above optimal, so the
    # reported ratio never understates the true degradation.
    assert result.cost >= optimal - 1e-9
    if result.cost_lower_bound is not None:
        assert result.cost_lower_bound <= optimal + 1e-7
    assert result.optimality_ratio >= result.cost / max(optimal, 1e-12) - 1e-6
    assert result.strategy == strategy_from_spec(spec).spec


@given(workload=workload_strategy, goal=goal_strategy)
@settings(max_examples=30, deadline=None)
def test_weighted_astar_respects_the_weight_guarantee(workload, goal):
    """cost <= W * optimal (valid here: a vertex fully determines its g-value)."""
    weight = 2.0
    optimal = astar_search(
        SchedulingProblem.for_workload(workload, CATALOGS["1vm"], goal, LATENCY)
    ).cost
    result = WeightedAStarStrategy(weight=weight).search(
        SchedulingProblem.for_workload(workload, CATALOGS["1vm"], goal, LATENCY)
    )
    assert result.cost <= weight * optimal + 1e-7


def test_wide_beam_is_exact_on_small_problems():
    workload = Workload.from_template_names(TEMPLATES, ["T1", "T2", "T3", "T3"])
    goal = AverageLatencyGoal(deadline=units.minutes(3))
    optimal = astar_search(
        SchedulingProblem.for_workload(workload, CATALOGS["1vm"], goal, LATENCY)
    ).cost
    result = BeamSearchStrategy(width=10_000).search(
        SchedulingProblem.for_workload(workload, CATALOGS["1vm"], goal, LATENCY)
    )
    assert result.cost == pytest.approx(optimal, rel=1e-9)
    # Nothing was pruned, so the beam proves its own optimality.
    assert result.is_exact


# ---------------------------------------------------------------------------
# Registry plumbing and configuration round-trips
# ---------------------------------------------------------------------------


def test_registries_expose_the_shipped_engines():
    assert set(registered_search_strategies()) >= {"astar", "weighted_astar", "beam"}
    assert set(registered_future_cost_bounds()) >= {"memoized", "tight"}


def test_strategy_spec_parsing_round_trips():
    assert isinstance(strategy_from_spec("astar"), AStarStrategy)
    weighted = strategy_from_spec("weighted_astar:2.5")
    assert isinstance(weighted, WeightedAStarStrategy) and weighted.weight == 2.5
    beam = strategy_from_spec("beam:64")
    assert isinstance(beam, BeamSearchStrategy) and beam.width == 64
    for spec in ("astar", "weighted_astar:2.5", "beam:64"):
        assert strategy_from_spec(spec).spec == spec
    with pytest.raises(SpecificationError):
        strategy_from_spec("simulated_annealing")
    with pytest.raises(SpecificationError):
        strategy_from_spec("astar:3")
    with pytest.raises(SpecificationError):
        WeightedAStarStrategy(weight=0.5)
    with pytest.raises(SpecificationError):
        BeamSearchStrategy(width=0)
    with pytest.raises(SpecificationError):
        SchedulingProblem.for_workload(
            Workload.from_template_names(TEMPLATES, ["T1"]),
            CATALOGS["1vm"],
            AverageLatencyGoal(deadline=units.minutes(3)),
            LATENCY,
            future_bound="imaginary",
        )


def test_training_config_strategy_fields_round_trip_and_keep_fingerprints():
    default = TrainingConfig.fast()
    assert "search_strategy" not in default.to_dict()
    assert "future_bound" not in default.to_dict()
    restored = TrainingConfig.from_dict(default.to_dict())
    assert restored.search_strategy == "astar"
    assert restored.future_bound == "memoized"

    tuned = default.with_search_strategy("beam:16").with_future_bound("tight")
    data = tuned.to_dict()
    assert data["search_strategy"] == "beam:16"
    assert data["future_bound"] == "tight"
    rebuilt = TrainingConfig.from_dict(data)
    assert rebuilt.search_strategy == "beam:16"
    assert rebuilt.future_bound == "tight"
    assert rebuilt.create_search_strategy() == BeamSearchStrategy(width=16)


def test_search_node_repr_surfaces_incremental_state():
    goal = PercentileGoal(percent=90.0, deadline=units.minutes(5))
    problem = SchedulingProblem.for_workload(
        Workload.from_template_names(TEMPLATES, ["T1", "T2"]),
        CATALOGS["1vm"],
        goal,
        LATENCY,
        adaptive_bound=AdaptiveBound(goal.with_deadline(units.minutes(4)), 0.0),
    )
    node = problem.initial_node()
    for _ in range(2):  # provision, then one placement (goal nodes skip the key)
        children = problem.expand(node)
        if not children:
            break
        node = children[0]
    text = repr(node)
    # Non-recursive (one vertex, not the whole parent chain) and complete:
    # the PR-4 auxiliary penalty and latency-key state are visible.
    assert text.count("SearchNode(") == 1
    assert "aux_penalty=" in text and "latency_key=" in text
    assert "bound_state=" in text
    debug = node.debug_dict()
    assert debug["aux_penalty"] >= 0.0  # carried, not the -1.0 sentinel
    assert debug["latency_key"] is not None
    assert "outcomes" in debug


# ---------------------------------------------------------------------------
# Composition with the adaptive-A* machinery (Section 5)
# ---------------------------------------------------------------------------


def test_adaptive_retraining_composes_with_tight_bound_and_relaxed_base():
    """The aux-goal adaptive bound composes with bounds/strategies safely.

    * Retraining under the ``tight`` bound re-finds the same per-sample
      optimal costs as the default engine (both exact, h' composes via max).
    * A base trained by a *relaxed* strategy records per-sample lower bounds,
      so retraining skips the Lemma-5.1 bound (whose soundness needs the true
      old optimum) instead of silently pruning the new optimum: every
      adapted sample still costs at least the exact retraining's optimum.
    """
    from repro.adaptive.retraining import AdaptiveModeler
    from repro.learning.trainer import ModelGenerator

    goal = PercentileGoal.from_factor(TEMPLATES)
    tightened = goal.tightened(0.3, TEMPLATES)
    config = TrainingConfig.tiny()

    with ModelGenerator(TEMPLATES, config=config) as generator:
        base = generator.generate(goal)
        exact, _ = AdaptiveModeler(generator, base).retrain(tightened)

    with ModelGenerator(
        TEMPLATES, config=config.with_future_bound("tight")
    ) as generator:
        base_tight = generator.generate(goal)
        adapted_tight, _ = AdaptiveModeler(generator, base_tight).retrain(tightened)
    assert [s.optimal_cost for s in adapted_tight.samples] == pytest.approx(
        [s.optimal_cost for s in exact.samples], rel=1e-9
    )
    assert adapted_tight.model.metadata.future_bound == "tight"

    with ModelGenerator(
        TEMPLATES, config=config.with_search_strategy("beam:2")
    ) as generator:
        base_beam = generator.generate(goal)
        assert base_beam.worst_optimality_ratio >= 1.0
        adapted_beam, _ = AdaptiveModeler(generator, base_beam).retrain(tightened)
    for beam_sample, exact_sample in zip(adapted_beam.samples, exact.samples):
        assert beam_sample.optimal_cost >= exact_sample.optimal_cost - 1e-9
    # The adapted *model* carries the relaxed run's worst ratio too: the
    # persisted artifact must not report an exact (1.0) provenance when its
    # retraining solves were relaxed.
    assert adapted_beam.model.training_optimality_ratio == pytest.approx(
        adapted_beam.worst_optimality_ratio
    )


class _UnregisteredKindGoal(AverageLatencyGoal):
    """A non-monotonic goal kind the tight bound has no specialisation for."""

    kind = "average_variant"


def test_tight_bound_falls_back_for_unknown_non_monotonic_goals():
    """"tight" on an unsupported goal kind degrades to the memoized bound."""
    workload = Workload.from_template_names(TEMPLATES, ["T1", "T2", "T3", "T2"])
    goal = _UnregisteredKindGoal(deadline=units.minutes(3))
    default = astar_search(
        SchedulingProblem.for_workload(workload, CATALOGS["1vm"], goal, LATENCY)
    )
    fallback = astar_search(
        SchedulingProblem.for_workload(
            workload, CATALOGS["1vm"], goal, LATENCY, future_bound="tight"
        )
    )
    assert fallback.cost == default.cost
    assert fallback.expansions == default.expansions
    assert fallback.generated == default.generated


def test_malformed_engine_specs_fail_fast_with_specification_errors():
    """Bad specs surface as SpecificationError at the API boundary, not as
    raw ValueErrors (or silent acceptance) deep inside a training worker."""
    from repro.service.service import WiSeDBService

    with pytest.raises(SpecificationError):
        strategy_from_spec("beam:1e3")  # int() would raise ValueError
    with pytest.raises(SpecificationError):
        strategy_from_spec("weighted_astar:nan")  # NaN must not pass the >= 1 check
    with pytest.raises(SpecificationError):
        strategy_from_spec("weighted_astar:inf")

    service = WiSeDBService()
    goal = AverageLatencyGoal(deadline=units.minutes(3))
    with pytest.raises(SpecificationError):
        service.register("bad-strategy", TEMPLATES, goal, search_strategy="beam:1e3")
    with pytest.raises(SpecificationError):
        service.register("bad-bound", TEMPLATES, goal, future_bound="imaginary")
    assert len(service) == 0  # nothing half-registered


def test_weighted_astar_with_weight_one_proves_optimality():
    """W=1 is exact A*; the result must report exact, not 'relaxed ratio 1.0'.

    This matters downstream: AdaptiveModeler only reuses the Lemma-5.1 bound
    for samples whose solve was provably optimal (cost_lower_bound is None).
    """
    workload = Workload.from_template_names(TEMPLATES, ["T1", "T2", "T3", "T3", "T1"])
    goal = PercentileGoal(percent=90.0, deadline=units.minutes(5))
    optimal = astar_search(
        SchedulingProblem.for_workload(workload, CATALOGS["1vm"], goal, LATENCY)
    ).cost
    result = WeightedAStarStrategy(weight=1.0).search(
        SchedulingProblem.for_workload(workload, CATALOGS["1vm"], goal, LATENCY)
    )
    assert result.cost == pytest.approx(optimal, rel=1e-12)
    assert result.is_exact and result.cost_lower_bound is None


def test_registered_custom_strategies_can_take_parameters():
    """The registry extension point supports parameterized third-party
    strategies via SearchStrategy.from_parameter (not a built-in special case)."""
    from dataclasses import dataclass

    from repro.search.strategy import (
        SEARCH_STRATEGIES,
        SearchStrategy,
        register_search_strategy,
    )

    @dataclass(frozen=True)
    class _EveryOther(BeamSearchStrategy):
        name = "every_other"

        @classmethod
        def from_parameter(cls, parameter):
            return cls(width=int(parameter) * 2)

    register_search_strategy(_EveryOther)
    try:
        resolved = strategy_from_spec("every_other:3")
        assert isinstance(resolved, _EveryOther) and resolved.width == 6
        with pytest.raises(SpecificationError):
            strategy_from_spec("every_other:x")
    finally:
        del SEARCH_STRATEGIES["every_other"]


def test_beam_backtracks_out_of_dead_end_provisions():
    """A narrow beam must not fail feasible problems whose cheapest provision
    edges lead to VM types that support nothing remaining: it backtracks to
    the pruned vertices instead of raising SearchError."""
    from repro.cloud.vm import VMType, VMTypeCatalog

    catalog = VMTypeCatalog(
        [
            VMType("useless", startup_cost=0.01, unsupported_templates=frozenset({"T1", "T2", "T3"})),
            VMType("good", startup_cost=0.10),
        ]
    )
    workload = Workload.from_template_names(TEMPLATES, ["T1", "T2", "T1"])
    goal = AverageLatencyGoal(deadline=units.minutes(3))
    optimal = astar_search(
        SchedulingProblem.for_workload(workload, catalog, goal, LATENCY)
    ).cost
    for width in (1, 2, 4):
        result = BeamSearchStrategy(width=width).search(
            SchedulingProblem.for_workload(workload, catalog, goal, LATENCY)
        )
        assert result.cost >= optimal - 1e-9
        if result.cost_lower_bound is not None:
            assert result.cost_lower_bound <= optimal + 1e-7
