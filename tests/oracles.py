"""Reference implementations the tests hold the program against.

None of these runs in the program: each is a slow, obviously-right version of
something the program does another way, a fixture shape or a lookup no entry
point needs.  They live here so that ``src/`` keeps only what its entry
points run.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Mapping, Sequence

from repro.cloud.latency import LatencyModel
from repro.cloud.vm import VMType
from repro.core.schedule import Schedule, VMAssignment
from repro.core.scheduler import SchedulingOutcome, timed_simulated_run
from repro.exceptions import ScheduleError, SpecificationError
from repro.learning.decision_tree import DecisionTreeClassifier
from repro.search.actions import PlaceQuery
from repro.serving.metrics import ServingMetrics, TenantMetrics
from repro.sla.base import PerformanceGoal
from repro.sla.percentile import PercentileGoal
from repro.workloads.arrivals import _validate, _workload, arrival_stream_rng
from repro.workloads.templates import TemplateSet
from repro.workloads.workload import Workload

# -- schedules -----------------------------------------------------------------


def validate_complete(schedule: Schedule, workload: Workload) -> None:
    """Check that *schedule* assigns *workload* exactly once.

    Raises :class:`ScheduleError` if any query is missing, duplicated, or not
    part of the workload.
    """
    scheduled = Counter(q.query_id for vm in schedule for q in vm.queries)
    expected = Counter(q.query_id for q in workload)
    duplicated = [qid for qid, count in scheduled.items() if count > 1]
    if duplicated:
        raise ScheduleError(f"queries scheduled more than once: {sorted(duplicated)}")
    missing = set(expected) - set(scheduled)
    if missing:
        raise ScheduleError(f"queries missing from the schedule: {sorted(missing)}")
    extra = set(scheduled) - set(expected)
    if extra:
        raise ScheduleError(f"queries not part of the workload: {sorted(extra)}")


# -- the decision tree's node walk ---------------------------------------------


def predict_vector(tree: DecisionTreeClassifier, vector: Sequence[float]) -> str:
    """The label the :class:`TreeNode` walk gives a row in fitted column order."""
    node = tree._require_fitted()
    while not node.is_leaf:
        node = node.left if vector[node.feature_index] <= node.threshold else node.right
    return node.label


def predict(tree: DecisionTreeClassifier, features: Mapping[str, float]) -> str:
    """The node walk's label for a feature mapping (missing features read as 0)."""
    return predict_vector(tree, [features.get(name, 0.0) for name in tree._feature_names])


# -- checked search-state transitions ------------------------------------------

#: A vertex's state as the paper defines it (Section 4.3), in plain tuples:
#: ``(vms, remaining)``, the VMs in provisioning order as ``(vm type name,
#: template queue)`` and the unassigned queries as sorted ``(name, count)``
#: pairs with positive counts.  The search never builds one; the tests
#: rebuild it from a node's path (:func:`state_of`).
State = tuple


def initial_state(counts: Mapping[str, int]) -> State:
    """The start vertex's state: no VM, every query of *counts* unassigned."""
    return (), tuple(sorted((name, count) for name, count in counts.items() if count > 0))


def with_new_vm(state: State, vm_type_name: str) -> State:
    """Successor state after provisioning an empty VM of *vm_type_name*."""
    vms, remaining = state
    return vms + ((vm_type_name, ()),), remaining


def with_placement(state: State, template_name: str) -> State:
    """Successor state after placing one *template_name* query on the last VM."""
    vms, remaining = state
    if not vms:
        raise ValueError("cannot place a query before provisioning a VM")
    if template_name not in dict(remaining):
        raise ValueError(f"no unassigned query of template {template_name!r}")
    remaining = tuple(
        (name, count - 1) if name == template_name else (name, count)
        for name, count in remaining
        if name != template_name or count > 1
    )
    vm_type_name, queue = vms[-1]
    return vms[:-1] + ((vm_type_name, queue + (template_name,)),), remaining


def next_state(state: State, action) -> State:
    """Successor state after *action*, a placement or a provisioning."""
    if isinstance(action, PlaceQuery):
        return with_placement(state, action.template_name)
    return with_new_vm(state, action.vm_type_name)


def state_of(node, counts: Mapping[str, int]) -> State:
    """The state of the search node *node* of a problem over *counts*.

    Replays the actions on the node's path from :func:`initial_state`, each
    through the checked transitions above; reads nothing else of the node
    (not its row), so it does not depend on the search's own bookkeeping.
    """
    state = initial_state(counts)
    for vertex in node.path()[1:]:
        state = next_state(state, vertex.action)
    return state


# -- the percentile goal's cost-to-go -------------------------------------------


def percentile_future_cost(
    goal: PercentileGoal,
    assigned: Sequence[float],
    remaining: Sequence[float],
    min_startup_cost: float,
    completion_floors: bool = True,
) -> float:
    """``goal.future_cost_lower_bound``, straight line: merge and sort per VM count.

    The ``k``-th smallest remaining completion on ``m`` machines is bounded by
    the sum of the ``ceil(k / m)`` shortest latencies; with
    *completion_floors* also by the ``k``-th shortest latency, and the largest
    by the total work over ``m``.  ``completion_floors=False`` is the bound as
    it was before those two floors, the one the tightened bound must never
    fall below.
    """
    data = goal.to_dict()
    remaining = sorted(remaining)
    total = len(assigned) + len(remaining)
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(data["percent"] / 100.0 * total))
    prefix = [0.0, *itertools.accumulate(remaining)]
    best = math.inf
    for extra_vms in range(len(remaining) + 1):
        if extra_vms * min_startup_cost >= best:
            break
        machines = extra_vms + 1
        per_rank = [prefix[math.ceil(k / machines)] for k in range(1, len(remaining) + 1)]
        if completion_floors and remaining:
            per_rank = [max(bound, latency) for bound, latency in zip(per_rank, remaining)]
            per_rank[-1] = max(per_rank[-1], prefix[-1] / machines)
        value = sorted([*assigned, *per_rank])[rank - 1]
        violation = max(0.0, value - data["deadline"])
        best = min(best, extra_vms * min_startup_cost + data["penalty_rate"] * violation)
        if violation == 0.0:
            break
    return best


# -- the monotonic goals' cost-to-go ---------------------------------------------


def provisioning_future_cost(
    goal: PerformanceGoal,
    cheapest_time: Mapping[str, float],
    remaining: Sequence[tuple[str, int]],
    min_startup_cost: float,
    penalty: float,
    finish: float | None,
    one_machine: bool = True,
) -> float:
    """``ProvisioningBound``'s term, straight line: every VM count's candidate, eagerly.

    *remaining* is a row's ``(template, count)`` tuple in name order and
    *finish* the most recent VM's busy time (``None``: no VM yet).  ``k`` new
    VMs cost ``k`` start-up fees plus the penalty of ``max(U, W - slack - k
    D)``.  With *one_machine* the ``k = 0`` candidate also charges ``T1``:
    the remaining queries back to back on one machine, the sorted prefix sums
    of their cheapest latencies matched against their sorted deadlines.
    ``one_machine=False`` is the bound as it was before ``T1``, the one the
    bound must never fall below.
    """
    if goal.kind == "per_query":
        capacity = max(goal.deadlines.values())
    else:
        capacity = goal.deadline
    rate = goal.penalty_rate
    work = floor = 0.0
    for name, count in remaining:
        work += cheapest_time[name] * count
        floor += count * max(0.0, cheapest_time[name] - goal.query_deadline(name))
    names = [name for name, count in remaining for _ in range(count)]
    prefixes = itertools.accumulate(sorted(cheapest_time[name] for name in names))
    deadlines = sorted(goal.query_deadline(name) for name in names)
    tardiness = 0.0
    for prefix, deadline in zip(prefixes, deadlines):
        tardiness += max(0.0, prefix - deadline)
    slack = capacity - finish if finish is not None else 0.0
    overflow = work - max(slack, 0.0)
    stay = [floor, overflow, tardiness] if one_machine else [floor, overflow]
    candidates = [rate * max(stay)]
    for new_vms in range(1, int(max(overflow, 0.0) // capacity) + 2):
        unplaced = overflow - new_vms * capacity
        candidates.append(new_vms * min_startup_cost + rate * max(floor, unplaced))
    return penalty + min(candidates)


# -- trivial reference schedulers ----------------------------------------------


class _TrivialScheduler:
    """Scheduler-protocol plumbing for the two trivial reference schedulers.

    Constructed with a goal and a latency model, one answers
    ``run(workload) -> SchedulingOutcome``; ``schedule()`` works without them.
    """

    name = "Trivial"

    def __init__(
        self,
        vm_type: VMType,
        goal: PerformanceGoal | None = None,
        latency_model: LatencyModel | None = None,
    ) -> None:
        self._vm_type = vm_type
        self._goal = goal
        self._latency_model = latency_model

    def run(self, workload: Workload) -> SchedulingOutcome:
        """Schedule *workload* and report the unified outcome."""
        if self._goal is None or self._latency_model is None:
            raise SpecificationError(
                f"{self.name} needs a goal and a latency model to price outcomes; "
                "construct it with both to use the Scheduler protocol"
            )
        return timed_simulated_run(self, workload, self._goal, self._latency_model)


class OneQueryPerVMScheduler(_TrivialScheduler):
    """Rents a dedicated VM for every query: the most VMs, the least waiting."""

    name = "OneQueryPerVM"

    def schedule(self, workload: Workload) -> Schedule:
        """One VM per query, in workload order."""
        return Schedule(VMAssignment(self._vm_type, (query,)) for query in workload)


class SingleVMScheduler(_TrivialScheduler):
    """Queues the entire workload on one VM, shortest queries first."""

    name = "SingleVM"

    def schedule(self, workload: Workload) -> Schedule:
        """All queries on a single VM, ordered by increasing latency."""
        if workload.is_empty():
            return Schedule(())
        ordered = workload.sorted_by_latency(descending=False)
        return Schedule([VMAssignment(self._vm_type, tuple(ordered))])


# -- arrival shapes ------------------------------------------------------------


def bursty_arrivals(
    templates: TemplateSet,
    num_queries: int,
    base_rate: float,
    burst_rate: float,
    seed: int = 0,
    tenant: str = "default",
    enter_burst: float = 0.05,
    exit_burst: float = 0.25,
    quantum: float | None = None,
) -> Workload:
    """A two-state Markov-modulated Poisson stream (quiet / burst).

    The process draws exponential gaps at ``base_rate`` while quiet and at
    ``burst_rate`` while bursting; after every arrival it switches state with
    probability ``enter_burst`` (quiet→burst) or ``exit_burst`` (burst→quiet).
    With the defaults, bursts are rare but sticky enough to pile arrivals up.
    Deterministic per ``(seed, tenant)``, like
    :func:`repro.workloads.arrivals.poisson_arrivals`.
    """
    _validate(templates, num_queries)
    if base_rate <= 0 or burst_rate <= 0:
        raise SpecificationError("arrival rates must be positive")
    if burst_rate < base_rate:
        raise SpecificationError("burst_rate must be at least base_rate")
    for name, probability in (("enter_burst", enter_burst), ("exit_burst", exit_burst)):
        if not 0.0 <= probability <= 1.0:
            raise SpecificationError(f"{name} must be a probability in [0, 1]")
    rng = arrival_stream_rng("bursty", seed, tenant)
    current = 0.0
    bursting = False
    arrival_times = []
    for _ in range(num_queries):
        current += rng.expovariate(burst_rate if bursting else base_rate)
        arrival_times.append(current)
        if bursting:
            bursting = rng.random() >= exit_burst
        else:
            bursting = rng.random() < enter_burst
    return _workload(templates, rng, arrival_times, quantum)


# -- lookups -------------------------------------------------------------------


def tenant_entry(snapshot: ServingMetrics, name: str) -> TenantMetrics:
    """The serving-metrics snapshot entry for tenant *name*."""
    (entry,) = [entry for entry in snapshot.tenants if entry.tenant == name]
    return entry
