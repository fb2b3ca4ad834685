"""The workload-management decision model (Section 4.5).

A :class:`DecisionModel` wraps a fitted decision tree together with the
feature extractor its rows were written by, and so with the one compiled
specification that extractor reads: the
:class:`~repro.search.problem.ProblemTables` of its training pass, which hold
the templates, VM types, performance goal and latency model the model was
trained for.  Nothing else about the specification is kept or derived here.
Parsing the model repeatedly over a scheduling state yields a schedule: at
each step the model chooses either to place a query of some template on the
most recently provisioned VM, or to provision a new VM.

The runtime scheduler steps the vertex training walks its paths with, a
:class:`~repro.search.problem.VertexStepper`, and a decision reads its
running values: remaining counts, the last VM's type id, busy time, queue
and queue counts, goal accumulator and penalty.  It prices ``cost-of-X``
with the one Equation-2 body training prices with, on the very tables its
training pass solved on (:attr:`DecisionModel.tables`), and a feature the
model tests at runtime is the expression that filled that column of its
training set.
Training needs every column of every vertex (:meth:`FeatureExtractor.block
<repro.learning.features.FeatureExtractor.block>`); one decision does not:
:meth:`DecisionModel.decide` walks the tree and computes a feature only when
a node on the path tests it — a lookup for ``wait-time`` / ``supports-X`` /
``have-X``, a count over a length for ``proportion-of-X``, one Equation-2
evaluation for ``cost-of-X`` — so a parse costs O(tree height), as Section
6.2 prices it, instead of O(templates).  The full row stays as the oracle the
walk is tested against.

The walk is generated code, built the way :mod:`dataclasses` builds its
methods.  When a model compiles its tree — on its first decision, or when a
shard worker registers a shipped model
(:meth:`DecisionModel.compiled_evaluator`) — :func:`_walk_source` writes one
function, ``walk(node) -> Action``: the tree as nested ``if``
statements with thresholds as literals and each feature's expression inline,
and ``compile()`` runs once.  No decision reads the evaluator's arrays.  The
source is safe by construction: only ints and floats enter it as literals, a
threshold ``repr`` cannot round-trip (±inf, nan) is a global bound by name,
strings enter only through ``repr()``, comparisons whose outcome is fixed at
generation time (``have-X``, ``supports-X``) are decided then by Python float
comparison, and a path nested deeper than :data:`_MAX_NESTING` levels
continues in a helper function (CPython's tokenizer stops at 100 levels, and
``max_depth`` has no upper bound).

Because the decision tree is a statistical model, it can occasionally emit an
action that is invalid in the current state (e.g. "place a query of T3" when
no T3 instance remains).  The model applies the paper's common-sense fallbacks
— treat an unavailable template as the remaining template with the closest
latency, never stack two empty VMs — and records how often it had to do so.
Validation is not generated code: each leaf of the walk calls its label's
*settler*, an ordinary closure the model builds once per distinct label when
it compiles its tree (:meth:`DecisionModel._settlers`).  A settler checks its
label against sets and tables fixed then — a valid placement passes the
penalty guard, an unavailable one takes the nearest-latency template first, a
provisioning is taken where it is legal — and counts the decision, so the
walk returns the validated action.  The cases no settler settles — a label
naming no action of the specification, a placement with no VM, provisioning
on top of an empty VM, a last VM that can run no remaining template, a
complete schedule — share one general path, :meth:`DecisionModel._validate`.
Inlining the checks into the source instead grows it about fivefold and its
``compile()`` with it, which a model compiled mid-stream would pay.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Mapping

from repro.cloud.latency import (
    LatencyModel,
    latency_model_from_dict,
    latency_model_to_dict,
)
from repro.cloud.vm import VMTypeCatalog
from repro.exceptions import ModelError
from repro.learning.decision_tree import DecisionTreeClassifier
from repro.learning.features import FEATURE_FAMILIES, INFEASIBLE_COST, FeatureExtractor
from repro.search.actions import Action, PlaceQuery, ProvisionVM, action_from_label
from repro.search.problem import ProblemTables, VertexStepper
from repro.sla.base import PerformanceGoal
from repro.workloads.templates import TemplateSet


@dataclass
class DecisionStats:
    """Counters describing how a model has been used since the last reset.

    One object per model, and a registry hands identically specified tenants
    the same model: the counters then count every such tenant's decisions,
    and the per-run deltas a scheduler reports (fallbacks, guard activations)
    mix when those tenants run at the same time.  No schedule or cost reads
    them.
    """

    decisions: int = 0
    fallbacks: int = 0
    provision_decisions: int = 0
    placement_decisions: int = 0
    guard_activations: int = 0


@dataclass
class ModelMetadata:
    """Provenance of a trained model (used in reports and experiments)."""

    goal_kind: str
    num_training_samples: int = 0
    num_training_examples: int = 0
    training_time_seconds: float = 0.0
    tree_depth: int = 0
    tree_leaves: int = 0
    #: Search-strategy spec the training solves ran under (see
    #: :mod:`repro.search.strategy`).
    search_strategy: str = "astar"
    extra: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serializable representation.

        Still names the non-monotonic bound every model is now trained under
        (``"future_bound": "memoized"``, in its old place), so the metadata
        of stored artifacts round-trips byte for byte.
        """
        data = asdict(self)
        extra = data.pop("extra")
        data["future_bound"] = "memoized"
        data["extra"] = extra
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "ModelMetadata":
        """Rebuild metadata from :meth:`to_dict` output.

        Artifacts written while the non-monotonic bound was selectable carry
        a ``future_bound`` entry.  It is dropped: the goal alone now picks the
        bound, and a fitted tree decides without consulting it.
        """
        data = dict(data)
        data.pop("future_bound", None)
        return cls(**data)


_INF = float("inf")
#: Family codes in the extractor's ``column_layout`` (``wait_time`` is the rest).
_PROPORTION_OF, _SUPPORTS, _COST_OF, _HAVE = (
    FEATURE_FAMILIES.index(family)
    for family in ("proportion_of", "supports", "cost_of", "have")
)

#: ``if`` levels one generated function nests before the rest of a path moves
#: into a helper function: CPython's tokenizer stops at 100 indentation
#: levels, and a tree's ``max_depth`` has no upper bound.
_MAX_NESTING = 48

#: The locals a generated walk binds on first use along a path: the
#: expression each holds and the locals that expression reads.
_LOCALS = {
    "kind": ("node.last_vm_index", ()),
    "present": ("node.remaining", ()),
    "counts": ("node.queue_counts", ()),
    # ``count / inf`` is the 0.0 of an empty queue, as count is 0 there.
    "size": ("len(node.queue) or inf", ()),
    "edge": ("model_tables.placement_edge_cost", ()),
}


def _walk_source(evaluator, extractor: FeatureExtractor) -> tuple[str, dict]:
    """Source of ``walk(node) -> Action`` for *evaluator*, and its globals.

    *node* is a :class:`~repro.search.problem.VertexStepper`, and the walk
    reads its running values.  The tree becomes nested ``if`` statements,
    one per split whose outcome the vertex decides.  Every branch ends in a
    ``return``: a leaf returns ``s<k>(node, costs)``, the settler of the
    evaluator's label ``k`` (bound by :func:`_generate_walk`), so a split's
    right branch follows its ``if`` without an ``else``.  Each split tests the expression
    :meth:`FeatureExtractor.extract_into` writes into its column:

    * ``have-X`` (0.0 or 1.0) and ``supports-X`` (one value per VM type, 0.0
      with no VM) are folded: the threshold comparison runs here, in Python
      floats, and the source keeps only a set-membership test — of the
      remaining multiset, or of the last VM's type id (-1: no VM) — or
      nothing, when every outcome is the same;
    * ``wait-time``, ``proportion-of-X`` and ``cost-of-X`` are computed once
      per path into a local, ``cost-of-X`` through the one Equation-2 body,
      :meth:`ProblemTables.placement_edge_cost
      <repro.search.problem.ProblemTables.placement_edge_cost>`, of the
      extractor's tables (the global ``model_tables``), and memoized in
      ``costs`` for the penalty guard, with ``inf`` reading as
      ``INFEASIBLE_COST``;
    * a split whose two children are leaves with one label is that leaf,
      unless it is the first on its path to derive a ``cost-of-X``.

    Only ints and floats enter the source as literals, a threshold ``repr``
    cannot round-trip (±inf, nan) is a global bound by name, and every string
    enters through ``repr``.  A path nested deeper than :data:`_MAX_NESTING`
    levels continues in a helper function, which reads the costs computed
    above it back from ``costs``.
    """
    features, thresholds, lefts, rights, leaves = evaluator.scalar_arrays()
    families, names, positions = extractor.column_layout
    tables = extractor.tables
    namespace: dict = {"inf": _INF, "model_tables": tables}
    lines: list[str] = []

    def bind(local: str, bound: set[str], pad: str) -> None:
        if local not in bound:
            expression, reads = _LOCALS[local]
            for read in reads:
                bind(read, bound, pad)
            lines.append(f"{pad}{local} = {expression}")
            bound.add(local)

    functions = [("walk", 0, frozenset())]
    while functions:
        function, root, computed = functions.pop()
        if function == "walk":
            lines += ["def walk(node):", "    costs = {}"]
        else:
            lines.append(f"def {function}(node, costs):")
        stack = [(root, 1, set(), computed)]
        while stack:
            index, level, bound, computed = stack.pop()
            pad = "    " * level
            while True:
                column = features[index]
                if column < 0:
                    break
                threshold = float(thresholds[index])
                family = families[column]
                if family == _HAVE:
                    outcomes = {True: 1.0 <= threshold, False: 0.0 <= threshold}
                elif family == _SUPPORTS:
                    outcomes = {-1: 0.0 <= threshold}
                    for vm_index, runs in enumerate(tables.supports_table):
                        outcomes[vm_index] = float(runs[positions[column]]) <= threshold
                else:
                    break
                goes_left = set(outcomes.values())
                if len(goes_left) > 1:
                    break
                index = lefts[index] if goes_left.pop() else rights[index]
            if (
                column >= 0
                and features[lefts[index]] < 0
                and features[rights[index]] < 0
                and leaves[lefts[index]] == leaves[rights[index]]
                and (family != _COST_OF or column in computed)
            ):
                index, column = lefts[index], -1
            if column < 0:
                lines.append(f"{pad}return s{int(leaves[index])}(node, costs)")
                continue
            if level > _MAX_NESTING:
                helper = f"walk_{len(lines)}"
                functions.append((helper, index, computed))
                lines.append(f"{pad}return {helper}(node, costs)")
                continue
            name = repr(str(names[column]))
            if family == _HAVE:
                bind("present", bound, pad)
                condition = f"{name} in present" if outcomes[True] else f"{name} not in present"
            elif family == _SUPPORTS:
                bind("kind", bound, pad)
                left = ", ".join(str(kind) for kind, goes in outcomes.items() if goes)
                condition = f"kind in {{{left}}}"
            else:
                value = f"x{column}"
                if value not in bound:
                    if family == _COST_OF and column in computed:
                        lines.append(f"{pad}{value} = costs[{name}]")
                    elif family == _COST_OF:
                        bind("edge", bound, pad)
                        lines.append(f"{pad}{value} = costs[{name}] = edge(node, {name})")
                        computed = computed | {column}
                    elif family == _PROPORTION_OF:
                        bind("counts", bound, pad)
                        bind("size", bound, pad)
                        lines.append(f"{pad}{value} = counts.get({name}, 0) / size")
                    else:
                        lines.append(f"{pad}{value} = node.last_vm_finish")
                    bound.add(value)
                if math.isfinite(threshold):
                    limit = repr(threshold)
                else:
                    limit = f"t{index}"
                    namespace[limit] = threshold
                condition = f"{value} <= {limit}"
                # An infeasible cost reads as INFEASIBLE_COST.  ``inf <= t``
                # holds only for t = inf, where INFEASIBLE_COST <= t holds too,
                # so the two disagree only when INFEASIBLE_COST <= t < inf.
                if family == _COST_OF and INFEASIBLE_COST <= threshold < _INF:
                    condition += f" or {value} == inf"
            lines.append(f"{pad}if {condition}:")
            stack.append((rights[index], level, set(bound), computed))
            stack.append((lefts[index], level + 1, bound, computed))
    return "\n".join(lines) + "\n", namespace


def _generate_walk(
    evaluator, extractor: FeatureExtractor, settlers: Mapping[str, Callable]
) -> Callable[[VertexStepper], Action]:
    """``walk(node) -> Action`` compiled from :func:`_walk_source`.

    *settlers* maps each of the evaluator's labels to the settler its leaves
    call (:meth:`DecisionModel._settlers`).
    """
    source, namespace = _walk_source(evaluator, extractor)
    for index, label in enumerate(evaluator.labels):
        namespace[f"s{index}"] = settlers[str(label)]
    exec(compile(source, "<generated decision walk>", "exec"), namespace)
    return namespace["walk"]


class DecisionModel:
    """A trained workload-management strategy."""

    def __init__(
        self,
        tree: DecisionTreeClassifier,
        extractor: FeatureExtractor,
        metadata: ModelMetadata | None = None,
        penalty_guard: bool = True,
    ) -> None:
        self._tree = tree
        self._extractor = extractor
        self._metadata = metadata or ModelMetadata(goal_kind=extractor.tables.goal.kind)
        self._penalty_guard = penalty_guard
        self.stats = DecisionStats()
        #: Lazily built compiled evaluator, and the function generated from it
        #: (:func:`_generate_walk`) that :meth:`decide` calls.
        self._evaluator = None
        self._walker = None

    # -- accessors -------------------------------------------------------------

    @property
    def tree(self) -> DecisionTreeClassifier:
        """The underlying fitted decision tree."""
        return self._tree

    @property
    def templates(self) -> TemplateSet:
        """The workload specification the model was trained for."""
        return self._extractor.tables.templates

    @property
    def vm_types(self) -> VMTypeCatalog:
        """The VM catalogue the model can provision from."""
        return self._extractor.tables.vm_types

    @property
    def goal(self) -> PerformanceGoal:
        """The performance goal the model was trained for."""
        return self._extractor.tables.goal

    @property
    def latency_model(self) -> LatencyModel:
        """Latency estimates used when the model costs candidate placements."""
        return self._extractor.tables.latency_model

    @property
    def tables(self) -> ProblemTables:
        """The :class:`~repro.search.problem.ProblemTables` the model's rows were written on.

        Its extractor's, which is its training pass's: the runtime's problem.
        Every ``cost-of-X`` a decision reads, the penalty guard's execution
        costs and the kernel's steps come from it, for every pass of every
        scheduler the model decides for.
        """
        return self._extractor.tables

    @property
    def metadata(self) -> ModelMetadata:
        """Training provenance information."""
        return self._metadata

    @property
    def training_optimality_ratio(self) -> float:
        """Worst cost-vs-optimal ratio of the training solves (1.0 = exact).

        Models trained under a relaxed strategy (weighted A*, beam) carry the
        ratio in their metadata so downstream schedulers — and anyone reading
        a persisted artifact — can see how far the training schedules may sit
        above the optimum instead of the degradation being silent.  For a
        model adapted to an average or percentile goal 1.0 is observed, not
        proven: the Section-5 ``h'`` is not admissible for those kinds.
        """
        return float(self._metadata.extra.get("worst_optimality_ratio", 1.0))

    def with_penalty_guard(self, enabled: bool) -> "DecisionModel":
        """A copy of this model with the runtime penalty guard toggled.

        The guard is a small cost-aware safety net on top of the learned tree:
        when the tree asks for a placement whose marginal penalty already
        exceeds the price of renting a fresh VM (and renting one is legal), the
        scheduler provisions instead.  Our training corpora are orders of
        magnitude smaller than the paper's (pure-Python A* vs. their Java
        implementation), so rarely-visited feature-space regions are covered by
        only a handful of examples; the guard keeps those sparse regions from
        producing runaway penalties.  The ablation benchmark
        ``bench_ablation_penalty_guard`` quantifies its effect.
        """
        return DecisionModel(
            tree=self._tree,
            extractor=self._extractor,
            metadata=self._metadata,
            penalty_guard=enabled,
        )

    # -- persistence -------------------------------------------------------------

    def to_dict(self) -> dict:
        """Self-contained JSON-serializable representation of the model.

        Everything the model needs at runtime is embedded — the fitted tree,
        the workload specification (templates and VM catalogue), the goal, the
        latency estimates, and the feature families (always all five) — so
        :meth:`from_dict` restores a model whose schedules and costs are
        bit-identical to the original's.
        """
        return {
            "format": "wisedb-decision-model",
            "version": 1,
            "templates": self.templates.to_dict(),
            "vm_types": self.vm_types.to_dict(),
            "goal": self.goal.to_dict(),
            "latency_model": latency_model_to_dict(
                self.latency_model, self.templates, self.vm_types
            ),
            "feature_families": list(FEATURE_FAMILIES),
            "tree": self._tree.to_dict(),
            "metadata": self._metadata.to_dict(),
            "penalty_guard": self._penalty_guard,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "DecisionModel":
        """Rebuild a model from :meth:`to_dict` output.

        A model written while the extractor could drop families names fewer
        than all five; its tree splits on another row layout, so it is
        refused (:class:`ModelError`, which a registry quarantines as a miss).
        """
        from repro.sla.factory import goal_from_dict

        if data.get("format") != "wisedb-decision-model":
            raise ModelError("not a serialized WiSeDB decision model")
        if tuple(data["feature_families"]) != FEATURE_FAMILIES:
            raise ModelError(
                "model was built on the feature families "
                f"{data['feature_families']!r}; every model now decides on the "
                f"fixed row of {list(FEATURE_FAMILIES)!r}, so retrain it"
            )
        templates = TemplateSet.from_dict(data["templates"])
        tables = ProblemTables(
            templates,
            VMTypeCatalog.from_dict(data["vm_types"]),
            goal_from_dict(data["goal"]),
            latency_model_from_dict(data["latency_model"], templates),
        )
        return cls(
            tree=DecisionTreeClassifier.from_dict(data["tree"]),
            extractor=FeatureExtractor(tables),
            metadata=ModelMetadata.from_dict(data["metadata"]),
            penalty_guard=data.get("penalty_guard", True),
        )

    # -- raw prediction ----------------------------------------------------------

    def compiled_evaluator(self):
        """The fitted tree compiled onto the extractor's feature-row layout.

        The first call also generates :meth:`decide`'s walk from it, so a
        caller that wants that cost paid up front (a shard worker at
        registration) calls this once.
        """
        if self._evaluator is None:
            evaluator = self._tree.compiled(self._extractor.feature_names)
            # Both are built before either is kept: a failed generation changes nothing.
            walker = _generate_walk(evaluator, self._extractor, self._settlers(evaluator.labels))
            self._walker, self._evaluator = walker, evaluator
        return self._evaluator

    # -- validated decisions --------------------------------------------------------

    def decide(self, node: VertexStepper) -> Action:
        """The model's (validated) action at the vertex *node*, a stepper's.

        One call of the function generated from the tree when the model
        compiled it (:func:`_walk_source`): it computes a feature
        only when a node on the path tests it, so a parse costs O(tree
        height) (Section 6.2), and its leaf's settler (:meth:`_settlers`)
        validates the label and counts the decision.  Every price comes from
        the model's own :attr:`tables`.

        A decision keeps its working values local to the call — tenants that
        share this model object may decide at the same time — and shares only
        the :attr:`stats` counters (see :class:`DecisionStats`).
        """
        walker = self._walker
        if walker is None:
            self.compiled_evaluator()
            walker = self._walker
        return walker(node)

    # -- validation and fallbacks -----------------------------------------------------

    def _settlers(self, labels) -> dict[str, Callable]:
        """One settler per distinct label: ``settle(node, costs) -> Action``.

        A leaf of the generated walk returns its label's settler's answer,
        *costs* being the Equation-2 edge costs the path computed, by
        template.  Each settler validates its label at the vertex against
        sets and tables fixed here, applies the fallbacks, and updates
        :attr:`stats`:

        * ``assign:X`` for a template of the specification places X when X is
          unassigned and the last VM's type runs it, and otherwise the
          remaining template the VM runs whose base latency is nearest X's
          (a fallback; ties go to the first in the vertex's order).  Either
          placement then passes the penalty guard, which reads the path's
          cost of that template or makes one Equation-2 call;
        * ``provision:Y`` for a type of the catalogue is taken when queries
          remain and the last VM is absent or holds a query;
        * everything else goes to :meth:`_validate`: a label naming no action
          of the specification, a placement with no VM, provisioning on top
          of an empty VM, a last VM that can run no remaining template, and a
          complete schedule.

        The per-template tables are built once and shared by every label, so
        a label costs one closure (and, for a placement, its latency-distance
        table).
        """
        stats = self.stats
        validate = self._validate
        guard_on = self._penalty_guard
        tables = self.tables
        names = tables.tpl_names
        # Per VM type id.
        unsupported = [
            {name for name, runs in zip(names, row) if not runs} for row in tables.supports_table
        ]
        execution_cost = [
            {name: cost for name, (_, cost) in edges.items()} for edges in tables.edge_tables
        ]
        place = dict(zip(names, tables.place_actions))
        provisions = dict(zip(tables.vm_names, tables.provision_actions))
        # The guard's swap for a template: a fresh VM of the cheapest type
        # that runs it.  A template no type runs is never placed.
        swap = {}
        for name in names:
            if name in tables.cheapest_execution:
                vm_index = self._preferred_vm_index(name)
                swap[name] = (tables.provision_actions[vm_index], tables.startup_costs[vm_index])
        base_latency = {name: tables.templates[name].base_latency for name in names}

        def general(action, node):
            validated = validate(action, node)
            stats.decisions += 1
            if validated != action:
                stats.fallbacks += 1
            if isinstance(validated, ProvisionVM):
                stats.provision_decisions += 1
            else:
                stats.placement_decisions += 1
            return validated

        def placement(template):
            action = place[template]
            target = base_latency[template]
            distance = {name: abs(latency - target) for name, latency in base_latency.items()}

            def settle(node, costs):
                vm_index = node.last_vm_index
                if vm_index < 0:
                    return general(action, node)
                banned = unsupported[vm_index]
                remaining = node.remaining
                if template in remaining and template not in banned:
                    name = template
                else:
                    candidates = [name for name in remaining if name not in banned]
                    if not candidates:
                        return general(action, node)
                    name = min(candidates, key=distance.__getitem__)
                stats.decisions += 1
                if guard_on and node.queue:
                    # The placement's marginal penalty alone exceeds a fresh
                    # VM's fee, and provisioning is legal: renting is cheaper.
                    edge = costs.get(name)
                    if edge is None:
                        edge = tables.placement_edge_cost(node, name)
                    fresh, startup_cost = swap[name]
                    if edge - execution_cost[vm_index][name] > startup_cost:
                        stats.guard_activations += 1
                        stats.fallbacks += 1
                        stats.provision_decisions += 1
                        return fresh
                if name != template:
                    stats.fallbacks += 1
                stats.placement_decisions += 1
                return place[name]

            return settle

        def provisioning(action):
            def settle(node, costs):
                if node.remaining and (node.last_vm_index < 0 or node.queue):
                    stats.decisions += 1
                    stats.provision_decisions += 1
                    return action
                return general(action, node)

            return settle

        def fallback(action):
            def settle(node, costs):
                return general(action, node)

            return settle

        settlers = {}
        for label in dict.fromkeys(str(label) for label in labels):
            try:
                action = action_from_label(label)
            except ValueError:
                action = None
            if isinstance(action, PlaceQuery) and action.template_name not in place:
                action = None  # a template outside the specification: no action
            if isinstance(action, PlaceQuery):
                settlers[label] = placement(action.template_name)
            elif isinstance(action, ProvisionVM) and action.vm_type_name in tables.vm_types:
                settlers[label] = provisioning(provisions[action.vm_type_name])
            else:
                settlers[label] = fallback(action)
        return settlers

    def _validate(self, action: Action | None, node: VertexStepper) -> Action:
        """The general path: what the model does when no settler rule applies.

        *action* is the leaf's action, ``None`` for a label that names no
        action of the specification (unparseable, or an unknown template).
        Reached for such a label, a provisioning of an unknown VM type, a
        placement with no VM, provisioning on top of an empty VM, a last VM
        that can run no remaining template, and a complete schedule (which
        raises).  Anything that is not a legal provisioning becomes a
        placement on the last VM — the remaining template it runs at the
        cheapest Equation-2 edge — or, with no VM or nothing it can run, a
        fresh VM.
        """
        remaining = tuple(node.remaining)
        if not remaining:
            raise ModelError("the model was asked to act on a complete schedule")
        tables = self.tables
        vm_index = node.last_vm_index
        if isinstance(action, ProvisionVM) and (vm_index < 0 or node.queue):
            # Valid spot for a new VM; fix up unknown VM types.
            if action.vm_type_name in tables.vm_types:
                return action
            return tables.provision_actions[0]
        if vm_index < 0:
            if isinstance(action, PlaceQuery):
                return tables.provision_actions[self._preferred_vm_index(action.template_name)]
            return tables.provision_actions[0]
        # The last VM takes a query: provisioning again on an empty VM would
        # violate the graph reduction and could loop forever.  A template
        # outside the specification counts as run, as VMType.supports has it.
        runs = tables.supports_table[vm_index]
        tpl_id = tables.tpl_id
        candidates = [name for name in remaining if name not in tpl_id or runs[tpl_id[name]]]
        if not candidates:
            # Nothing placeable on the current VM: provision one that can help.
            return tables.provision_actions[self._preferred_vm_index(remaining[0])]
        edge = tables.placement_edge_cost
        return PlaceQuery(min(candidates, key=lambda name: edge(node, name)))

    def _preferred_vm_index(self, template_name: str) -> int:
        """Id in :attr:`tables` of the cheapest VM type (by execution cost) able
        to process *template_name*: the first in catalogue order with the
        lowest ``running_cost * latency``.
        """
        tables = self.tables
        template_index = tables.tpl_id.get(template_name)
        best, preferred = _INF, None
        if template_index is not None:
            for vm_index, row in enumerate(tables.run_cost_table):
                if row[template_index] < best:
                    best, preferred = row[template_index], vm_index
        if preferred is None:
            raise ModelError(
                f"no VM type in the catalogue supports template {template_name!r}"
            )
        return preferred
