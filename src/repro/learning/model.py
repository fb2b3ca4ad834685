"""The workload-management decision model (Section 4.5).

A :class:`DecisionModel` wraps a fitted decision tree together with the
workload specification it was trained for (templates, VM types, performance
goal and latency model).  Parsing the model repeatedly over a scheduling state
yields a schedule: at each step the model chooses either to place a query of
some template on the most recently provisioned VM, or to provision a new VM.

The runtime scheduler re-uses the exact search machinery
(:class:`~repro.search.problem.SchedulingProblem` /
:class:`~repro.search.problem.SearchNode`) that training used, and a feature
the model tests at runtime is the expression that filled that column of its
training set.  Training needs every column of every vertex
(:meth:`FeatureExtractor.matrix <repro.learning.features.FeatureExtractor.matrix>`);
one decision does not: :meth:`DecisionModel.decide` walks the compiled tree
and computes a feature only when a node on the path tests it — a lookup for
``wait-time`` / ``supports-X`` / ``have-X``, a count over a length for
``proportion-of-X``, one Equation-2 evaluation for ``cost-of-X`` — so a parse
costs O(tree height), as Section 6.2 prices it, instead of O(templates).  The
full row stays as the oracle the walk is tested against.

Because the decision tree is a statistical model, it can occasionally emit an
action that is invalid in the current state (e.g. "place a query of T3" when
no T3 instance remains).  The model applies the paper's common-sense fallbacks
— treat an unavailable template as the remaining template with the closest
latency, never stack two empty VMs — and records how often it had to do so.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.cloud.latency import (
    LatencyModel,
    latency_model_from_dict,
    latency_model_to_dict,
)
from repro.cloud.vm import VMType, VMTypeCatalog
from repro.config import slow_path_enabled
from repro.exceptions import ModelError
from repro.learning.decision_tree import DecisionTreeClassifier
from repro.learning.features import FEATURE_FAMILIES, INFEASIBLE_COST, FeatureExtractor
from repro.search.actions import Action, PlaceQuery, ProvisionVM, action_from_label
from repro.search.problem import SchedulingProblem, SearchNode
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

    def reset(self) -> None:
        """Zero all counters."""
        self.decisions = 0
        self.fallbacks = 0
        self.provision_decisions = 0
        self.placement_decisions = 0
        self.guard_activations = 0


@dataclass
class ModelMetadata:
    """Provenance of a trained model (used in reports and experiments)."""

    goal_kind: str
    num_training_samples: int = 0
    num_training_examples: int = 0
    training_time_seconds: float = 0.0
    tree_depth: int = 0
    tree_leaves: int = 0
    #: Search-strategy / future-cost-bound specs the training solves ran
    #: under (see :mod:`repro.search.strategy` / :mod:`repro.search.bounds`).
    search_strategy: str = "astar"
    future_bound: str = "memoized"
    extra: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "ModelMetadata":
        """Rebuild metadata from :meth:`to_dict` output."""
        return cls(**dict(data))


_INF = float("inf")
#: Family codes in the extractor's ``column_layout`` (``wait_time`` is the rest).
_PROPORTION_OF, _SUPPORTS, _COST_OF, _HAVE = (
    FEATURE_FAMILIES.index(family)
    for family in ("proportion_of", "supports", "cost_of", "have")
)


class DecisionModel:
    """A trained workload-management strategy."""

    def __init__(
        self,
        tree: DecisionTreeClassifier,
        extractor: FeatureExtractor,
        templates: TemplateSet,
        vm_types: VMTypeCatalog,
        goal: PerformanceGoal,
        latency_model: LatencyModel,
        metadata: ModelMetadata | None = None,
        penalty_guard: bool = True,
    ) -> None:
        self._tree = tree
        self._extractor = extractor
        self._templates = templates
        self._vm_types = vm_types
        self._goal = goal
        self._latency_model = latency_model
        self._metadata = metadata or ModelMetadata(goal_kind=goal.kind)
        self._penalty_guard = penalty_guard
        self.stats = DecisionStats()
        #: Lazily built compiled evaluator :meth:`decide` walks.
        self._evaluator = None
        #: raw tree label -> parsed Action (or None for unparseable labels).
        self._action_cache: dict[str, Action | None] = {}
        #: template name -> cheapest supporting VM type (catalogue and latency
        #: model are immutable, so the answer never changes per model).
        self._preferred_vm_cache: dict[str, VMType] = {}
        #: vm type name -> per-template runtime tables (see :meth:`vm_tables`).
        self._vm_tables: dict[str, tuple[dict[str, float], dict[str, float]]] = {}

    # -- accessors -------------------------------------------------------------

    @property
    def tree(self) -> DecisionTreeClassifier:
        """The underlying fitted decision tree."""
        return self._tree

    @property
    def extractor(self) -> FeatureExtractor:
        """The feature extractor used at training time (and reused at runtime)."""
        return self._extractor

    @property
    def templates(self) -> TemplateSet:
        """The workload specification the model was trained for."""
        return self._templates

    @property
    def vm_types(self) -> VMTypeCatalog:
        """The VM catalogue the model can provision from."""
        return self._vm_types

    @property
    def goal(self) -> PerformanceGoal:
        """The performance goal the model was trained for."""
        return self._goal

    @property
    def latency_model(self) -> LatencyModel:
        """Latency estimates used when the model costs candidate placements."""
        return self._latency_model

    @property
    def metadata(self) -> ModelMetadata:
        """Training provenance information."""
        return self._metadata

    @property
    def search_strategy(self) -> str:
        """Spec of the search strategy the model was trained under."""
        return self._metadata.search_strategy

    @property
    def training_optimality_ratio(self) -> float:
        """Worst cost-vs-optimal ratio of the training solves (1.0 = exact).

        Models trained under a relaxed strategy (weighted A*, beam) carry the
        ratio in their metadata so downstream schedulers — and anyone reading
        a persisted artifact — can see how far the training schedules may sit
        above the optimum instead of the degradation being silent.
        """
        return float(self._metadata.extra.get("worst_optimality_ratio", 1.0))

    @property
    def penalty_guard_enabled(self) -> bool:
        """Whether the runtime penalty guard is active (see :meth:`with_penalty_guard`)."""
        return self._penalty_guard

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
            templates=self._templates,
            vm_types=self._vm_types,
            goal=self._goal,
            latency_model=self._latency_model,
            metadata=self._metadata,
            penalty_guard=enabled,
        )

    def describe(self) -> str:
        """One-line description of the model."""
        return (
            f"DecisionModel({self._goal.describe()}, "
            f"{len(self._templates)} templates, {len(self._vm_types)} VM types, "
            f"tree depth {self._metadata.tree_depth})"
        )

    # -- persistence -------------------------------------------------------------

    def to_dict(self) -> dict:
        """Self-contained JSON-serializable representation of the model.

        Everything the model needs at runtime is embedded — the fitted tree,
        the workload specification (templates and VM catalogue), the goal, the
        latency estimates, and the feature configuration — so
        :meth:`from_dict` restores a model whose schedules and costs are
        bit-identical to the original's.
        """
        return {
            "format": "wisedb-decision-model",
            "version": 1,
            "templates": self._templates.to_dict(),
            "vm_types": self._vm_types.to_dict(),
            "goal": self._goal.to_dict(),
            "latency_model": latency_model_to_dict(
                self._latency_model, self._templates, self._vm_types
            ),
            "feature_families": list(self._extractor.families),
            "tree": self._tree.to_dict(),
            "metadata": self._metadata.to_dict(),
            "penalty_guard": self._penalty_guard,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "DecisionModel":
        """Rebuild a model from :meth:`to_dict` output."""
        from repro.sla.factory import goal_from_dict

        if data.get("format") != "wisedb-decision-model":
            raise ModelError("not a serialized WiSeDB decision model")
        templates = TemplateSet.from_dict(data["templates"])
        vm_types = VMTypeCatalog.from_dict(data["vm_types"])
        extractor = FeatureExtractor(
            templates, vm_types, tuple(data["feature_families"])
        )
        return cls(
            tree=DecisionTreeClassifier.from_dict(data["tree"]),
            extractor=extractor,
            templates=templates,
            vm_types=vm_types,
            goal=goal_from_dict(data["goal"]),
            latency_model=latency_model_from_dict(data["latency_model"], templates),
            metadata=ModelMetadata.from_dict(data["metadata"]),
            penalty_guard=data.get("penalty_guard", True),
        )

    def save(self, path: str | Path) -> Path:
        """Write the model to *path* as JSON (parent directories are created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict()), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "DecisionModel":
        """Read a model previously written by :meth:`save`."""
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    # -- raw prediction ----------------------------------------------------------

    def predict_label(self, features: Mapping[str, float]) -> str:
        """The raw decision-tree label for a feature mapping."""
        return self._tree.predict(features)

    def _compiled_evaluator(self):
        """The fitted tree compiled onto the extractor's feature-row layout."""
        if self._evaluator is None:
            self._evaluator = self._tree.compiled(self._extractor.feature_names)
        return self._evaluator

    def compiled_evaluator(self):
        """The compiled flat-array evaluator behind the inference fast path.

        Public so the sharded serving layer can pack the evaluator's arrays
        into shared memory (:mod:`repro.learning.shm`) and ship them to
        worker processes zero-copy.
        """
        return self._compiled_evaluator()

    def use_evaluator(self, evaluator) -> None:
        """Adopt a pre-built evaluator for the inference fast path.

        Sharded serving workers attach the parent's compiled evaluator from
        shared memory and install it here, so per-dispatch predictions read
        the shared arrays instead of a per-worker copy of the tree.  The
        evaluator must have been compiled onto this model's extractor row
        layout; a mismatched feature order would silently misread rows, so it
        is refused up front.
        """
        if tuple(evaluator.feature_names) != tuple(self._extractor.feature_names):
            raise ModelError(
                "evaluator feature order does not match the model's extractor "
                f"({len(evaluator.feature_names)} vs "
                f"{len(self._extractor.feature_names)} features)"
            )
        self._evaluator = evaluator

    def predict_row(self, row: np.ndarray) -> str:
        """The raw label for one feature row in the extractor's column order."""
        return self._compiled_evaluator().predict_row(row)

    def predict_matrix(self, matrix: np.ndarray) -> list[str]:
        """Raw labels for a feature matrix in the extractor's column order."""
        return self._compiled_evaluator().predict_matrix(matrix)

    # -- validated decisions --------------------------------------------------------

    def decide(
        self,
        node: SearchNode,
        problem: SchedulingProblem,
        slow_path: bool | None = None,
    ) -> Action:
        """The model's (validated) action for the scheduling state *node*.

        One parse costs O(tree height) (Section 6.2): :meth:`_walk` descends
        the compiled tree and computes a feature only when a node tests it,
        unless ``REPRO_SLOW_PATH=1`` forces the legacy dict-extraction /
        node-walk path.  Both paths produce identical labels (asserted by the
        golden-scenario and equivalence suites).  *slow_path* lets a scheduler
        resolve the environment check once per run instead of once per
        decision; ``None`` consults the environment.

        A decision keeps its working values local to the call — tenants that
        share this model object may decide at the same time — and shares only
        the :attr:`stats` counters (see :class:`DecisionStats`).
        """
        if slow_path is None:
            slow_path = slow_path_enabled()
        if slow_path:
            features = self._extractor.extract(node, problem)
            raw_label = self._tree.predict(features)
            costs = None
        else:
            raw_label, costs = self._walk(node, problem)
        try:
            action = self._action_cache[raw_label]
        except KeyError:
            try:
                action = action_from_label(raw_label)
            except ValueError:
                action = None
            self._action_cache[raw_label] = action
        validated = self._validate(action, node, problem, costs)
        self.stats.decisions += 1
        if validated is not action and validated != action:
            self.stats.fallbacks += 1
        if isinstance(validated, ProvisionVM):
            self.stats.provision_decisions += 1
        else:
            self.stats.placement_decisions += 1
        return validated

    def _walk(
        self, node: SearchNode, problem: SchedulingProblem
    ) -> tuple[str, dict[str, float]]:
        """Raw label for *node*, computing a feature only when the path tests it.

        Each value is the expression
        :meth:`~repro.learning.features.FeatureExtractor.extract_into` writes
        into that column, so the label equals
        ``predict_row(extract_into(...))`` (the equivalence suite holds the
        two against each other).  Also returns the Equation-2 edge costs the
        path asked for, by template, for the penalty guard to reuse.
        """
        evaluator = self._evaluator
        if evaluator is None:
            evaluator = self._compiled_evaluator()
        features, thresholds, lefts, rights, leaves = evaluator.scalar_arrays()
        families, names, positions = self._extractor.column_layout
        state = node.state
        last = state.last_vm()
        present = state.remaining_name_set()
        costs: dict[str, float] = {}
        index = 0
        column = features[0]
        while column >= 0:
            family = families[column]
            if family == _HAVE:
                value = 1.0 if names[column] in present else 0.0
            elif family == _SUPPORTS:
                value = (
                    self._extractor.supports_rows[last[0]][positions[column]]
                    if last is not None
                    else 0.0
                )
            elif family == _COST_OF:
                name = names[column]
                value = costs.get(name)
                if value is None:
                    value = costs[name] = problem.placement_edge_cost(node, name)
                if value == _INF:
                    value = INFEASIBLE_COST
            elif family == _PROPORTION_OF:
                if last is not None and last[1]:
                    value = state.last_queue_counts().get(names[column], 0) / len(last[1])
                else:
                    value = 0.0
            else:
                value = node.last_vm_finish
            if value <= thresholds[index]:
                index = lefts[index]
            else:
                index = rights[index]
            column = features[index]
        return evaluator.labels[leaves[index]], costs

    # -- validation and fallbacks -----------------------------------------------------

    def _validate(
        self,
        action: Action | None,
        node: SearchNode,
        problem: SchedulingProblem,
        costs: dict[str, float] | None = None,
    ) -> Action:
        state = node.state
        if not state.remaining:
            raise ModelError("the model was asked to act on a complete schedule")
        last = state.last_vm()

        if isinstance(action, ProvisionVM):
            if last is None or last[1]:
                # Valid spot for a new VM; fix up unknown VM types.
                if action.vm_type_name in self._vm_types:
                    return action
                return ProvisionVM(self._vm_types.default.name)
            # The last VM is still empty: provisioning again would violate the
            # graph reduction and could loop forever, so place a query instead.
            return self._fallback_placement(node, problem)

        if isinstance(action, PlaceQuery):
            if last is None:
                return ProvisionVM(self._preferred_vm_type(action.template_name).name)
            vm_type = self._vm_types[last[0]]
            if state.has_remaining(action.template_name) and vm_type.supports(
                action.template_name
            ):
                return self._apply_penalty_guard(action, node, problem, costs)
            fallback = self._fallback_placement(
                node, problem, preferred=action.template_name
            )
            if isinstance(fallback, PlaceQuery):
                return self._apply_penalty_guard(fallback, node, problem, costs)
            return fallback

        # Unparseable label: place something sensible, or provision if we must.
        if last is None:
            return ProvisionVM(self._vm_types.default.name)
        return self._fallback_placement(node, problem)

    def vm_tables(self, vm_type_name: str) -> tuple[dict[str, float], dict[str, float]]:
        """Per-template runtime tables of one VM type, resolved once per model.

        ``(execution time, execution cost)`` by template name, holding the
        templates the type supports.  The catalogue and latency model never
        change under a model, so the schedulers share these across scheduling
        runs — the online scheduler in particular stops re-deriving them for
        every arrival epoch's batch pass.
        """
        tables = self._vm_tables.get(vm_type_name)
        if tables is None:
            vm_type = self._vm_types[vm_type_name]
            time_of = {
                name: self._latency_model.latency(name, vm_type)
                for name in self._templates.names
                if vm_type.supports(name)
            }
            cost_of = {
                name: vm_type.running_cost * execution_time
                for name, execution_time in time_of.items()
            }
            tables = self._vm_tables[vm_type_name] = (time_of, cost_of)
        return tables

    def _apply_penalty_guard(
        self,
        action: PlaceQuery,
        node: SearchNode,
        problem: SchedulingProblem,
        costs: dict[str, float] | None = None,
    ) -> Action:
        """Swap a clearly loss-making placement for a provisioning action.

        When the marginal penalty of the requested placement already exceeds
        the start-up fee of a fresh VM able to run the query — and provisioning
        is legal at this vertex — renting the VM is always the cheaper move.
        The guard compensates for feature-space regions that the (scaled-down)
        training corpus covers only sparsely; it can be disabled via
        :meth:`with_penalty_guard` and is ablated in the benchmark suite.

        *costs* carries the Equation-2 edge costs :meth:`_walk` computed for
        this vertex; the placement's is read back from it when the tree path
        tested that ``cost-of-X`` column and derived once otherwise.
        """
        if not self._penalty_guard:
            return action
        last = node.state.last_vm()
        if last is None or not last[1]:
            # Provisioning is not allowed on top of an empty VM; keep placing.
            return action
        name = action.template_name
        edge_cost = costs.get(name) if costs else None
        if edge_cost is None:
            edge_cost = problem.placement_edge_cost(node, name)
        penalty_part = edge_cost - self.vm_tables(last[0])[1][name]
        replacement_vm = self._preferred_vm_type(name)
        if penalty_part > replacement_vm.startup_cost:
            self.stats.guard_activations += 1
            return ProvisionVM(replacement_vm.name)
        return action

    def _fallback_placement(
        self,
        node: SearchNode,
        problem: SchedulingProblem,
        preferred: str | None = None,
    ) -> Action:
        """Best substitute placement when the predicted action is unavailable."""
        state = node.state
        last = state.last_vm()
        assert last is not None
        vm_type = self._vm_types[last[0]]
        candidates = [
            name for name in state.remaining_templates() if vm_type.supports(name)
        ]
        if not candidates:
            # Nothing placeable on the current VM: provision one that can help.
            remaining = state.remaining_templates()
            return ProvisionVM(self._preferred_vm_type(remaining[0]).name)
        if preferred is not None and preferred in self._templates:
            target_latency = self._templates[preferred].base_latency
            chosen = min(
                candidates,
                key=lambda name: abs(self._templates[name].base_latency - target_latency),
            )
            return PlaceQuery(chosen)
        # Otherwise pick the candidate whose placement-edge cost is lowest.
        chosen = min(candidates, key=lambda name: problem.placement_edge_cost(node, name))
        return PlaceQuery(chosen)

    def _preferred_vm_type(self, template_name: str) -> VMType:
        """Cheapest VM type (by execution cost) able to process *template_name*.

        Memoized: the catalogue and latency model never change under a model,
        and the penalty guard asks this question once per guarded placement.
        """
        cached = self._preferred_vm_cache.get(template_name)
        if cached is not None:
            return cached
        supporting = self._vm_types.supporting(template_name)
        if not supporting:
            raise ModelError(
                f"no VM type in the catalogue supports template {template_name!r}"
            )
        preferred = min(
            supporting,
            key=lambda vm: vm.running_cost * self._latency_model.latency(template_name, vm),
        )
        self._preferred_vm_cache[template_name] = preferred
        return preferred
