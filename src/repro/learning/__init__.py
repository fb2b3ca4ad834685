"""Supervised learning of workload-management strategies (Section 4)."""

from repro.learning.dataset import TrainingSet
from repro.learning.decision_tree import (
    CompiledTreeEvaluator,
    DecisionTreeClassifier,
    TreeNode,
)
from repro.learning.features import FEATURE_FAMILIES, FeatureExtractor, INFEASIBLE_COST
from repro.learning.model import DecisionModel, DecisionStats, ModelMetadata
from repro.learning.sampling import training_workloads
from repro.learning.shm import (
    SharedArrayBundle,
    SharedArrayView,
    attach_arrays,
    attach_evaluator,
    pack_arrays,
    pack_evaluator,
    shared_memory_available,
)
from repro.learning.trainer import ModelGenerator, SampleSolution, TrainingResult

__all__ = [
    "FEATURE_FAMILIES",
    "INFEASIBLE_COST",
    "CompiledTreeEvaluator",
    "DecisionModel",
    "DecisionStats",
    "DecisionTreeClassifier",
    "FeatureExtractor",
    "ModelGenerator",
    "ModelMetadata",
    "SampleSolution",
    "SharedArrayBundle",
    "SharedArrayView",
    "TrainingResult",
    "TrainingSet",
    "TreeNode",
    "attach_arrays",
    "attach_evaluator",
    "pack_arrays",
    "pack_evaluator",
    "shared_memory_available",
    "training_workloads",
]
