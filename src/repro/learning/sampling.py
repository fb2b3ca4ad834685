"""Sample-workload generation for model training (Section 4.2).

The training pipeline draws ``N`` random sample workloads of ``m`` queries
each via *uniform direct sampling* of the query templates: every query in a
sample picks its template independently and uniformly at random.  Uniform
sampling yields a mixture of balanced and unbalanced samples, which is what
lets the learned model cope with both "usual" and skewed runtime workloads
(demonstrated in the paper's Section 7.5).
"""

from __future__ import annotations

from repro.config import TrainingConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.templates import TemplateSet
from repro.workloads.workload import Workload


def training_workloads(
    templates: TemplateSet, config: TrainingConfig
) -> list[Workload]:
    """The ``N`` uniform sample workloads of ``m`` queries used for training."""
    generator = WorkloadGenerator(templates, seed=config.seed)
    return list(
        generator.sample_workloads(config.num_samples, config.queries_per_sample)
    )
