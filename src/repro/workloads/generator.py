"""Workload generators: uniform sampling, skewed workloads, arrival processes.

Section 4.2 of the paper trains on *uniform direct sampling* of the query
templates: each sample workload draws every query template independently and
uniformly at random.  The evaluation additionally needs

* large runtime workloads with a chosen distribution over templates
  (Figures 9-13),
* skewed workloads with a target chi-squared confidence (Figures 20-21), and
* arrival processes for online scheduling (Figures 18-19: fixed inter-arrival
  delays and normally distributed inter-arrival times).

All generators take an explicit seed (or a :class:`random.Random`) so every
experiment in the repository is reproducible.
"""

from __future__ import annotations

import random
from typing import Iterator, Mapping

from repro.exceptions import SpecificationError
from repro.workloads.skew import proportions_to_counts, skewed_proportions
from repro.workloads.templates import TemplateSet
from repro.workloads.workload import Workload


class WorkloadGenerator:
    """Random workload factory over a fixed template set."""

    def __init__(self, templates: TemplateSet, seed: int | None = 0) -> None:
        self._templates = templates
        self._rng = random.Random(seed)

    @property
    def templates(self) -> TemplateSet:
        """The template universe this generator samples from."""
        return self._templates

    # -- uniform direct sampling (Section 4.2) --------------------------------

    def uniform(self, num_queries: int) -> Workload:
        """A workload whose queries are drawn i.i.d. uniformly over templates."""
        if num_queries < 0:
            raise SpecificationError("num_queries must be non-negative")
        names = self._templates.names
        chosen = [self._rng.choice(names) for _ in range(num_queries)]
        return Workload.from_template_names(self._templates, chosen)

    def sample_workloads(
        self, num_samples: int, queries_per_sample: int
    ) -> Iterator[Workload]:
        """The training corpus of Section 4.2: *N* samples of *m* queries each."""
        if num_samples < 0:
            raise SpecificationError("num_samples must be non-negative")
        for _ in range(num_samples):
            yield self.uniform(queries_per_sample)

    # -- distribution-controlled workloads ------------------------------------

    def from_proportions(
        self, proportions: Mapping[str, float], num_queries: int, shuffle: bool = True
    ) -> Workload:
        """A workload with (approximately) the given per-template proportions."""
        counts = proportions_to_counts(proportions, num_queries)
        names: list[str] = []
        for name, count in counts.items():
            if name not in self._templates:
                raise SpecificationError(f"unknown template in proportions: {name!r}")
            names.extend([name] * count)
        if shuffle:
            self._rng.shuffle(names)
        return Workload.from_template_names(self._templates, names)

    def skewed(
        self, num_queries: int, skew: float, dominant_index: int | None = None
    ) -> Workload:
        """A workload skewed towards a single (possibly random) dominant template.

        ``skew`` interpolates between uniform (0.0) and single-template (1.0);
        see :mod:`repro.workloads.skew` for the mapping onto the chi-squared
        confidence plotted in Figures 20-21.
        """
        if dominant_index is None:
            dominant_index = self._rng.randrange(len(self._templates))
        proportions = skewed_proportions(self._templates.names, skew, dominant_index)
        return self.from_proportions(proportions, num_queries)

    # -- arrival processes (Section 6.3 / Figures 18-19) ----------------------

    def with_fixed_arrivals(self, workload: Workload, delay: float) -> Workload:
        """Assign arrival times ``0, delay, 2*delay, ...`` to *workload*'s queries."""
        if delay < 0:
            raise SpecificationError("delay must be non-negative")
        queries = [
            query.with_arrival_time(index * delay)
            for index, query in enumerate(workload)
        ]
        return workload.with_queries(queries)

    def with_normal_arrivals(
        self, workload: Workload, mean_delay: float, std_delay: float
    ) -> Workload:
        """Assign arrival times with i.i.d. truncated-normal inter-arrival gaps.

        Matches the arrival process of Figure 19 (mean 0.25 s, std 0.125 s);
        negative draws are clamped to zero.
        """
        if mean_delay < 0 or std_delay < 0:
            raise SpecificationError("arrival delay parameters must be non-negative")
        current = 0.0
        queries = []
        for index, query in enumerate(workload):
            if index > 0:
                gap = max(0.0, self._rng.gauss(mean_delay, std_delay))
                current += gap
            queries.append(query.with_arrival_time(current))
        return workload.with_queries(queries)
