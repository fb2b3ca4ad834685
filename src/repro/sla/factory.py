"""Convenience constructors for the paper's default performance goals.

Section 7.1 evaluates four goals, each derived from the template latencies:

* ``Max`` — maximum latency 15 minutes (2.5x the longest template);
* ``PerQuery`` — each template's deadline is 3x its expected latency;
* ``Average`` — average latency 10 minutes (2.5x the mean template latency);
* ``Percent`` — 90% of queries within 10 minutes.

These helpers build all four from a template set so experiments can sweep over
"the paper's goals" with one call.
"""

from __future__ import annotations

from typing import Mapping

from repro import config
from repro.sla.average_latency import AverageLatencyGoal
from repro.sla.base import PerformanceGoal
from repro.sla.max_latency import MaxLatencyGoal
from repro.sla.per_query import PerQueryDeadlineGoal
from repro.sla.percentile import PercentileGoal
from repro.workloads.templates import TemplateSet

#: Display order used in the paper's figures.
GOAL_KINDS: tuple[str, ...] = ("per_query", "average", "max", "percentile")


def default_goal(
    kind: str,
    templates: TemplateSet,
    penalty_rate: float = config.DEFAULT_PENALTY_RATE,
) -> PerformanceGoal:
    """The paper's default goal of the given *kind* for *templates*."""
    if kind == "max":
        return MaxLatencyGoal.from_factor(templates, factor=2.5, penalty_rate=penalty_rate)
    if kind == "per_query":
        return PerQueryDeadlineGoal.from_factor(
            templates, factor=config.DEFAULT_PER_QUERY_FACTOR, penalty_rate=penalty_rate
        )
    if kind == "average":
        return AverageLatencyGoal.from_factor(
            templates, factor=2.5, penalty_rate=penalty_rate
        )
    if kind == "percentile":
        return PercentileGoal.from_factor(
            templates,
            percent=config.DEFAULT_PERCENTILE,
            factor=2.5,
            penalty_rate=penalty_rate,
        )
    raise ValueError(f"unknown goal kind: {kind!r}")


def goal_from_dict(data: Mapping) -> PerformanceGoal:
    """Rebuild a performance goal from :meth:`PerformanceGoal.to_dict` output.

    The inverse of ``goal.to_dict()`` for all four paper goals; used by the
    model registry to restore persisted decision models.  Values round-trip
    exactly, so restored goals produce bit-identical penalties.
    """
    kind = data["kind"]
    penalty_rate = data.get("penalty_rate", config.DEFAULT_PENALTY_RATE)
    if kind == "max":
        return MaxLatencyGoal(deadline=data["deadline"], penalty_rate=penalty_rate)
    if kind == "per_query":
        return PerQueryDeadlineGoal(
            deadlines=data["deadlines"], penalty_rate=penalty_rate
        )
    if kind == "average":
        return AverageLatencyGoal(deadline=data["deadline"], penalty_rate=penalty_rate)
    if kind == "percentile":
        return PercentileGoal(
            percent=data["percent"],
            deadline=data["deadline"],
            penalty_rate=penalty_rate,
        )
    raise ValueError(f"unknown goal kind: {kind!r}")
