"""Small numeric helpers shared by the evaluation harness and benchmarks."""

from __future__ import annotations

import math
from typing import Sequence


def percent_above(value: float, reference: float) -> float:
    """How many percent *value* exceeds *reference* (0 when reference is 0)."""
    if reference <= 0:
        return 0.0
    return (value - reference) / reference * 100.0


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (NaN for an empty sequence)."""
    if not values:
        return math.nan
    return sum(values) / len(values)


def spread(values: Sequence[float]) -> float:
    """Range (max - min) of the values (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    return max(values) - min(values)
