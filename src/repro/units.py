"""Unit helpers shared across the library.

WiSeDB's cost model mixes three kinds of quantities:

* **time** — query latencies, deadlines, violation periods.  The library uses
  *seconds* (floats) everywhere internally; helpers convert from the
  minute-denominated numbers used in the paper.
* **money** — VM start-up fees, per-unit-time rental prices, and SLA penalties.
  The library uses *cents* (floats) internally, matching the paper's plots
  which are denominated in cents (Figures 9, 12, 21) or dollars (Figure 13).
* **rates** — cents per second (rental price, penalty rate).

Keeping the conversions in one module avoids the classic "was that minutes or
seconds?" bug class and makes the constants in :mod:`repro.config` readable.
"""

from __future__ import annotations

SECONDS_PER_MINUTE: float = 60.0
SECONDS_PER_HOUR: float = 3600.0
CENTS_PER_DOLLAR: float = 100.0


def minutes(value: float) -> float:
    """Convert *value* minutes to seconds."""
    return float(value) * SECONDS_PER_MINUTE


def seconds_to_minutes(value: float) -> float:
    """Convert *value* seconds to minutes."""
    return float(value) / SECONDS_PER_MINUTE


def dollars(value: float) -> float:
    """Convert *value* dollars to cents."""
    return float(value) * CENTS_PER_DOLLAR


def cents_to_dollars(value: float) -> float:
    """Convert *value* cents to dollars."""
    return float(value) / CENTS_PER_DOLLAR


def dollars_per_hour(value: float) -> float:
    """Convert a $/hour price into cents/second."""
    return dollars(value) / SECONDS_PER_HOUR


def format_cents(value: float) -> str:
    """Human-readable rendering of a cost in cents (e.g. ``'42.17c'``)."""
    return f"{value:.2f}c"


def format_dollars(value: float) -> str:
    """Human-readable rendering of a cost in cents as dollars (e.g. ``'$1.23'``)."""
    return f"${cents_to_dollars(value):.2f}"
