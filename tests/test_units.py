"""Unit conversions."""

from __future__ import annotations

import pytest

from repro import units


def test_minutes_to_seconds():
    assert units.minutes(2) == 120.0


def test_seconds_to_minutes_roundtrip():
    assert units.seconds_to_minutes(units.minutes(7.5)) == pytest.approx(7.5)


def test_dollars_to_cents():
    assert units.dollars(0.052) == pytest.approx(5.2)


def test_cents_to_dollars_roundtrip():
    assert units.cents_to_dollars(units.dollars(12.34)) == pytest.approx(12.34)


def test_dollars_per_hour_rate():
    # $0.052/hour == 5.2 cents / 3600 seconds.
    assert units.dollars_per_hour(0.052) == pytest.approx(5.2 / 3600.0)


def test_format_cents():
    assert units.format_cents(42.174) == "42.17c"


def test_format_dollars():
    assert units.format_dollars(123.0) == "$1.23"
