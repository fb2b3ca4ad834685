"""Every callable the frozen perf referee wraps still resolves.

``benchmarks/perf/trace.py`` replaces 34 public callables by attribute
(``owner.__dict__[name]``) before a traced run and reads counters off two
result types.  A rename in ``src/`` would otherwise only fail inside a traced
benchmark run; this fails in a second, in tier-1 and in the CI fast job.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.perf import trace  # noqa: E402

from repro.adaptive.retraining import AdaptiveModeler  # noqa: E402
from repro.search.astar import astar_search  # noqa: E402
from repro.search.problem import SchedulingProblem  # noqa: E402


def _resolve(module_name, class_name, attribute):
    """The original ``Tracer.install`` would wrap, found the way it finds it."""
    module = importlib.import_module(module_name)
    if class_name is None:
        return getattr(module, attribute)
    return getattr(module, class_name).__dict__[attribute]


@pytest.mark.parametrize("target", trace.TARGETS, ids=lambda target: target[0])
def test_target_resolves(target):
    _, module_name, class_name, attribute, _ = target
    original = _resolve(module_name, class_name, attribute)
    assert callable(original), original


def test_aliases_follow_a_target_and_name_the_same_function():
    wrapped = {(module, owner, attribute) for _, module, owner, attribute, _ in trace.TARGETS}
    for key, aliases in trace.ALIASES.items():
        assert key in wrapped
        module_name, class_name, attribute = key
        for alias in aliases:
            assert _resolve(module_name, class_name, alias) is _resolve(*key)


def test_install_and_uninstall_round_trip():
    before = [_resolve(*target[1:4]) for target in trace.TARGETS]
    tracer = trace.Tracer(capacity=8)
    try:
        tracer.install()
        during = [_resolve(*target[1:4]) for target in trace.TARGETS]
    finally:
        tracer.uninstall()
    assert all(wrapper is not original for wrapper, original in zip(during, before))
    assert [_resolve(*target[1:4]) for target in trace.TARGETS] == before


def test_result_counters_read_real_results(
    model_generator, trained_max, small_templates, vm_catalog, latency_model
):
    results = {
        "search.astar.search": astar_search(
            SchedulingProblem(
                {"T1": 2, "T2": 1}, small_templates, vm_catalog, trained_max.goal, latency_model
            )
        ),
        "adaptive.retraining.retrain": AdaptiveModeler(model_generator, trained_max).retrain(
            trained_max.goal.shifted(30.0)
        ),
    }
    spans = {target[0] for target in trace.TARGETS}
    assert set(trace.RESULT_COUNTS) == set(results)
    for span, counters in trace.RESULT_COUNTS.items():
        assert span in spans
        for counter, getter in counters:
            value = getter(results[span])
            assert isinstance(value, int) and value >= 0, (counter, value)
