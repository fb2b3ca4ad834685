"""Workload generators: uniform sampling, skew, arrival processes."""

from __future__ import annotations

import pytest

from repro.exceptions import SpecificationError
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.skew import chi_squared_confidence


def test_uniform_workload_size(small_templates):
    generator = WorkloadGenerator(small_templates, seed=1)
    workload = generator.uniform(25)
    assert len(workload) == 25
    assert set(workload.template_counts()) <= set(small_templates.names)


def test_uniform_negative_size_rejected(small_templates):
    with pytest.raises(SpecificationError):
        WorkloadGenerator(small_templates, seed=1).uniform(-1)


def test_uniform_is_seeded(small_templates):
    first = WorkloadGenerator(small_templates, seed=5).uniform(20)
    second = WorkloadGenerator(small_templates, seed=5).uniform(20)
    assert [q.template_name for q in first] == [q.template_name for q in second]


def test_different_seeds_differ(small_templates):
    first = WorkloadGenerator(small_templates, seed=5).uniform(50)
    second = WorkloadGenerator(small_templates, seed=6).uniform(50)
    assert [q.template_name for q in first] != [q.template_name for q in second]


def test_sample_workloads_counts(small_templates):
    generator = WorkloadGenerator(small_templates, seed=2)
    samples = list(generator.sample_workloads(7, 5))
    assert len(samples) == 7
    assert all(len(sample) == 5 for sample in samples)


def test_uniform_sampling_covers_all_templates(tpch10):
    generator = WorkloadGenerator(tpch10, seed=3)
    workload = generator.uniform(500)
    counts = workload.template_counts()
    assert set(counts) == set(tpch10.names)
    # Uniform direct sampling: no template should dominate a large sample.
    assert max(counts.values()) < 2.5 * min(counts.values())


def test_from_proportions(small_templates):
    generator = WorkloadGenerator(small_templates, seed=4)
    workload = generator.from_proportions({"T1": 0.5, "T2": 0.25, "T3": 0.25}, 40)
    counts = workload.template_counts()
    assert counts["T1"] == 20
    assert counts["T2"] == 10
    assert counts["T3"] == 10


def test_from_proportions_unknown_template(small_templates):
    generator = WorkloadGenerator(small_templates, seed=4)
    with pytest.raises(SpecificationError):
        generator.from_proportions({"T9": 1.0}, 10)


def test_skewed_zero_equals_uniform_counts(small_templates):
    generator = WorkloadGenerator(small_templates, seed=5)
    workload = generator.skewed(30, skew=0.0)
    counts = workload.template_counts()
    assert all(count == 10 for count in counts.values())


def test_skewed_one_is_single_template(small_templates):
    generator = WorkloadGenerator(small_templates, seed=5)
    workload = generator.skewed(30, skew=1.0, dominant_index=1)
    counts = workload.template_counts()
    assert counts == {"T2": 30}


def test_skew_increases_chi_squared_confidence(tpch10):
    generator = WorkloadGenerator(tpch10, seed=6)
    low = generator.skewed(200, skew=0.1, dominant_index=0)
    high = generator.skewed(200, skew=0.9, dominant_index=0)
    low_conf = chi_squared_confidence(low.template_counts(), tpch10.names)
    high_conf = chi_squared_confidence(high.template_counts(), tpch10.names)
    assert high_conf > low_conf
    assert high_conf > 0.99


def test_fixed_arrivals(small_templates, small_workload):
    generator = WorkloadGenerator(small_templates, seed=7)
    arrivals = generator.with_fixed_arrivals(small_workload, delay=2.5)
    times = [q.arrival_time for q in arrivals]
    assert times == [2.5 * i for i in range(len(small_workload))]


def test_fixed_arrivals_rejects_negative_delay(small_templates, small_workload):
    generator = WorkloadGenerator(small_templates, seed=7)
    with pytest.raises(SpecificationError):
        generator.with_fixed_arrivals(small_workload, delay=-1.0)


def test_normal_arrivals_monotone(small_templates, small_workload):
    generator = WorkloadGenerator(small_templates, seed=8)
    arrivals = generator.with_normal_arrivals(small_workload, mean_delay=0.25, std_delay=0.125)
    times = [q.arrival_time for q in arrivals]
    assert times[0] == 0.0
    assert all(later >= earlier for earlier, later in zip(times, times[1:]))
