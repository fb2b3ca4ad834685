"""Multi-tenant WiSeDBService and the persistent model registry."""

from __future__ import annotations

import math
import sys
import threading

import pytest

from repro.adaptive.retraining import AdaptiveModeler
from repro.config import TrainingConfig
from repro.exceptions import SpecificationError
from repro.runtime.online import OnlineOptimizations
from repro.service import ModelRegistry, TenantSpec, WiSeDBService
from repro.sla.max_latency import MaxLatencyGoal
from repro.sla.per_query import PerQueryDeadlineGoal
from repro.workloads.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def config():
    return TrainingConfig.tiny(seed=17)


@pytest.fixture(scope="module")
def goals(small_templates):
    return {
        "max": MaxLatencyGoal.from_factor(small_templates, factor=2.5),
        "per_query": PerQueryDeadlineGoal.from_factor(small_templates, factor=3.0),
    }


@pytest.fixture(scope="module")
def trained_service(small_templates, config, goals):
    """A service with two tenants sharing a spec but differing in goal."""
    service = WiSeDBService()
    service.register("acme", small_templates, goals["max"], config=config)
    service.register("globex", small_templates, goals["per_query"], config=config)
    service.train_all()
    return service


def _batch_workload(small_templates, seed=71, size=14):
    return WorkloadGenerator(small_templates, seed=seed).uniform(size)


def _online_workload(small_templates, seed=72, size=5):
    generator = WorkloadGenerator(small_templates, seed=seed)
    return generator.with_fixed_arrivals(generator.uniform(size), delay=60.0)


# ---------------------------------------------------------------------------
# Fingerprints
# ---------------------------------------------------------------------------


def test_fingerprints_are_stable_and_goal_sensitive(small_templates, config, goals):
    spec_a = TenantSpec("a", small_templates, goals["max"], config=config)
    spec_b = TenantSpec("b", small_templates, goals["max"], config=config)
    spec_c = TenantSpec("c", small_templates, goals["per_query"], config=config)
    # Names never enter the fingerprint; goals do; the base excludes the goal.
    assert spec_a.fingerprint() == spec_b.fingerprint()
    assert spec_a.fingerprint() != spec_c.fingerprint()
    assert spec_a.base_fingerprint() == spec_c.base_fingerprint()


def test_n_jobs_never_enters_the_fingerprint(small_templates, config, goals):
    parallel = TenantSpec(
        "a", small_templates, goals["max"], config=config.with_n_jobs(8)
    )
    sequential = TenantSpec("a", small_templates, goals["max"], config=config)
    assert parallel.fingerprint() == sequential.fingerprint()


def test_spec_roundtrip(small_templates, config, goals):
    spec = TenantSpec("acme", small_templates, goals["per_query"], config=config)
    restored = TenantSpec.from_dict(spec.to_dict())
    assert restored.fingerprint() == spec.fingerprint()
    assert restored.name == "acme"


# ---------------------------------------------------------------------------
# Training through the registry
# ---------------------------------------------------------------------------


def test_goal_only_change_trains_adaptively(trained_service):
    assert trained_service.tenant("acme").provenance == "fresh"
    # Same templates/VM/config, different goal: the second tenant reuses the
    # first tenant's stored samples through the Section-5 adaptive path.
    assert trained_service.tenant("globex").provenance == "adaptive"


def test_equal_specs_share_one_model(trained_service, small_templates, config, goals):
    trained_service.register("acme-staging", small_templates, goals["max"], config=config)
    result = trained_service.train("acme-staging")
    assert trained_service.tenant("acme-staging").provenance == "registry"
    assert result is trained_service.tenant("acme").training


def test_registry_cache_hit_returns_same_model_as_fresh_train(
    trained_service, small_templates, config, goals
):
    """A second service over the same registry trains nothing and matches."""
    sibling = WiSeDBService(registry=trained_service.registry)
    sibling.register("other", small_templates, goals["max"], config=config)
    result = sibling.train("other")
    assert sibling.tenant("other").provenance == "registry"
    workload = _batch_workload(small_templates)
    original = trained_service.schedule_batch("acme", workload)
    mirrored = sibling.schedule_batch("other", workload)
    assert result is trained_service.tenant("acme").training
    assert mirrored.schedule.signature() == original.schedule.signature()
    assert mirrored.cost == original.cost


def test_adapt_registers_artifact_for_later_switch(trained_service, small_templates):
    goal = trained_service.tenant("acme").spec.goal.tightened(0.35, small_templates)
    result, report = trained_service.adapt("acme", goal)
    assert report.samples_retrained > 0
    # The tenant itself did not move...
    assert trained_service.tenant("acme").training.model.goal.deadline > goal.deadline
    # ...but switching to the adapted goal is now a registry hit.
    trained_service.register(
        "acme-adapted",
        small_templates,
        goal,
        config=trained_service.tenant("acme").spec.config,
    )
    switched = trained_service.train("acme-adapted")
    assert trained_service.tenant("acme-adapted").provenance == "registry"
    assert switched is result


def test_fresh_mode_rejects_adaptively_derived_artifacts(
    trained_service, small_templates
):
    """mode="fresh" must not serve an exact hit that was trained adaptively."""
    goal = trained_service.tenant("acme").spec.goal.tightened(0.15, small_templates)
    trained_service.adapt("acme", goal)  # registers an adaptive artifact for `goal`
    trained_service.register(
        "acme-fresh",
        small_templates,
        goal,
        config=trained_service.tenant("acme").spec.config,
    )
    trained_service.train("acme-fresh", mode="fresh")
    # The adaptive artifact exists under this exact fingerprint, but fresh mode
    # retrains from scratch instead of serving it.
    assert trained_service.tenant("acme-fresh").provenance == "fresh"


def test_adapt_never_demotes_a_fresh_artifact(small_templates, goals, config):
    """Adapting to a tenant's own goal leaves its fresh artifact in place."""
    service = WiSeDBService()
    tenant = service.register("a", small_templates, goals["max"], config=config)
    fresh = service.train("a")
    fingerprint = tenant.spec.fingerprint()
    service.adapt("a", tenant.spec.goal)
    assert service.registry.provenance(fingerprint) == "fresh"
    assert service.registry.get(fingerprint) is fresh
    # So fresh mode still serves it instead of training from scratch.
    service.register("b", small_templates, goals["max"], config=config)
    assert service.train("b", mode="fresh") is fresh
    assert service.tenant("b").provenance == "registry"


def _ladders(small_templates, goals):
    """Four interleaved tightening ladders over two tenants of one base."""
    return [
        [
            (name, goals[kind].tightened(percent / 100.0, small_templates))
            for percent in range(2 + 2 * (thread // 2), 32, 4)
        ]
        for thread, (name, kind) in enumerate(
            [("acme", "max"), ("globex", "per_query")] * 2
        )
    ]


def _two_tenant_service(small_templates, goals, config):
    service = WiSeDBService(n_jobs=1)
    service.register("acme", small_templates, goals["max"], config=config)
    service.register("globex", small_templates, goals["per_query"], config=config)
    service.train_all()
    return service


def test_the_shared_modeler_is_safe_across_threads(small_templates, goals, config):
    """Four threads adapt two tenants of one base through one shared modeler."""
    ladders = _ladders(small_templates, goals)
    serial = _two_tenant_service(small_templates, goals, config)
    expected = {
        (name, goal.deadline): [s.optimal_cost for s in serial.adapt(name, goal)[0].samples]
        for ladder in ladders
        for name, goal in ladder
    }

    service = _two_tenant_service(small_templates, goals, config)
    barrier = threading.Barrier(len(ladders))
    errors: list[BaseException] = []
    costs: dict[tuple[str, float], list[float]] = {}

    def walk(ladder):
        try:
            barrier.wait(timeout=60)
            for name, goal in ladder:
                result, _ = service.adapt(name, goal)
                costs[name, goal.deadline] = [s.optimal_cost for s in result.samples]
        except Exception as error:  # reported below
            errors.append(error)

    threads = [threading.Thread(target=walk, args=(ladder,)) for ladder in ladders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to interleave the adapts
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert costs.keys() == expected.keys()
    for key, oracle in expected.items():
        assert len(costs[key]) == len(oracle)
        assert all(math.isclose(a, b, rel_tol=1e-12) for a, b in zip(costs[key], oracle))


def test_a_second_recommendation_searches_nothing(
    small_templates, goals, config, monkeypatch
):
    service = WiSeDBService()
    service.register("acme", small_templates, goals["max"], config=config)
    first = service.recommend_strategies("acme", k=2, num_candidates=5, max_shift=0.4)

    reports = []
    original = AdaptiveModeler.retrain

    def recording(self, goal):
        result, report = original(self, goal)
        reports.append(report)
        return result, report

    monkeypatch.setattr(AdaptiveModeler, "retrain", recording)
    second = service.recommend_strategies("acme", k=2, num_candidates=5, max_shift=0.4)
    assert len(reports) == 4  # every candidate but the application goal itself
    for report in reports:
        assert report.samples_kept == report.samples_retrained > 0
        assert report.total_expansions == 0
    assert [s.goal.to_dict() for s in second] == [s.goal.to_dict() for s in first]
    assert [s.profile for s in second] == [s.profile for s in first]


# ---------------------------------------------------------------------------
# Tenant lifecycle
# ---------------------------------------------------------------------------


def test_duplicate_registration_rejected(trained_service, small_templates, goals, config):
    with pytest.raises(SpecificationError):
        trained_service.register("acme", small_templates, goals["max"], config=config)


def test_unknown_tenant_rejected(trained_service):
    with pytest.raises(SpecificationError):
        trained_service.tenant("nobody")
    with pytest.raises(SpecificationError):
        trained_service.train("nobody")


# ---------------------------------------------------------------------------
# End-to-end: save, reload, bit-identical outcomes (the acceptance scenario)
# ---------------------------------------------------------------------------


def test_service_save_reload_bit_identical_outcomes(
    tmp_path, trained_service, small_templates
):
    batch = _batch_workload(small_templates)
    stream = _online_workload(small_templates)
    originals = {}
    for name in ("acme", "globex"):
        originals[name] = (
            trained_service.schedule_batch(name, batch),
            trained_service.run_online(
                name,
                stream,
                optimizations=OnlineOptimizations.all(),
                wait_resolution=60.0,
            ),
        )

    trained_service.save(tmp_path / "deployment")
    reloaded = WiSeDBService.load(tmp_path / "deployment")

    for name in ("acme", "globex"):
        assert reloaded.tenant(name).provenance == "registry"
        batch_outcome, online_outcome = originals[name]
        reloaded_batch = reloaded.schedule_batch(name, batch)
        assert reloaded_batch.schedule.signature() == batch_outcome.schedule.signature()
        assert reloaded_batch.cost == batch_outcome.cost
        assert reloaded_batch.query_outcomes == batch_outcome.query_outcomes
        reloaded_online = reloaded.run_online(
            name,
            stream,
            optimizations=OnlineOptimizations.all(),
            wait_resolution=60.0,
        )
        assert (
            reloaded_online.schedule.signature() == online_outcome.schedule.signature()
        )
        assert reloaded_online.cost == online_outcome.cost
        assert reloaded_online.query_outcomes == online_outcome.query_outcomes


def test_registry_ignores_corrupt_and_foreign_files(
    tmp_path, small_templates, goals, config
):
    """Stray or truncated JSON in the registry directory never poisons lookups."""
    directory = tmp_path / "registry"
    service = WiSeDBService(registry=directory)
    service.register("acme", small_templates, goals["max"], config=config)
    service.train("acme")
    (directory / "truncated.json").write_text('{"format": "wisedb-model-art')
    (directory / "foreign.json").write_text('{"hello": "world"}')

    fresh = WiSeDBService(registry=ModelRegistry(directory))
    fresh.register("acme", small_templates, goals["max"], config=config)
    fresh.train("acme")
    assert fresh.tenant("acme").provenance == "registry"
    # A goal-only change scans the directory for adaptive bases and must skip
    # the junk files rather than raising.
    fresh.register("acme2", small_templates, goals["per_query"], config=config)
    fresh.train("acme2")
    assert fresh.tenant("acme2").provenance == "adaptive"


def test_load_rejects_missing_model_artifacts(
    tmp_path, trained_service
):
    """A trained tenant whose artifact vanished fails loudly, never retrains."""
    deployment = tmp_path / "deployment"
    trained_service.save(deployment)
    for artifact in (deployment / "models").glob("*.json"):
        artifact.unlink()
    with pytest.raises(SpecificationError, match="missing or corrupt"):
        WiSeDBService.load(deployment)


def test_disk_registry_survives_processes_logically(tmp_path, small_templates, goals, config):
    """A fresh registry object over the same directory serves the artifact."""
    directory = tmp_path / "registry"
    first = WiSeDBService(registry=directory)
    first.register("acme", small_templates, goals["max"], config=config)
    first.train("acme")
    fingerprint = first.tenant("acme").spec.fingerprint()

    second = WiSeDBService(registry=ModelRegistry(directory))
    second.register("acme", small_templates, goals["max"], config=config)
    second.train("acme")
    assert second.tenant("acme").provenance == "registry"
    assert second.registry.get(fingerprint) is not None
    workload = _batch_workload(small_templates, seed=91)
    assert (
        second.schedule_batch("acme", workload).cost
        == first.schedule_batch("acme", workload).cost
    )
