"""The per-tenant single-writer guard on the service's scheduling paths.

A tenant's online state is mutable and single-writer; before the guard, two
concurrent ``run_online`` calls would interleave it silently.  Now the second
writer gets a :class:`~repro.exceptions.ConcurrencyError` naming the
operation in flight — and because the guard sits *outside* the degraded
fallback, the refusal is never converted into an FFD outcome.
"""

from __future__ import annotations

import threading

import pytest

from repro.exceptions import ConcurrencyError
from repro.service import WiSeDBService


@pytest.fixture()
def service(small_templates, max_goal, tiny_config, trained_max):
    service = WiSeDBService()
    service.register("acme", small_templates, max_goal, config=tiny_config)
    tenant = service.tenant("acme")
    tenant.training = trained_max
    tenant.provenance = "fresh"
    yield service
    service.close()


class TestExclusiveGuard:
    def test_second_writer_is_refused_with_the_operation_name(self, service):
        tenant = service.tenant("acme")
        with tenant.exclusive("first-writer"):
            with pytest.raises(ConcurrencyError, match="first-writer"):
                with tenant.exclusive("second-writer"):
                    pass

    def test_guard_releases_after_the_block(self, service):
        tenant = service.tenant("acme")
        with tenant.exclusive("one"):
            pass
        with tenant.exclusive("two"):
            pass

    def test_guard_releases_after_an_exception(self, service):
        tenant = service.tenant("acme")
        with pytest.raises(RuntimeError):
            with tenant.exclusive("doomed"):
                raise RuntimeError("boom")
        with tenant.exclusive("again"):
            pass

    def test_run_online_refused_while_guard_held(self, service, small_workload):
        tenant = service.tenant("acme")
        with tenant.exclusive("serving"):
            # ConcurrencyError is a WiSeDBError, but it must surface — never
            # be absorbed into a degraded FFD outcome.
            with pytest.raises(ConcurrencyError, match="serving"):
                service.run_online("acme", small_workload)
        outcome = service.run_online("acme", small_workload)
        assert not outcome.degraded

    def test_schedule_batch_refused_while_guard_held(self, service, small_workload):
        tenant = service.tenant("acme")
        with tenant.exclusive("serving"):
            with pytest.raises(ConcurrencyError):
                service.schedule_batch("acme", small_workload)
        outcome = service.schedule_batch("acme", small_workload)
        assert not outcome.degraded

    def test_guard_is_per_tenant(self, service, small_templates, max_goal,
                                  tiny_config, trained_max, small_workload):
        service.register("globex", small_templates, max_goal, config=tiny_config)
        other = service.tenant("globex")
        other.training = trained_max
        other.provenance = "fresh"
        with service.tenant("acme").exclusive("serving"):
            outcome = service.run_online("globex", small_workload)
            assert not outcome.degraded

    def test_concurrent_threads_never_interleave(self, service, small_workload):
        """N threads hammer one tenant: every call either completes exclusively
        or is refused — no silent interleaving, at least one winner."""
        results: list[str] = []
        lock = threading.Lock()
        barrier = threading.Barrier(4)

        def writer():
            barrier.wait()
            try:
                service.run_online("acme", small_workload)
                token = "ok"
            except ConcurrencyError:
                token = "refused"
            with lock:
                results.append(token)

        threads = [threading.Thread(target=writer) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(results) == 4
        assert results.count("ok") >= 1
        assert set(results) <= {"ok", "refused"}


def test_tenants_sharing_one_model_schedule_concurrently(
    small_templates, average_goal, tiny_config, trained_average
):
    """Two tenants, one model object: threaded outcomes equal the serial ones.

    The registry hands identically specified tenants the *same*
    ``DecisionModel``, and the per-tenant guard lets them run side by side —
    so a decision may keep no scratch on the model (the shared feature row
    the model used to own made these two schedules bleed into each other).
    """
    import sys

    from repro.workloads.generator import WorkloadGenerator

    service = WiSeDBService()
    for name in ("a", "b"):
        service.register(name, small_templates, average_goal, config=tiny_config)
        tenant = service.tenant(name)
        tenant.training = trained_average
        tenant.provenance = "fresh"
    workloads = {
        name: WorkloadGenerator(small_templates, seed=seed).uniform(3_000)
        for name, seed in (("a", 5), ("b", 6))
    }

    def key(name):
        outcome = service.schedule_batch(name, workloads[name])
        assert not outcome.degraded
        return outcome.schedule.signature(), outcome.cost

    serial = {name: key(name) for name in workloads}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for _ in range(5):
            threaded: dict[str, tuple] = {}
            threads = [
                threading.Thread(target=lambda name=name: threaded.update({name: key(name)}))
                for name in workloads
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert threaded == serial
    finally:
        sys.setswitchinterval(interval)
        service.close()
