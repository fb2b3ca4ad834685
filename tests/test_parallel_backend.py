"""Lifecycle and determinism tests for the repro.parallel execution backends.

The repo-wide guarantee these pin: *which* backend runs the sample solves —
serial, a cold pool, a warm reused pool, or a pool that broke and degraded to
serial mid-run — never changes a single output bit.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time

import pytest

from repro.adaptive.retraining import AdaptiveModeler
from repro.config import TrainingConfig
from repro.learning.trainer import ModelGenerator, SampleSolver
from repro.parallel.backend import (
    ProcessPoolBackend,
    SerialBackend,
    available_cpus,
    backend_for,
    resolve_n_jobs,
)
from repro.workloads.generator import WorkloadGenerator


def _square(value: int) -> int:
    """Module-level (hence picklable) worker for the generic map tests."""
    return value * value


def _type_name(value) -> str:
    """Picklable worker that accepts arbitrary (even unpicklable) arguments."""
    return type(value).__name__


def _fail_on_odd(value: int) -> int:
    """Picklable worker that rejects odd inputs (exception-surfacing tests)."""
    if value % 2:
        raise ValueError(f"odd input {value}")
    return value


def _reject_type(value):
    """Picklable worker whose own failure looks like a pickling failure."""
    raise TypeError(f"worker rejects {value!r}")


def _die_in_pool(value: int) -> int:
    """Kills the pool process running it; in the calling process, squares."""
    if multiprocessing.parent_process() is not None:
        os._exit(1)
    return value * value


class _UnpicklableError(Exception):
    """An exception that refuses to cross the process boundary."""

    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


def _raise_unpicklable(value):
    raise _UnpicklableError(f"boom {value}")


def _training_fingerprint(result) -> tuple:
    matrix, labels = result.training_set.to_matrix()
    return (
        result.model.tree.to_text(),
        tuple(labels),
        tuple(tuple(row) for row in matrix.tolist()),
        tuple((s.optimal_cost, s.expansions) for s in result.samples),
    )


# ---------------------------------------------------------------------------
# The generic map contract
# ---------------------------------------------------------------------------


def test_serial_backend_orders_results_by_task_index():
    backend = SerialBackend()
    tasks = [(2, 5), (0, 3), (1, 4)]
    assert backend.map_tasks(_square, tasks) == [9, 16, 25]


def test_pool_backend_orders_results_by_task_index():
    with ProcessPoolBackend(n_jobs=2) as backend:
        tasks = [(index, value) for index, value in enumerate(range(20))]
        tasks.reverse()
        assert backend.map_tasks(_square, tasks) == [v * v for v in range(20)]
        assert backend.spawn_count == 1


def test_pool_backend_spawns_lazily_and_stays_warm():
    backend = ProcessPoolBackend(n_jobs=2)
    assert backend.spawn_count == 0
    # A single task can't use the pool: stays cold, runs serial.
    assert backend.map_tasks(_square, [(0, 7)]) == [49]
    assert backend.spawn_count == 0
    backend.map_tasks(_square, [(0, 1), (1, 2)])
    backend.map_tasks(_square, [(0, 1), (1, 2)])
    assert backend.spawn_count == 1  # reused, not respawned
    backend.close()
    assert backend._pool is None


def test_pool_backend_close_is_idempotent_and_not_final():
    backend = ProcessPoolBackend(n_jobs=2)
    backend.close()
    backend.close()
    # A closed backend serves the next call from a fresh pool.
    assert backend.map_tasks(_square, [(0, 1), (1, 2)]) == [1, 4]
    assert backend.spawn_count == 1
    backend.close()
    assert backend.map_tasks(_square, [(0, 3), (1, 4)]) == [9, 16]
    assert backend.spawn_count == 2
    backend.close()


def test_dropped_backend_releases_its_workers():
    """No finalizer is needed: the executor's own collection stops the workers."""

    def children() -> set[int]:
        return {process.pid for process in multiprocessing.active_children()}

    before = children()
    backend = ProcessPoolBackend(n_jobs=2)
    backend.map_tasks(_square, [(0, 1), (1, 2)])
    workers = children() - before
    assert len(workers) == 2
    del backend
    gc.collect()
    deadline = time.monotonic() + 10.0
    while workers & children() and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not workers & children()


def test_unpicklable_worker_degrades_to_serial():
    with ProcessPoolBackend(n_jobs=2) as backend:
        unpicklable = lambda value: value * value  # noqa: E731 - the point
        assert backend.map_tasks(unpicklable, [(0, 3), (1, 4)]) == [9, 16]
        # The pool itself is unaffected: picklable workers still fan out.
        assert backend.map_tasks(_square, [(0, 3), (1, 4)]) == [9, 16]
        assert backend.spawn_count == 1


def test_unpicklable_task_arguments_degrade_to_serial():
    """Task args are pickled lazily inside pool.map; failures must not crash.

    CPython surfaces unpicklable values (locks, sockets) as TypeError rather
    than PicklingError, so the handler has to catch those too — the call
    degrades to the serial path with identical results.  The pool itself is
    healthy, so it stays warm (a shared backend must not lose parallelism for
    every owner because one caller's tasks would not pickle).
    """
    import threading

    with ProcessPoolBackend(n_jobs=2) as backend:
        tasks = [(0, threading.Lock()), (1, threading.Lock())]
        assert backend.map_tasks(_type_name, tasks) == ["lock", "lock"]
        # Picklable calls still fan out afterwards, through the same pool.
        assert backend.map_tasks(_square, [(0, 3), (1, 4)]) == [9, 16]
        assert backend.spawn_count == 1


def test_broken_pool_degrades_to_serial_without_changing_results():
    """Killed workers: the call is redone serially and the pool dropped."""
    with ProcessPoolBackend(n_jobs=2) as backend:
        assert backend.map_tasks(_die_in_pool, [(0, 3), (1, 4)]) == [9, 16]
        assert backend._pool is None
        assert backend.spawn_count == 1
        # The next call respawns the pool.
        assert backend.map_tasks(_square, [(0, 3), (1, 4)]) == [9, 16]
        assert backend.spawn_count == 2


def test_pool_os_error_reruns_serially():
    """Spawn or transport failures (OSError) also drop the pool."""

    class _RefusingPool:
        def map(self, *args, **kwargs):
            raise OSError("fork refused")

        def shutdown(self, *args, **kwargs):
            pass

    backend = ProcessPoolBackend(n_jobs=2)
    backend._pool = _RefusingPool()
    assert backend.map_tasks(_square, [(0, 3), (1, 4)]) == [9, 16]
    assert backend._pool is None


def test_worker_exception_surfaces_first_in_index_order():
    """A worker exception re-raises as itself, not as a degraded-pool artifact."""
    with ProcessPoolBackend(n_jobs=2) as backend:
        tasks = list(enumerate([0, 3, 2, 5]))  # indexes 1 and 3 fail
        with pytest.raises(ValueError, match="odd input 3") as excinfo:
            backend.map_tasks(_fail_on_odd, tasks)
        # The worker-side traceback is chained via __cause__ (the
        # concurrent.futures pattern), so the original failure site is visible.
        cause = excinfo.value.__cause__
        assert cause is not None
        assert "_fail_on_odd" in str(cause)
        assert "ValueError: odd input 3" in str(cause)
        # A worker exception is not a pool failure: the pool stays warm and
        # later calls still fan out through it.
        assert backend.map_tasks(_square, [(0, 3), (1, 4)]) == [9, 16]
        assert backend.spawn_count == 1


def test_worker_exception_matches_serial_semantics():
    """The serial backend raises the same first-index exception."""
    with pytest.raises(ValueError, match="odd input 3"):
        SerialBackend().map_tasks(_fail_on_odd, list(enumerate([0, 3, 2, 5])))


def test_worker_type_error_surfaces_through_the_serial_rerun():
    """A worker's own TypeError reads as unpicklable work, so the call reruns
    in-process — where the worker raises it again, as itself."""
    with ProcessPoolBackend(n_jobs=2) as backend:
        with pytest.raises(TypeError, match="worker rejects 1"):
            backend.map_tasks(_reject_type, [(0, 1), (1, 2)])
        assert backend.spawn_count == 1


def test_unpicklable_worker_exception_still_surfaces():
    """An exception that cannot be pickled surfaces through the serial rerun."""
    with ProcessPoolBackend(n_jobs=2) as backend:
        with pytest.raises(_UnpicklableError, match="boom 1"):
            backend.map_tasks(_raise_unpicklable, [(0, 1), (1, 2)])
        assert backend._pool is not None


def test_backend_for_and_resolve_n_jobs():
    assert isinstance(backend_for(1), SerialBackend)
    pool = backend_for(4)
    assert isinstance(pool, ProcessPoolBackend)
    assert pool.n_jobs == 4
    pool.close()
    assert resolve_n_jobs(3) == 3
    assert resolve_n_jobs(-1) >= 1
    assert resolve_n_jobs(0) >= 1


def test_all_cpus_means_the_cpus_this_process_may_use(monkeypatch):
    """``n_jobs=-1`` and ``shards=None`` follow the affinity mask, not the host."""
    from repro.service.service import WiSeDBService
    from repro.serving.sharded import ShardedServingEngine

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert available_cpus() == 1
    assert resolve_n_jobs(-1) == 1
    assert isinstance(backend_for(-1), SerialBackend)
    assert ShardedServingEngine(WiSeDBService(), shards=None)._num_shards == 1

    # Without an affinity call the host's count is all there is to go on.
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert available_cpus() == 8


# ---------------------------------------------------------------------------
# Warm reuse across generate/retrain is deterministic and bit-identical
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_jobs", [1, 2, 4])
@pytest.mark.parametrize("kind", ["max", "per_query", "average", "percentile"])
def test_generate_bit_identical_for_any_n_jobs(small_templates, all_goals, kind, n_jobs):
    goal = all_goals[kind]
    with ModelGenerator(
        small_templates, config=TrainingConfig.tiny(seed=23).with_n_jobs(n_jobs)
    ) as generator:
        fingerprint = _training_fingerprint(generator.generate(goal))
    reference_generator = ModelGenerator(
        small_templates, config=TrainingConfig.tiny(seed=23)
    )
    assert fingerprint == _training_fingerprint(reference_generator.generate(goal))


def test_warm_pool_reused_across_generate_and_retrain(small_templates, max_goal):
    """Consecutive generate/retrain calls share one pool and match serial output."""
    serial_generator = ModelGenerator(
        small_templates, config=TrainingConfig.tiny(seed=31)
    )
    serial_base = serial_generator.generate(max_goal)
    tightened = max_goal.tightened(0.3, small_templates)
    serial_retrain, _ = AdaptiveModeler(serial_generator, serial_base).retrain(
        tightened
    )

    with ModelGenerator(
        small_templates, config=TrainingConfig.tiny(seed=31).with_n_jobs(2)
    ) as generator:
        backend = generator.backend
        assert isinstance(backend, ProcessPoolBackend)
        first = generator.generate(max_goal)
        second = generator.generate(max_goal)
        retrain, _ = AdaptiveModeler(generator, first).retrain(tightened)
        assert backend.spawn_count == 1  # one pool served all three calls
    assert backend._pool is None  # the context manager released the workers

    assert _training_fingerprint(first) == _training_fingerprint(serial_base)
    assert _training_fingerprint(second) == _training_fingerprint(serial_base)
    assert _training_fingerprint(retrain) == _training_fingerprint(serial_retrain)


def test_injected_backend_is_not_closed_by_the_generator(small_templates, max_goal):
    backend = ProcessPoolBackend(n_jobs=2)
    generator = ModelGenerator(
        small_templates,
        config=TrainingConfig.tiny(seed=7).with_n_jobs(2),
        backend=backend,
    )
    generator.generate(max_goal)
    generator.close()
    assert backend._pool is not None  # injected: lifecycle belongs to the caller
    backend.close()


def test_pooled_sample_solves_match_serial(small_templates, max_goal):
    generator = ModelGenerator(small_templates, config=TrainingConfig.tiny(seed=3))
    solver = SampleSolver(generator._extractor_for(max_goal), max_expansions=50_000)
    workloads = [
        WorkloadGenerator(small_templates, seed=5).uniform(4) for _ in range(3)
    ]
    tasks = [(index, workload) for index, workload in enumerate(workloads)]
    with ProcessPoolBackend(n_jobs=2) as backend:
        pooled = backend.map_tasks(solver, tasks)
    serial = SerialBackend().map_tasks(solver, tasks)
    assert len(pooled) == len(serial) == len(tasks)
    for left, right in zip(pooled, serial):
        assert left[1] == right[1]  # SampleSolution dataclasses compare by value


# ---------------------------------------------------------------------------
# The service-level shared backend
# ---------------------------------------------------------------------------


def test_service_shares_one_backend_across_tenants(small_templates, all_goals):
    from repro.service.service import WiSeDBService

    with WiSeDBService(n_jobs=2) as service:
        config = TrainingConfig.tiny(seed=19)
        service.register("acme", small_templates, all_goals["max"], config=config)
        service.register(
            "globex", small_templates, all_goals["per_query"], config=config
        )
        service.train_all()
        backend = service.backend
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.spawn_count <= 1  # at most one pool for the whole sweep
        assert service.tenant("acme").generator.backend is backend
        assert service.tenant("globex").generator.backend is backend
    assert backend._pool is None

    # Training after close transparently builds a fresh shared backend.
    replacement = service.backend
    assert replacement is not backend
    replacement.close()


def test_service_backend_grows_for_wider_tenants(small_templates, all_goals):
    """A tenant registered later with wider n_jobs must not train capped."""
    from repro.service.service import WiSeDBService

    with WiSeDBService() as service:
        service.register(
            "narrow",
            small_templates,
            all_goals["max"],
            config=TrainingConfig.tiny(seed=11),  # n_jobs=1
        )
        service.train("narrow")
        assert isinstance(service.backend, SerialBackend)
        service.register(
            "wide",
            small_templates,
            all_goals["per_query"],
            config=TrainingConfig.tiny(seed=11).with_n_jobs(4),
        )
        grown = service.backend
        assert isinstance(grown, ProcessPoolBackend)
        assert grown.n_jobs == 4
        assert service.tenant("wide").generator.backend is grown
        service.train("wide")


def test_modeler_survives_service_close(small_templates, all_goals):
    """A retained generator trains on after the service closes its backend."""
    from repro.service.service import WiSeDBService

    config = TrainingConfig.tiny(seed=37)
    with WiSeDBService(n_jobs=2) as service:
        service.register("t", small_templates, all_goals["max"], config=config)
        base = service.train("t")
        generator = service.tenant("t").generator
    # The with-block closed the shared backend; closing is not final, so the
    # retained generator's next training call respawns its workers.
    tightened = all_goals["max"].tightened(0.3, small_templates)
    retrained, _ = AdaptiveModeler(generator, base).retrain(tightened)
    generator.backend.close()

    reference_generator = ModelGenerator(small_templates, config=config)
    reference, _ = AdaptiveModeler(
        reference_generator, reference_generator.generate(all_goals["max"])
    ).retrain(tightened)
    assert _training_fingerprint(retrained) == _training_fingerprint(reference)


def test_service_shared_backend_output_matches_serial(small_templates, all_goals):
    from repro.service.service import WiSeDBService

    config = TrainingConfig.tiny(seed=41)
    fingerprints = {}
    for n_jobs in (1, 2):
        with WiSeDBService(n_jobs=n_jobs) as service:
            service.register("acme", small_templates, all_goals["max"], config=config)
            result = service.train("acme", mode="fresh")
            fingerprints[n_jobs] = _training_fingerprint(result)
    assert fingerprints[1] == fingerprints[2]
