"""Execution backends for the embarrassingly parallel sample solves.

The paper's training loop (Section 5, Figures 14-16) is dominated by
independent per-sample A* searches, and the same fan-out pattern recurs in
adaptive retraining, strategy recommendation, and the online scheduler's
retraining path.  One small protocol covers all of them:

* :class:`ExecutionBackend` — ``map_tasks(worker, tasks)`` runs indexed tasks
  through a worker callable and returns payloads **in task-index order**, so
  every backend produces bit-identical results for the same inputs.
* :class:`SerialBackend` — runs tasks in-process.  The reference semantics.
* :class:`ProcessPoolBackend` — one warm ``ProcessPoolExecutor``, spawned on
  the first call with two or more tasks and reused across calls (and across
  owners — one shared backend trains and retrains every tenant of a
  :class:`~repro.service.service.WiSeDBService`).  ``close()`` releases the
  workers; a later call spawns them again.  A call whose work cannot cross
  the process boundary, or whose pool breaks, is rerun serially, preserving
  the repo-wide guarantee that output is bit-identical for any ``n_jobs``.

A worker exception surfaces as itself: the first failing task in task order
raises, with the worker-side traceback chained as its ``__cause__`` (the
standard library's ``pool.map`` contract).
"""

from __future__ import annotations

import os
import pickle
from abc import ABC, abstractmethod
from itertools import repeat
from typing import Callable, Sequence


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one.

    ``os.cpu_count()`` counts the host's CPUs, so under ``taskset`` or a
    container CPU set it over-counts and the pool oversubscribes its cores.
    """
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def resolve_n_jobs(n_jobs: int) -> int:
    """The resolved worker count (every value below 1 means "all CPUs")."""
    if n_jobs > 0:
        return n_jobs
    return available_cpus()


class ExecutionBackend(ABC):
    """Executes indexed tasks through a worker callable, in deterministic order.

    Tasks are ``(index, *args)`` tuples; the worker is invoked as
    ``worker(*args)`` and the returned list holds each task's payload at its
    index, regardless of completion order — callers observe bit-identical
    results whichever backend (or worker count) ran them.
    """

    @abstractmethod
    def map_tasks(self, worker: Callable, tasks: Sequence[tuple]) -> list:
        """Run every task through *worker*, returning payloads by task index."""

    def close(self) -> None:
        """Release any resources held by the backend (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialBackend(ExecutionBackend):
    """Runs every task sequentially in the calling process."""

    def map_tasks(self, worker: Callable, tasks: Sequence[tuple]) -> list:
        results: list = [None] * len(tasks)
        for task in tasks:
            results[task[0]] = worker(*task[1:])
        return results


def _run_task(worker: Callable, task: tuple):
    """One ``(index, *args)`` task, run in a pool process."""
    return worker(*task[1:])


class ProcessPoolBackend(ExecutionBackend):
    """A warm pool of ``n_jobs`` worker processes (see the module docstring)."""

    def __init__(self, n_jobs: int = -1) -> None:
        self._n_jobs = resolve_n_jobs(n_jobs)
        self._pool = None
        #: Number of times a pool has been spawned (tests assert warm reuse).
        self.spawn_count = 0

    @property
    def n_jobs(self) -> int:
        """The resolved worker count the pool is sized for."""
        return self._n_jobs

    def map_tasks(self, worker: Callable, tasks: Sequence[tuple]) -> list:
        workers = min(self._n_jobs, len(tasks))
        if workers < 2:
            return SerialBackend().map_tasks(worker, tasks)
        # Imported here so that `import repro` does not load multiprocessing.
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        if self._pool is None:
            try:
                context = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX platforms
                context = None
            self._pool = ProcessPoolExecutor(max_workers=self._n_jobs, mp_context=context)
            self.spawn_count += 1
        chunksize = max(1, len(tasks) // (workers * 4))
        try:
            payloads = list(
                self._pool.map(_run_task, repeat(worker), tasks, chunksize=chunksize)
            )
        except (pickle.PicklingError, TypeError, AttributeError):
            # The worker, an argument, or a worker's exception cannot cross
            # the process boundary (CPython reports most unpicklable values as
            # TypeError or AttributeError).  The pool is healthy, so it stays
            # warm; only this call runs in-process, where a worker that raised
            # one of these itself raises it again.
            return SerialBackend().map_tasks(worker, tasks)
        except (BrokenProcessPool, OSError):
            # Workers killed (OOM, signals), spawn refused, or transport
            # failed: drop the pool (the next call respawns it) and redo
            # this call serially.
            self.close()
            return SerialBackend().map_tasks(worker, tasks)
        results: list = [None] * len(tasks)
        for task, payload in zip(tasks, payloads):
            results[task[0]] = payload
        return results

    def close(self) -> None:
        """Shut the worker processes down (idempotent; a later call respawns)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            # Not cancel_futures=True: that swaps the executor's pending-work
            # dict while the queue feeder may still pop a task that failed to
            # pickle from the old one, and the shutdown then waits forever.
            pool.shutdown(wait=True)


def backend_for(n_jobs: int) -> ExecutionBackend:
    """The natural backend for a worker count: serial for 1, a pool otherwise."""
    if resolve_n_jobs(n_jobs) <= 1:
        return SerialBackend()
    return ProcessPoolBackend(n_jobs)
