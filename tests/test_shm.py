"""Lifecycle and correctness of the shared-memory array shipping layer.

``repro.learning.shm`` is what lets the sharded serving engine ship compiled
tree evaluators to worker processes zero-copy.  These tests pin the segment
format round trip, read-only enforcement, the asymmetric owner/reader
lifecycle (close+unlink vs close), the ``WiSeDBError`` surface for
attach-after-unlink, and — via subprocesses — that neither a clean run nor a
crashing reader leaks segments or provokes ``resource_tracker`` noise.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import SharedMemoryError, WiSeDBError
from repro.learning import shm
from repro.learning.decision_tree import CompiledTreeEvaluator

pytestmark = pytest.mark.skipif(
    not shm.shared_memory_available(),
    reason="POSIX shared memory is unavailable on this platform",
)

_REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _arrays() -> dict[str, np.ndarray]:
    return {
        "feature": np.array([0, 1, -1, -1, 2], dtype=np.int64),
        "threshold": np.array([0.5, 1.25, 0.0, 0.0, -3.5], dtype=np.float64),
        "flags": np.array([1, 0, 1], dtype=np.int8),
    }


# ---------------------------------------------------------------------------
# Pack / attach round trip
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_arrays_round_trip_bit_identically(self):
        arrays = _arrays()
        with shm.pack_arrays(arrays, meta={"note": "hi"}) as bundle:
            view = shm.attach_arrays(bundle.name)
            try:
                assert set(view.arrays) == set(arrays)
                for name, array in arrays.items():
                    np.testing.assert_array_equal(view.arrays[name], array)
                    assert view.arrays[name].dtype == array.dtype
                assert view.meta == {"note": "hi"}
            finally:
                view.close()

    def test_attached_views_are_read_only(self):
        with shm.pack_arrays(_arrays()) as bundle:
            view = shm.attach_arrays(bundle.name)
            try:
                with pytest.raises(ValueError):
                    view.arrays["feature"][0] = 99
            finally:
                view.close()

    def test_attached_views_are_zero_copy(self):
        """The reader's arrays are literally the segment's buffer."""
        with shm.pack_arrays(_arrays()) as bundle:
            view = shm.attach_arrays(bundle.name)
            try:
                for array in view.arrays.values():
                    assert not array.flags.owndata
            finally:
                view.close()

    def test_empty_mapping_is_refused(self):
        with pytest.raises(SharedMemoryError, match="empty array mapping"):
            shm.pack_arrays({})


class TestEvaluatorShipping:
    def test_packed_evaluator_predicts_identically(self, small_templates):
        from repro.config import TrainingConfig
        from repro.service import WiSeDBService
        from repro.sla.max_latency import MaxLatencyGoal

        service = WiSeDBService()
        service.register(
            "acme",
            small_templates,
            MaxLatencyGoal.from_factor(small_templates, factor=2.5),
            config=TrainingConfig.tiny(seed=7),
        )
        result = service.train("acme")
        evaluator = result.model.compiled_evaluator()
        with shm.pack_evaluator(evaluator) as bundle:
            shipped, view = shm.attach_evaluator(bundle.name)
            try:
                assert shipped.labels == evaluator.labels
                assert shipped.feature_names == evaluator.feature_names
                matrix = np.random.default_rng(3).uniform(
                    0.0, 500.0, size=(64, len(evaluator.feature_names))
                )
                np.testing.assert_array_equal(
                    shipped.predict_matrix(matrix), evaluator.predict_matrix(matrix)
                )
                for row in matrix[:8]:
                    assert shipped.predict_row(row) == evaluator.predict_row(row)
            finally:
                view.close()
        service.close()

    def test_attaching_a_non_evaluator_segment_is_refused(self):
        with shm.pack_arrays(_arrays()) as bundle:
            with pytest.raises(SharedMemoryError, match="compiled tree evaluator"):
                shm.attach_evaluator(bundle.name)

    def test_attachments_cost_a_small_fraction_of_heap_copies(self):
        """N attachments of one segment allocate under 1/20 of what N heap
        copies of the same evaluator do.  ``tracemalloc`` sees numpy's heap
        buffers but not the mapped segment, which is exactly the difference
        zero-copy shipping makes: O(1) view objects per attach, not a
        payload copy."""
        replicas, nodes = 8, 20_001
        rng = np.random.default_rng(11)
        arrays = {
            "feature": rng.integers(-1, 8, size=nodes).astype(np.int64),
            "threshold": rng.uniform(0.0, 500.0, size=nodes),
            "left": rng.integers(0, nodes, size=nodes).astype(np.int64),
            "right": rng.integers(0, nodes, size=nodes).astype(np.int64),
            "leaf_label": rng.integers(0, 4, size=nodes).astype(np.int64),
        }
        names = {
            "labels": ("a", "b", "c", "d"),
            "feature_names": tuple(f"f{index}" for index in range(8)),
        }
        base = CompiledTreeEvaluator.from_arrays(**arrays, **names)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            copies = [
                CompiledTreeEvaluator.from_arrays(
                    **{name: array.copy() for name, array in arrays.items()}, **names
                )
                for _ in range(replicas)
            ]
            copied_bytes = tracemalloc.get_traced_memory()[0] - before
            del copies
            with shm.pack_evaluator(base) as bundle:
                before, _ = tracemalloc.get_traced_memory()
                attachments = [shm.attach_evaluator(bundle.name) for _ in range(replicas)]
                shared_bytes = tracemalloc.get_traced_memory()[0] - before
                for _evaluator, view in attachments:
                    view.close()
                del attachments
        finally:
            tracemalloc.stop()
        assert shared_bytes * 20 < copied_bytes, (shared_bytes, copied_bytes)


# ---------------------------------------------------------------------------
# Lifecycle
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_attach_after_unlink_raises_a_wisedb_error(self):
        bundle = shm.pack_arrays(_arrays())
        name = bundle.name
        bundle.close()
        bundle.unlink()
        with pytest.raises(SharedMemoryError, match="unlinked by its owner"):
            shm.attach_arrays(name)
        # And it is part of the library's error hierarchy, not a bare OSError.
        assert issubclass(SharedMemoryError, WiSeDBError)

    def test_unlink_is_idempotent(self):
        bundle = shm.pack_arrays(_arrays())
        bundle.close()
        bundle.unlink()
        bundle.unlink()  # second call must not raise

    def test_corrupt_magic_is_rejected(self):
        from multiprocessing import shared_memory

        segment = shared_memory.SharedMemory(create=True, size=64)
        try:
            segment.buf[:4] = b"NOPE"
            with pytest.raises(SharedMemoryError, match="not a WSHM segment"):
                shm.attach_arrays(segment.name)
        finally:
            segment.close()
            segment.unlink()

    def test_serial_fallback_when_shared_memory_is_unavailable(self, monkeypatch):
        """`shared_memory_available` goes False when segment creation fails."""

        class _Broken:
            def SharedMemory(self, *args, **kwargs):
                raise OSError("no /dev/shm here")

        monkeypatch.setattr(shm, "_shared_memory_module", lambda: _Broken())
        assert shm.shared_memory_available() is False
        with pytest.raises(SharedMemoryError, match="could not create"):
            shm.pack_arrays(_arrays())


# ---------------------------------------------------------------------------
# No leaks, no tracker noise (subprocess-verified)
# ---------------------------------------------------------------------------


def _run_snippet(snippet: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", snippet],
        capture_output=True,
        text=True,
        timeout=120,
        env={"PYTHONPATH": _REPO_SRC, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )


class TestNoLeaks:
    def test_clean_pack_attach_close_leaves_no_segments_or_warnings(self):
        completed = _run_snippet(
            """
import numpy as np
from repro.learning import shm
arrays = {"a": np.arange(128, dtype=np.int64)}
bundle = shm.pack_arrays(arrays)
view = shm.attach_arrays(bundle.name)
assert view.arrays["a"][17] == 17
view.close()
bundle.close()
bundle.unlink()
"""
        )
        assert completed.returncode == 0, completed.stderr
        assert "resource_tracker" not in completed.stderr
        assert "leaked" not in completed.stderr

    def test_fork_child_attach_then_crash_does_not_reap_owner_segment(self):
        """A reader dying mid-use must not unlink (or warn about) the
        owner's live segment — the exact failure mode the tracker handling
        in ``attach_arrays`` guards against."""
        completed = _run_snippet(
            """
import os, sys
import numpy as np
from repro.learning import shm
bundle = shm.pack_arrays({"a": np.arange(64, dtype=np.float64)})
pid = os.fork()
if pid == 0:
    view = shm.attach_arrays(bundle.name)
    os._exit(1)  # crash without any cleanup
os.waitpid(pid, 0)
# The owner's segment must still be attachable after the reader crashed.
check = shm.attach_arrays(bundle.name)
assert float(check.arrays["a"][63]) == 63.0
check.close()
bundle.close()
bundle.unlink()
"""
        )
        assert completed.returncode == 0, completed.stderr
        assert "resource_tracker" not in completed.stderr
        assert "leaked" not in completed.stderr

    def test_sharded_engine_close_unlinks_every_segment(self):
        """After a sharded serve-and-close cycle the process can prove all
        its segments are gone: re-attachment by name raises."""
        completed = _run_snippet(
            """
import asyncio
from repro import units
from repro.cloud.vm import single_vm_type_catalog
from repro.config import TrainingConfig
from repro.exceptions import SharedMemoryError
from repro.learning import shm
from repro.service import WiSeDBService
from repro.serving import ShardedServingEngine
from repro.sla.max_latency import MaxLatencyGoal
from repro.workloads import poisson_arrivals
from repro.workloads.templates import QueryTemplate, TemplateSet

templates = TemplateSet([QueryTemplate(name="G1", base_latency=units.minutes(1))])
service = WiSeDBService()
service.register(
    "acme",
    templates,
    MaxLatencyGoal.from_factor(templates, factor=3.0),
    vm_types=single_vm_type_catalog(),
    config=TrainingConfig.tiny(seed=13),
)
service.train_all()
workload = poisson_arrivals(templates, 4, rate=0.05, seed=5, tenant="acme")

async def main():
    engine = ShardedServingEngine(service, shards=2, isolation="process")
    try:
        for query in workload:
            await engine.submit("acme", query)
        await engine.drain()
    finally:
        await engine.close()
    return engine

engine = asyncio.run(main())
assert engine.effective_isolation == "process", engine.fallback_reason
segments = [bundle.name for bundle in engine._bundles.values()]
# close() cleared and unlinked the bundles; prove none is attachable.
assert engine._bundles == {}
service.close()
"""
        )
        assert completed.returncode == 0, completed.stderr
        assert "resource_tracker" not in completed.stderr
        assert "leaked" not in completed.stderr

    def test_first_engine_of_a_process_leaves_no_tracker_noise(self):
        """Regression: a worker forked before the router had a resource
        tracker kept its attachments registered in a tracker of its own, which
        then complained at exit about segments the router had unlinked."""

        def segments() -> set[str]:
            return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}

        before = segments()
        completed = _run_snippet(
            """
import asyncio
from repro import units
from repro.config import TrainingConfig
from repro.service import WiSeDBService
from repro.serving import ShardedServingEngine
from repro.sla.max_latency import MaxLatencyGoal
from repro.workloads import poisson_arrivals
from repro.workloads.templates import QueryTemplate, TemplateSet

templates = TemplateSet(
    [
        QueryTemplate(name="G1", base_latency=units.minutes(1)),
        QueryTemplate(name="G2", base_latency=units.minutes(3)),
    ]
)
service = WiSeDBService()
tenants = [f"t{index}" for index in range(4)]
for index, name in enumerate(tenants):
    goal = MaxLatencyGoal.from_factor(templates, factor=2.0 + index / 2)
    service.register(name, templates, goal, config=TrainingConfig.tiny(seed=13))
service.train_all()

async def main():
    engine = ShardedServingEngine(service, shards=1, isolation="process")
    try:
        for name in tenants:
            for query in poisson_arrivals(templates, 3, rate=0.05, seed=5, tenant=name):
                await engine.submit(name, query)
        await engine.drain()
    finally:
        await engine.close()
    return engine

engine = asyncio.run(main())
assert engine.effective_isolation == "process", engine.fallback_reason
service.close()
"""
        )
        assert completed.returncode == 0, completed.stderr
        assert "resource_tracker" not in completed.stderr
        assert segments() <= before
