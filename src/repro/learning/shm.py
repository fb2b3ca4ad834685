"""Zero-copy shipping of flat numpy arrays through shared memory.

A :class:`~repro.learning.decision_tree.CompiledTreeEvaluator` is five flat
parallel arrays, the representation POSIX shared memory wants: the owner
packs them into one ``multiprocessing.shared_memory`` segment
(:func:`pack_evaluator`) and readers map it read-only
(:func:`attach_evaluator`), each attachment costing a handful of view objects
on the reader's heap, not a copy of the payload.

Sharded serving does not ship models this way.  A shard worker needs the
whole training result anyway — wait-triggered retraining reads its samples —
so the router sends that once through the worker's pipe and the worker
compiles its own evaluator from the tree it received.  This module is the building block for sharing evaluators across
processes without that copy (model paging), and the benchmark times its
pack and attach.

Segment layout::

    [4-byte magic "WSHM"] [u32 version] [u64 header length]
    [JSON header: array names, dtypes, shapes, relative offsets, free-form meta]
    [padding to 64-byte boundary]
    [array 0 bytes] [padding] [array 1 bytes] ...

Lifecycle is explicit and asymmetric, mirroring POSIX semantics:

* the *owner* (the process that called :func:`pack_arrays`) holds a
  :class:`SharedArrayBundle` and must eventually call both ``close()`` (unmap)
  and ``unlink()`` (remove the name from the system);
* *readers* (:func:`attach_arrays`) hold a :class:`SharedArrayView` and only
  ever ``close()`` — a reader must never unlink a segment it does not own,
  and is deliberately unregistered from the ``resource_tracker`` so that a
  crashing reader cannot reap (or warn about) the owner's segment.

Attaching to a name the owner already unlinked raises
:class:`~repro.exceptions.SharedMemoryError` (a ``WiSeDBError``), not a bare
``FileNotFoundError``.
"""

from __future__ import annotations

import json
import struct
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.exceptions import SharedMemoryError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.learning.decision_tree import CompiledTreeEvaluator

_MAGIC = b"WSHM"
_VERSION = 1
_PREFIX = struct.Struct("<4sIQ")
_ALIGNMENT = 64

#: Attribute names of the evaluator's flat parallel arrays, in layout order.
EVALUATOR_ARRAYS = ("feature", "threshold", "left", "right", "leaf_label")


def _shared_memory_module():
    """The stdlib shared-memory module (indirection point for tests)."""
    from multiprocessing import shared_memory

    return shared_memory


def shared_memory_available() -> bool:
    """Probe whether POSIX shared memory actually works on this platform.

    Import success is not enough: containers without a usable ``/dev/shm``
    fail only at segment creation, so a tiny segment is created and
    immediately destroyed.
    """
    try:
        shared_memory = _shared_memory_module()
        segment = shared_memory.SharedMemory(create=True, size=16)
    except Exception:
        return False
    segment.close()
    segment.unlink()
    return True


def _tracker_already_running() -> bool:
    """Whether this process already shares a resource tracker.

    True in the owning process and in its ``fork`` children (the tracker
    pipe is inherited); False in a fresh process (``spawn`` children,
    unrelated attachers) whose first registration would start its own
    tracker.
    """
    try:
        from multiprocessing import resource_tracker

        return getattr(resource_tracker._resource_tracker, "_fd", None) is not None
    except Exception:  # pragma: no cover - tracker layout varies by platform
        return False


def _untrack(segment) -> None:
    """Unregister an *attached* segment from the resource tracker.

    On POSIX every ``SharedMemory`` — attached or created — registers with
    the ``resource_tracker``, which unlinks (and warns about) any segment
    still registered when its process tree exits.  A reader with its *own*
    tracker (a ``spawn`` worker, an unrelated process) must therefore
    unregister, or its exit reaps the owner's live segment with a "leaked
    shared_memory" warning.  Python 3.13 grew ``track=False`` for this; on
    older versions the best-effort unregister below is the documented
    workaround.  Readers that *share* the owner's tracker (same process, or
    ``fork`` children) must NOT unregister — registrations are keyed per
    name in the one shared tracker, so unregistering there would erase the
    owner's entry and make the owner's ``unlink`` warn instead.  The caller
    checks :func:`_tracker_already_running` to tell the two apart.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker layout varies by platform
        pass


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


class SharedArrayBundle:
    """Owner handle for a packed segment.

    ``close()`` unmaps the owner's view; ``unlink()`` removes the segment
    from the system (readers attached before the unlink keep working until
    they close).  The context-manager form does both on exit.
    """

    __slots__ = ("_segment", "name", "nbytes", "_unlinked")

    def __init__(self, segment, nbytes: int) -> None:
        self._segment = segment
        self.name = segment.name
        self.nbytes = nbytes
        self._unlinked = False

    def close(self) -> None:
        try:
            self._segment.close()
        except BufferError:  # views still alive; mapping released at their GC
            pass

    def unlink(self) -> None:
        if not self._unlinked:
            self._unlinked = True
            self._segment.unlink()

    def __enter__(self) -> "SharedArrayBundle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
        self.unlink()


class SharedArrayView:
    """Reader handle: read-only numpy views over an attached segment."""

    __slots__ = ("_segment", "name", "arrays", "meta")

    def __init__(self, segment, arrays: dict[str, np.ndarray], meta: dict) -> None:
        self._segment = segment
        self.name = segment.name
        self.arrays = arrays
        self.meta = meta

    def close(self) -> None:
        self.arrays = {}
        try:
            self._segment.close()
        except BufferError:
            # An evaluator still holds the views; the mapping is released
            # when those arrays are garbage collected.
            pass

    def __enter__(self) -> "SharedArrayView":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def pack_arrays(
    arrays: Mapping[str, np.ndarray], meta: dict | None = None
) -> SharedArrayBundle:
    """Publish *arrays* into a fresh shared-memory segment.

    Returns the owner's :class:`SharedArrayBundle`; readers attach by
    ``bundle.name``.  *meta* is a JSON-able dict carried verbatim in the
    header (labels, feature names, ...).
    """
    if not arrays:
        raise SharedMemoryError("cannot pack an empty array mapping")
    entries = []
    relative = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        relative = _align(relative)
        entries.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": relative,
                "array": array,
            }
        )
        relative += array.nbytes
    header = {
        "arrays": [
            {key: entry[key] for key in ("name", "dtype", "shape", "offset")}
            for entry in entries
        ],
        "meta": meta or {},
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload_base = _align(_PREFIX.size + len(header_bytes))
    total = max(1, payload_base + relative)

    shared_memory = _shared_memory_module()
    try:
        segment = shared_memory.SharedMemory(create=True, size=total)
    except OSError as error:
        raise SharedMemoryError(
            f"could not create a {total}-byte shared-memory segment: {error}"
        ) from error
    try:
        buffer = segment.buf
        _PREFIX.pack_into(buffer, 0, _MAGIC, _VERSION, len(header_bytes))
        buffer[_PREFIX.size : _PREFIX.size + len(header_bytes)] = header_bytes
        for entry in entries:
            array = entry["array"]
            view = np.ndarray(
                array.shape,
                dtype=array.dtype,
                buffer=buffer,
                offset=payload_base + entry["offset"],
            )
            view[...] = array
            del view
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    return SharedArrayBundle(segment, total)


def attach_arrays(name: str) -> SharedArrayView:
    """Attach read-only views to a segment published by :func:`pack_arrays`.

    Raises :class:`~repro.exceptions.SharedMemoryError` when the segment does
    not exist (typically: the owner already unlinked it) or its header is not
    one of ours.
    """
    shared_memory = _shared_memory_module()
    try:
        try:
            segment = shared_memory.SharedMemory(name=name, track=False)
        except TypeError:  # Python < 3.13: no track parameter
            shared_tracker = _tracker_already_running()
            segment = shared_memory.SharedMemory(name=name)
            if not shared_tracker:
                _untrack(segment)
    except FileNotFoundError as error:
        raise SharedMemoryError(
            f"shared-memory segment {name!r} does not exist "
            "(was it already unlinked by its owner?)"
        ) from error
    try:
        buffer = segment.buf
        if len(buffer) < _PREFIX.size:
            raise SharedMemoryError(
                f"segment {name!r} is too small to hold a WSHM header"
            )
        magic, version, header_length = _PREFIX.unpack_from(buffer, 0)
        if magic != _MAGIC:
            raise SharedMemoryError(f"segment {name!r} is not a WSHM segment")
        if version != _VERSION:
            raise SharedMemoryError(
                f"segment {name!r} has WSHM version {version}; "
                f"this library reads version {_VERSION}"
            )
        try:
            header = json.loads(
                bytes(buffer[_PREFIX.size : _PREFIX.size + header_length])
            )
        except ValueError as error:
            raise SharedMemoryError(
                f"segment {name!r} has a corrupt WSHM header"
            ) from error
        payload_base = _align(_PREFIX.size + header_length)
        arrays: dict[str, np.ndarray] = {}
        for entry in header["arrays"]:
            view = np.ndarray(
                tuple(entry["shape"]),
                dtype=np.dtype(entry["dtype"]),
                buffer=buffer,
                offset=payload_base + entry["offset"],
            )
            view.flags.writeable = False
            arrays[entry["name"]] = view
    except BaseException:
        segment.close()
        raise
    return SharedArrayView(segment, arrays, header.get("meta", {}))


def pack_evaluator(evaluator: "CompiledTreeEvaluator") -> SharedArrayBundle:
    """Publish a compiled tree evaluator's flat arrays into shared memory.

    The evaluator keeps plain lists; the segment holds them as ``int64``
    columns and a ``float64`` threshold column.
    """
    arrays = {
        name: np.asarray(
            getattr(evaluator, name),
            dtype=np.float64 if name == "threshold" else np.int64,
        )
        for name in EVALUATOR_ARRAYS
    }
    meta = {
        "kind": "compiled-tree-evaluator",
        "labels": list(evaluator.labels),
        "feature_names": list(evaluator.feature_names),
    }
    return pack_arrays(arrays, meta=meta)


def attach_evaluator(name: str) -> tuple["CompiledTreeEvaluator", SharedArrayView]:
    """Rebuild an evaluator over shared views of a packed segment.

    Returns ``(evaluator, view)``; the caller must keep *view* alive for as
    long as the evaluator is in use and ``close()`` it afterwards.  The
    evaluator's predictions are bit-identical to the owner's — the arrays are
    literally the owner's bytes.
    """
    from repro.learning.decision_tree import CompiledTreeEvaluator

    view = attach_arrays(name)
    try:
        if view.meta.get("kind") != "compiled-tree-evaluator":
            raise SharedMemoryError(
                f"segment {name!r} does not hold a compiled tree evaluator"
            )
        missing = [key for key in EVALUATOR_ARRAYS if key not in view.arrays]
        if missing:
            raise SharedMemoryError(
                f"segment {name!r} is missing evaluator arrays: {missing}"
            )
        evaluator = CompiledTreeEvaluator.from_arrays(
            feature=view.arrays["feature"],
            threshold=view.arrays["threshold"],
            left=view.arrays["left"],
            right=view.arrays["right"],
            leaf_label=view.arrays["leaf_label"],
            labels=tuple(view.meta["labels"]),
            feature_names=tuple(view.meta["feature_names"]),
        )
    except BaseException:
        view.close()
        raise
    return evaluator, view
