"""Pickled frames over one end of a socketpair, driven by the running loop.

The sharded router (:mod:`repro.serving.sharded`) and its shard workers
(:mod:`repro.serving.worker`) talk over ``multiprocessing.Pipe()``: a
socketpair whose two ends sit in two processes (a forked worker) or on one
event loop (an in-process worker).  Each end is wrapped in one
:class:`_Channel`, so **no thread touches the pipe**: reads wake on
``add_reader`` and parse every whole frame the socket holds; writes are
buffered and go out once per loop turn with a non-blocking write, falling
back to ``add_writer`` only while the kernel refuses bytes.  So no frame
costs a thread wake-up or a GIL hand-off on either side, and the frames one
loop turn sends leave in one write.

The wire format is ``Connection``'s own (a 4-byte big-endian signed length,
then a pickle), so a plain blocking ``Connection`` still talks to either
end.  Never call ``Connection.send``/``recv`` on a channel's end from async
code: the end is non-blocking, and when both ends share one loop a blocking
write larger than the socket buffers would deadlock.

Errors cross the pipe as pickles too (:func:`_pickle_error` /
:func:`_unpickle_error`), falling back to their rendering when they do not
survive the round trip.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import struct
from collections import deque

from repro.exceptions import WiSeDBError

#: ``multiprocessing.Connection``'s frame header: the pickle's length as a
#: 4-byte big-endian signed int.
_HEADER = struct.Struct("!i")

#: Bytes asked of the socket per read.
_READ_SIZE = 1 << 16


def _pickle_error(error: BaseException):
    """An exception as pipe-safe bytes (falls back to its rendering)."""
    try:
        blob = pickle.dumps(error)
        pickle.loads(blob)  # some exceptions pickle but refuse to unpickle
    except Exception:
        return f"{type(error).__name__}: {error}"
    return blob


def _unpickle_error(blob) -> BaseException:
    if isinstance(blob, bytes):
        try:
            error = pickle.loads(blob)
        except Exception:
            return WiSeDBError("shard worker failed with an unpicklable error")
        if isinstance(error, BaseException):
            return error
    if isinstance(blob, str):
        return WiSeDBError(blob)
    return WiSeDBError(f"shard worker failed: {blob!r}")


class _Channel:
    """Pickled frames over one end of a ``Pipe()``, on the running loop.

    The pipe is a socketpair, so its end goes non-blocking and the event loop
    watches it; no thread ever touches it.  A read wakes on ``add_reader``
    and queues every whole frame the socket holds for :meth:`recv`.
    :meth:`send` appends to a buffer that is written once per loop turn, so
    everything sent in one turn leaves in one write; bytes the kernel refuses
    go out through ``add_writer``, and :meth:`drain` waits only while it
    does.  The framing is ``Connection.send_bytes``'s, so a plain blocking
    ``Connection`` may sit at the other end.

    A dead peer is reported in one place: :meth:`recv` raises ``EOFError``
    once the frames that arrived before it are consumed.  A failed write is
    dropped, since the read side reports the same death.  The caller keeps
    owning the connection; :meth:`close` only stops watching it.
    """

    def __init__(self, connection) -> None:
        self._loop = asyncio.get_running_loop()
        self._fd = connection.fileno()
        os.set_blocking(self._fd, False)
        self._incoming = bytearray()
        self._frames: deque = deque()
        self._eof = False
        self._readable: asyncio.Future | None = None
        self._outgoing = bytearray()
        self._flush_scheduled = False
        self._writing = False
        self._writable: asyncio.Future | None = None
        #: Set once the peer refused a write or the channel closed.
        self._discard = False
        self._loop.add_reader(self._fd, self._on_readable)

    # -- reading -------------------------------------------------------------------

    def _on_readable(self) -> None:
        try:
            chunk = os.read(self._fd, _READ_SIZE)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:  # reset by a peer that died
            chunk = b""
        if chunk:
            self._take(chunk)
        else:
            self._eof = True
            self._loop.remove_reader(self._fd)
        waiter = self._readable
        if (self._frames or self._eof) and waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _take(self, chunk: bytes) -> None:
        """Append *chunk* and queue every frame it completes."""
        data = self._incoming
        data += chunk
        start, size = 0, len(data)
        while size - start >= _HEADER.size:
            (length,) = _HEADER.unpack_from(data, start)
            end = start + _HEADER.size + length
            if end > size:
                break
            self._frames.append(data[start + _HEADER.size : end])
            start = end
        del data[:start]

    async def recv(self):
        """The next frame, unpickled; ``EOFError`` once the peer is gone."""
        while not self._frames:
            if self._eof:
                raise EOFError
            self._readable = self._loop.create_future()
            try:
                await self._readable
            finally:
                self._readable = None
        return pickle.loads(self._frames.popleft())

    # -- writing -------------------------------------------------------------------

    def send(self, message) -> None:
        """Queue one frame; it leaves with everything else sent this loop turn."""
        payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        if self._discard:
            return
        self._outgoing += _HEADER.pack(len(payload))
        self._outgoing += payload
        if not (self._flush_scheduled or self._writing):
            self._flush_scheduled = True
            self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        self._flush_scheduled = False
        if self._discard or not self._outgoing:
            return
        try:
            sent = os.write(self._fd, self._outgoing)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:  # the peer is gone; recv() reports it
            self._discard = True
            sent = len(self._outgoing)
        del self._outgoing[:sent]
        if self._outgoing:
            if not self._writing:
                self._writing = True
                self._loop.add_writer(self._fd, self._flush)
        elif self._writing:
            self._stop_writing()

    def _stop_writing(self) -> None:
        self._writing = False
        self._loop.remove_writer(self._fd)
        waiter = self._writable
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    async def drain(self) -> None:
        """Wait while the kernel is refusing this end's bytes."""
        while self._writing:
            if self._writable is None or self._writable.done():
                self._writable = self._loop.create_future()
            await self._writable

    async def aclose(self) -> None:
        """Write out everything sent so far, then :meth:`close`."""
        self._flush()
        await self.drain()
        self.close()

    def close(self) -> None:
        """Stop watching the descriptor and drop unsent bytes (idempotent)."""
        self._discard = True
        self._outgoing.clear()
        self._loop.remove_reader(self._fd)
        if self._writing:
            self._stop_writing()
        self._eof = True
        waiter = self._readable
        if waiter is not None and not waiter.done():
            waiter.set_result(None)
