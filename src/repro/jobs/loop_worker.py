"""One worker process driven from an asyncio event loop, with no thread
on the caller's side: length-prefixed pickled ``(fn, args)`` frames out,
``(ok, value)`` frames back, and EOF on either end is the other's death.
Frames carry only what the caller pickled and its own child answered."""

from __future__ import annotations

import asyncio
import gc
import multiprocessing
import os
import pickle
import signal
import socket
import struct
import weakref
from collections import deque
from concurrent.futures import BrokenExecutor
from typing import Any, Callable, Deque, Optional


#: A frame's length prefix: ``(fn, args)`` jobs out, ``(ok, value)`` back.
_FRAME = struct.Struct("!I")
#: Every worker socket end this process holds.  A freshly forked worker
#: closes all but its own, so only its caller's end keeps it alive.
_ENDS: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()


def _serve(end: socket.socket) -> None:
    """A worker's life: answer each job frame with one reply frame, in
    the order sent, until EOF says its caller is gone."""
    for other in _ENDS - {end}:
        other.close()
    signal.set_wakeup_fd(-1)  # a signal here is not the caller's to see
    read = end.makefile("rb").read
    while True:
        head = read(_FRAME.size)
        size = _FRAME.unpack(head)[0] if len(head) == _FRAME.size else 0
        body = read(size)
        if not size or len(body) < size:
            os._exit(0)
        try:
            fn, args = pickle.loads(body)
            reply = (True, fn(*args))
        except BaseException as exc:
            reply = (False, exc)
        try:
            frame = pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # a reply that does not pickle
            frame = pickle.dumps((False, RuntimeError(repr(exc))))
        try:
            end.sendall(_FRAME.pack(len(frame)) + frame)
        except OSError:
            os._exit(0)


class LoopWorker:
    """One worker process, forked at its first job.  It runs its jobs in
    the order sent, so one FIFO of futures pairs each reply with its
    job; :meth:`submit` and :meth:`shutdown` mirror an executor's."""

    def __init__(self) -> None:
        self._end, self._child_end = socket.socketpair()
        _ENDS.update((self._end, self._child_end))
        self._process: Optional[multiprocessing.process.BaseProcess] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pending: Deque["asyncio.Future[Any]"] = deque()
        self._inbox, self._outbox = bytearray(), bytearray()
        self._closed = False

    def submit(self, fn: Callable[..., Any], *args: Any) -> "asyncio.Future[Any]":
        future = asyncio.get_running_loop().create_future()
        if self._process is None and not self._closed:
            try:
                self._start()
            except OSError as exc:
                self._close(BrokenExecutor(f"cannot fork: {exc}"))
        if self._closed:
            future.set_exception(BrokenExecutor("worker is gone"))
            return future
        body = pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL)
        self._pending.append(future)
        self._write(_FRAME.pack(len(body)) + body)
        return future

    def _start(self) -> None:
        self._loop = asyncio.get_running_loop()
        process = multiprocessing.get_context("fork").Process(
            target=_serve, args=(self._child_end,),
            name="loop-worker", daemon=True,
        )
        gc.freeze()  # the caller's heap stays out of the worker's collections
        try:
            process.start()
        finally:
            gc.unfreeze()
        self._process = process
        _ENDS.discard(self._child_end)
        self._child_end.close()
        self._end.setblocking(False)
        self._loop.add_reader(self._end.fileno(), self._read)

    def _write(self, frame: bytes = b"") -> None:
        """Send what the socket takes without blocking; the rest waits in
        the outbox until it drains (the writer callback: no ``frame``)."""
        outbox, waiting = self._outbox, bool(self._outbox)
        outbox += frame
        if waiting and frame:
            return
        try:
            sent = self._end.send(outbox)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:  # the worker died: EOF on the reader fails its jobs
            sent = len(outbox)
        del outbox[:sent]
        if outbox:
            self._loop.add_writer(self._end.fileno(), self._write)
        elif waiting:
            self._loop.remove_writer(self._end.fileno())

    def _read(self) -> None:
        try:
            data = self._end.recv(1 << 16)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            data = b""
        if not data:
            return self._close(BrokenExecutor("worker died"))
        inbox = self._inbox
        inbox += data
        while len(inbox) >= _FRAME.size:
            size = _FRAME.size + _FRAME.unpack_from(inbox)[0]
            if len(inbox) < size:
                break
            try:
                ok, value = pickle.loads(inbox[_FRAME.size:size])
            except Exception as exc:
                ok, value = False, exc
            del inbox[:size]
            future = self._pending.popleft()
            if future.done():  # its caller went away
                continue
            if ok:
                future.set_result(value)
            else:
                future.set_exception(value)

    def _close(self, error: Optional[BaseException] = None) -> None:
        """Reap the worker, then fail its jobs with ``error`` (or, on a
        shutdown, cancel them)."""
        if self._closed:
            return
        self._closed = True
        if self._process is not None:
            self._loop.remove_reader(self._end.fileno())
            self._loop.remove_writer(self._end.fileno())
            self._process.kill()  # a job that outlived the drain goes too
            self._process.join()
        for end in (self._end, self._child_end):
            _ENDS.discard(end)
            end.close()
        for future in self._pending:
            if future.done():
                continue
            if error is None:
                future.cancel()
            else:
                future.set_exception(error)
        self._pending.clear()

    def shutdown(self, wait: bool = True, *, cancel_futures: bool = False) -> None:
        self._close()
