"""The JSON-lines connection loop shared by the server and the router.

:class:`JsonLinesEndpoint` owns everything between the socket and a
``dispatch(request, doc)`` callable: listening (unix socket or TCP), one
:class:`~repro.serve.protocol.JsonLinesProtocol` per connection, request
parsing, mapping every failure onto a typed error response, and the
drain tail.  ``dispatch`` returns the response (a document, or a served
result's line, already spliced), or an awaitable of it.  A response
(admin ops, cache hits, synchronous typed errors) is written inside
``data_received``, with no task; only an awaitable (a miss, a router
forward) gets one task, so a slow request never blocks its connection.
While a peer does not read its responses (the transport's write buffer
is past its high-water mark) the endpoint stops reading that peer's
requests, and resumes when the buffer drains.  ``OverlayServer`` and
``ClusterRouter`` differ only in what their dispatch does with a parsed
request.  The endpoint alone counts served lines, in the owner's
counters: ``requests`` per line received (malformed and oversize ones
too), ``responses_ok`` / ``responses_error`` per response
:meth:`_Connection.send` answers, read or not; after a drain the two
sides are equal.
"""

from __future__ import annotations

import asyncio
import os
import signal
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple, Union

from .errors import BadRequestError, InternalError, ServeError
from .errors import ShuttingDownError
from .protocol import (
    MAX_LINE_BYTES,
    JsonLinesProtocol,
    Request,
    decode_line,
    encode_line,
    parse_request,
    response_doc,
)

#: A response document, or its line already encoded.
Response = Union[Dict[str, Any], bytes]
Dispatch = Callable[
    [Request, Dict[str, Any]], Union[Response, Awaitable[Response]]
]


class _Connection(JsonLinesProtocol):
    """One accepted connection: every line is a request."""

    def __init__(self, endpoint: "JsonLinesEndpoint") -> None:
        super().__init__()
        self._endpoint = endpoint
        self._counters = endpoint._counters
        #: Responses still being computed for this connection.
        self.tasks: "set[asyncio.Task[None]]" = set()
        #: EOF or an oversize line: read nothing more, close once answered.
        self._done_reading = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        super().connection_made(transport)
        self._endpoint._connections.add(self)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        self._endpoint._connections.discard(self)

    def line_received(self, line: bytes) -> None:
        self._endpoint._serve_line(line, self)

    def line_too_long(self) -> None:
        self._counters["requests"] += 1
        error = BadRequestError(f"request line exceeds {MAX_LINE_BYTES} bytes")
        self.send(self._endpoint._failure("?", error))
        self._stop_reading()

    def eof_received(self) -> bool:
        if self._buffer.strip():  # an unterminated last request
            self.data_received(b"\n")
        self._stop_reading()
        return True  # keep the write side open for the answers

    def pause_writing(self) -> None:
        super().pause_writing()
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        super().resume_writing()
        if not self._done_reading:
            self._transport.resume_reading()
            self.frame()

    def send(self, response: Response) -> None:
        """Count and write one response: a spliced line is an ok result,
        a document is what its ``ok`` says."""
        if isinstance(response, bytes):
            line, ok = response, True
        else:
            line, ok = encode_line(response), response.get("ok")
        self._counters["responses_ok" if ok else "responses_error"] += 1
        if not self._transport.is_closing():
            self._transport.write(line)

    def answered(self, task: "asyncio.Task[None]") -> None:
        self.tasks.discard(task)
        self._close_if_answered()

    def _stop_reading(self) -> None:
        self._done_reading = True
        self._transport.pause_reading()
        self._close_if_answered()

    def _close_if_answered(self) -> None:
        if self._done_reading and not self.tasks:
            self._transport.close()


class JsonLinesEndpoint:
    """One listening socket speaking :mod:`repro.serve.protocol`.

    ``counters`` is the owner's counter dict; the endpoint is the only
    code that bumps its ``requests``, ``responses_ok`` and
    ``responses_error`` entries.
    """

    def __init__(self, dispatch: Dispatch, counters: Dict[str, int]) -> None:
        self._dispatch = dispatch
        self._counters = counters
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: "set[asyncio.Task[None]]" = set()
        self._connections: "set[_Connection]" = set()
        #: ``("unix", path)`` or ``("tcp", (host, port))`` once listening.
        self.address: Optional[Tuple[str, Any]] = None

    async def listen(
        self, socket_path: Optional[str], host: str, port: int
    ) -> None:
        loop = asyncio.get_running_loop()
        if socket_path:
            if os.path.exists(socket_path):
                os.unlink(socket_path)
            self._server = await loop.create_unix_server(
                lambda: _Connection(self), path=socket_path
            )
            self.address = ("unix", socket_path)
        else:
            self._server = await loop.create_server(
                lambda: _Connection(self), host=host, port=port
            )
            sock = self._server.sockets[0]
            self.address = ("tcp", sock.getsockname()[:2])

    async def stop(self, timeout: float) -> None:
        """Stop listening; give in-flight requests ``timeout`` to finish."""
        if self._server is not None:
            # close() only — on 3.12+ wait_closed() also waits for every
            # connection, which deadlocks against clients holding their
            # connection open while they await the drain.
            self._server.close()
        pending = [t for t in self._tasks if not t.done()]
        if pending:
            _, late = await asyncio.wait(pending, timeout=timeout)
            for task in late:
                task.cancel()

    def close(self) -> None:
        """Hang up on lingering clients and remove the unix socket."""
        for conn in list(self._connections):
            conn._transport.close()
        kind, where = self.address or (None, None)
        if kind == "unix" and os.path.exists(where):
            os.unlink(where)

    # ------------------------------------------------------------------
    def _serve_line(self, line: bytes, conn: _Connection) -> None:
        self._counters["requests"] += 1
        req_id = "?"
        try:
            doc = decode_line(line)
            req_id = str(doc.get("id", "?"))
            response = self._dispatch(parse_request(doc), doc)
        except Exception as exc:  # never kill the connection
            response = self._failure(req_id, exc)
        if isinstance(response, (bytes, dict)):
            conn.send(response)
            return
        task = asyncio.get_running_loop().create_task(
            self._answer(req_id, response, conn)
        )
        self._tasks.add(task)
        conn.tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        task.add_done_callback(conn.answered)

    async def _answer(
        self, req_id: str, pending: Awaitable[Response], conn: _Connection
    ) -> None:
        try:
            response = await pending
        except Exception as exc:
            response = self._failure(req_id, exc)
        except asyncio.CancelledError:  # the drain ran out of time
            error = ShuttingDownError("drain timed out")
            conn.send(self._failure(req_id, error))
            raise
        conn.send(response)

    def _failure(self, req_id: str, exc: Exception) -> Response:
        if not isinstance(exc, ServeError):
            exc = InternalError(f"{type(exc).__name__}: {exc}")
        return response_doc(req_id, error=exc.to_doc())


async def run_until_shutdown(
    service: Any, signals: Optional[List[int]] = None
) -> None:
    """Start ``service`` (an ``OverlayServer`` or ``ClusterRouter``),
    install signal-driven drain, and block until it has closed."""
    await service.start()
    loop = asyncio.get_running_loop()
    installed: List[int] = []
    for sig in signals or [signal.SIGINT, signal.SIGTERM]:
        try:
            loop.add_signal_handler(
                sig, lambda: loop.create_task(service.shutdown())
            )
            installed.append(sig)
        except (NotImplementedError, RuntimeError, ValueError):
            pass
    try:
        await service.wait_closed()
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
