"""The JSON-lines connection loop shared by the server and the router.

:class:`JsonLinesEndpoint` owns everything between the socket and a
``dispatch(request, doc)`` coroutine: listening (unix socket or TCP),
one task per request line so a slow request never blocks its connection,
oversize-line rejection, request parsing, mapping every failure onto a
typed error response, serialized response writes, and the drain tail.
``OverlayServer`` and ``ClusterRouter`` differ only in what their
dispatch does with a parsed request.
"""

from __future__ import annotations

import asyncio
import os
import signal
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from .errors import BadRequestError, InternalError, ServeError
from .protocol import (
    MAX_LINE_BYTES,
    Request,
    decode_line,
    encode_line,
    parse_request,
    response_doc,
)

Dispatch = Callable[[Request, Dict[str, Any]], Awaitable[Dict[str, Any]]]


class JsonLinesEndpoint:
    """One listening socket speaking :mod:`repro.serve.protocol`.

    ``counters`` is the owner's counter dict; the endpoint bumps its
    ``responses_error`` entry for every failure it turns into a response.
    """

    def __init__(self, dispatch: Dispatch, counters: Dict[str, int]) -> None:
        self._dispatch = dispatch
        self._counters = counters
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: "set[asyncio.Task[Any]]" = set()
        self._writers: "set[asyncio.StreamWriter]" = set()
        #: ``("unix", path)`` or ``("tcp", (host, port))`` once listening.
        self.address: Optional[Tuple[str, Any]] = None

    async def listen(
        self, socket_path: Optional[str], host: str, port: int
    ) -> None:
        if socket_path:
            if os.path.exists(socket_path):
                os.unlink(socket_path)
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=socket_path,
                limit=MAX_LINE_BYTES,
            )
            self.address = ("unix", socket_path)
        else:
            self._server = await asyncio.start_server(
                self._handle_connection,
                host=host,
                port=port,
                limit=MAX_LINE_BYTES,
            )
            sock = self._server.sockets[0]
            self.address = ("tcp", sock.getsockname()[:2])

    async def stop(self, timeout: float) -> None:
        """Stop listening; give in-flight requests ``timeout`` to finish."""
        if self._server is not None:
            # close() only — on 3.12+ wait_closed() also waits for every
            # connection handler, which deadlocks against clients holding
            # their connection open while they await the drain.
            self._server.close()
        pending = [t for t in self._tasks if not t.done()]
        if pending:
            _, late = await asyncio.wait(pending, timeout=timeout)
            for task in late:
                task.cancel()

    def close(self) -> None:
        """Hang up on lingering clients and remove the unix socket."""
        # Closing the transports lets the handler coroutines exit through
        # EOF rather than being cancelled at loop teardown.
        for writer in list(self._writers):
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass
        kind, where = self.address or (None, None)
        if kind == "unix" and os.path.exists(where):
            os.unlink(where)

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        request_tasks: "set[asyncio.Task[Any]]" = set()
        self._writers.add(writer)
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ValueError, asyncio.LimitOverrunError):
                    await self._write(
                        writer,
                        write_lock,
                        response_doc(
                            "?",
                            error=BadRequestError(
                                f"request line exceeds {MAX_LINE_BYTES} bytes"
                            ).to_doc(),
                        ),
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.get_running_loop().create_task(
                    self._serve_line(line, writer, write_lock)
                )
                request_tasks.add(task)
                self._tasks.add(task)
                task.add_done_callback(request_tasks.discard)
                task.add_done_callback(self._tasks.discard)
            if request_tasks:
                await asyncio.gather(*request_tasks, return_exceptions=True)
        except asyncio.CancelledError:
            # Exit quietly: asyncio owns this task, and on 3.11 its
            # StreamReaderProtocol done-callback calls task.exception()
            # on a cancelled handler, logging a spurious "Exception in
            # callback" traceback per connection if we propagate.
            pass
        finally:
            self._writers.discard(writer)
            # close() without awaiting wait_closed(): this task may be
            # cancelled at loop teardown, and an await here would surface
            # as a spurious CancelledError in asyncio's protocol callback.
            try:
                writer.close()
            except (ConnectionError, OSError):
                pass

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        doc: Dict[str, Any],
    ) -> None:
        async with lock:
            writer.write(encode_line(doc))
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass

    async def _serve_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        req_id = "?"
        try:
            doc = decode_line(line)
            req_id = str(doc.get("id", "?"))
            request = parse_request(doc)
            response = await self._dispatch(request, doc)
        except ServeError as exc:
            self._counters["responses_error"] += 1
            response = response_doc(req_id, error=exc.to_doc())
        except Exception as exc:  # never kill the connection loop
            self._counters["responses_error"] += 1
            response = response_doc(
                req_id,
                error=InternalError(f"{type(exc).__name__}: {exc}").to_doc(),
            )
        await self._write(writer, write_lock, response)


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
