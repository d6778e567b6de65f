"""JSON-lines wire protocol for ``repro serve``.

One request per line, one response per line, both UTF-8 JSON objects.
The transport is any byte stream — the server listens on a unix socket
or localhost TCP; the framing is identical.

Request document::

    {"id": "r1", "op": "map", "overlay": "dsp", "workload": "fir",
     "timeout_s": 5.0, "options": {}}

``op`` is one of :data:`COMPUTE_OPS` (CPU-bound, admission-controlled,
coalesced — ``map``/``estimate``/``simulate``, the multi-workload
``simulate_batch`` whose ``workload`` is a comma-separated list, and
``remap``, the schedule-preserving incremental recompile) or
:data:`ADMIN_OPS` (served inline: ``ping``, ``stats``, ``shutdown``).
Every op is typed: the server never unpickles or executes bytes a client
sent.  ``overlay`` may be omitted when the server holds exactly one
design and may be a registry spec (``name@v2``) when the server has a
registry attached; a new design reaches a running server only by being
published to that registry.  ``id`` is echoed back verbatim so clients
may pipeline many requests over one connection.

Response document::

    {"id": "r1", "ok": true, "result": {...}, "error": null,
     "served": {"cache": "compute", "coalesced": false,
                "latency_s": 0.012, "queue_wait_s": 0.001}}

``result`` for compute ops is the canonical result document built by
:mod:`repro.serve.ops` — byte-identical (under ``canonical_dumps``) to
what the single-shot CLI path produces for the same overlay + workload.
On failure ``ok`` is false and ``error`` carries a structured code from
:mod:`repro.serve.errors`.  A line is ``encode_line(response_doc(...))``:
a served result's is spliced (:func:`response_line`) from the result's
canonical bytes, which were encoded once, when it was cached.

Framing.  :class:`JsonLinesProtocol` is the one framing loop on every
serve socket, in both directions: the server's and the router's
connections (:mod:`repro.serve.endpoint`) and
:class:`~repro.serve.client.ServeClient` (which the router also uses to
reach its shards).  A line is the bytes before ``\\n``; blank lines are
skipped; a read that is one whole line skips the buffer.  Each side
bounds the lines it reads, newline excluded:

* a request line may be at most :data:`MAX_LINE_BYTES` (1 MiB).  The
  server answers a longer one, or an unterminated tail that already is
  longer, with one ``bad_request`` response whose id is ``"?"``, answers
  what is already in flight, and closes that connection;
* a response line may be at most :data:`MAX_RESPONSE_BYTES` (64 MiB).
  A response carries a result the client asked for, and one request
  line may name thousands of workloads (``simulate_batch``, about 260
  bytes of result per name), so a response can be far longer than any
  request; the bound only stops a broken peer from making the client
  buffer without end.  A client reading a longer line fails every
  request in flight on that connection with ``ServeConnectionError``
  and closes it.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .errors import BadRequestError

#: Bumped whenever a wire document changes incompatibly.
PROTOCOL_VERSION = 1

#: Longest accepted request line (1 MiB) — an unframed client cannot
#: make the server buffer unboundedly.
MAX_LINE_BYTES = 1 << 20

#: Longest response line a client reads (64 MiB; see "Framing" above).
MAX_RESPONSE_BYTES = 64 << 20

COMPUTE_OPS = ("map", "estimate", "simulate", "simulate_batch", "remap")
ADMIN_OPS = ("ping", "stats", "shutdown")
ALL_OPS = COMPUTE_OPS + ADMIN_OPS


#: ``json.dumps(doc, sort_keys=True, separators=(",", ":"))``, built
#: once: ``dumps`` with any non-default argument builds an encoder per
#: call, about a fifth of the time it takes to encode a served response.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_dumps(doc: Any) -> str:
    """The one serialization used for results, cache values, and tests.

    Sorted keys + tight separators: two result documents are equal iff
    their canonical dumps are byte-identical.
    """
    return _CANONICAL.encode(doc)


def encode_line(doc: Dict[str, Any]) -> bytes:
    return (canonical_dumps(doc) + "\n").encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    try:
        doc = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BadRequestError(f"malformed request line: {exc}") from exc
    if not isinstance(doc, dict):
        raise BadRequestError(
            f"request must be a JSON object, got {type(doc).__name__}"
        )
    return doc


@dataclass
class Request:
    """A parsed, validated request."""

    id: str
    op: str
    overlay: Optional[str] = None
    workload: Optional[str] = None
    timeout_s: Optional[float] = None
    options: Dict[str, Any] = field(default_factory=dict)


def parse_request(doc: Dict[str, Any]) -> Request:
    """Validate a decoded request document; raise ``BadRequestError``."""
    op = doc.get("op")
    if op not in ALL_OPS:
        raise BadRequestError(
            f"unknown op {op!r}; expected one of {', '.join(ALL_OPS)}"
        )
    req_id = doc.get("id")
    if not isinstance(req_id, str) or not req_id:
        raise BadRequestError("request 'id' must be a non-empty string")
    overlay = doc.get("overlay")
    if overlay is not None and not isinstance(overlay, str):
        raise BadRequestError("'overlay' must be a string when present")
    workload = doc.get("workload")
    if op in COMPUTE_OPS:
        if not isinstance(workload, str) or not workload:
            raise BadRequestError(f"op {op!r} requires a 'workload' name")
    elif workload is not None and not isinstance(workload, str):
        raise BadRequestError("'workload' must be a string when present")
    timeout_s = doc.get("timeout_s")
    if timeout_s is not None:
        # bool is an int subclass and json.loads accepts NaN/Infinity:
        # neither is a deadline asyncio.wait_for can enforce.
        if isinstance(timeout_s, bool):
            raise BadRequestError("'timeout_s' must be a number")
        try:
            timeout_s = float(timeout_s)
        except (TypeError, ValueError) as exc:
            raise BadRequestError("'timeout_s' must be a number") from exc
        if not math.isfinite(timeout_s) or timeout_s <= 0:
            raise BadRequestError("'timeout_s' must be positive and finite")
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise BadRequestError("'options' must be an object when present")
    return Request(
        id=req_id,
        op=op,
        overlay=overlay,
        workload=workload,
        timeout_s=timeout_s,
        options=options,
    )


def response_doc(
    req_id: str,
    result: Optional[Dict[str, Any]] = None,
    error: Optional[Dict[str, Any]] = None,
    served: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    return {
        "id": req_id,
        "ok": error is None,
        "result": result,
        "error": error,
        "served": served or {},
    }


def response_line(req_id: str, result: bytes, served: Dict[str, Any]) -> bytes:
    """``encode_line(response_doc(req_id, doc, served=served))``, spliced
    from ``result`` = the canonical bytes of ``doc``: sorted keys put the
    fields in this order, so the result is never encoded again."""
    return b'{"error":null,"id":%s,"ok":true,"result":%s,"served":%s}\n' % (
        canonical_dumps(req_id).encode(), result,
        canonical_dumps(served).encode(),
    )


#: Bytes a connection reads per callback.
READ_CHUNK = 1 << 16


class JsonLinesProtocol(asyncio.BufferedProtocol):
    """Line framing and write flow control for one connection.

    The transport reads into this connection's own chunk
    (``get_buffer`` / ``buffer_updated``): asyncio's plain
    ``data_received`` path allocates a new 256 KiB ``bytes`` per read,
    which took longer than framing and parsing a request.
    :meth:`data_received` calls :meth:`line_received` for each non-blank
    line (``\\n`` stripped), in order and in the same callback: no reader
    task, no per-line hop, and no buffering of a read that is one line.  A
    line longer than :attr:`max_line` goes to :meth:`line_too_long`
    instead and the buffer is dropped.  Framing runs only while the
    transport is reading, so a subclass that pauses reading keeps the
    lines it has not framed yet, and frames them with :meth:`frame`
    when it resumes.

    Writes go straight to ``transport.write``.  When the transport's
    buffer passes its high-water mark the transport calls
    :meth:`pause_writing`, and :meth:`drain` waits until
    :meth:`resume_writing` (or the connection is lost).
    """

    #: Longest line read from the peer, newline excluded.
    max_line = MAX_LINE_BYTES

    def __init__(self) -> None:
        self._transport: Optional[asyncio.Transport] = None
        self._chunk = memoryview(bytearray(READ_CHUNK))
        self._buffer = bytearray()
        #: Where to resume the newline search: ``_buffer[:_scan]`` holds
        #: no newline past the last framed line.
        self._scan = 0
        self._paused = False
        self._drainers: List["asyncio.Future[None]"] = []

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self._transport = transport  # type: ignore[assignment]

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self._paused = False
        self._wake_drainers()

    def get_buffer(self, sizehint: int) -> memoryview:
        return self._chunk

    def buffer_updated(self, nbytes: int) -> None:
        self.data_received(self._chunk[:nbytes])

    def data_received(self, data: bytes) -> None:
        # One whole line into an empty buffer: frame() without the buffer.
        end = len(data) - 1
        if not self._buffer and 0 <= end <= self.max_line and data[end] == 10:
            line = bytes(data[:end])
            if b"\n" not in line and self._transport.is_reading():
                if line.strip():
                    self.line_received(line)
                return
        self._buffer += data
        self.frame()

    def frame(self) -> None:
        """Hand every complete buffered line to :meth:`line_received`."""
        buf, start = self._buffer, 0
        while self._transport.is_reading():
            end = buf.find(b"\n", self._scan)
            if end < 0:
                self._scan = len(buf)
                if len(buf) - start > self.max_line:
                    return self._overflow()
                break
            line = buf[start:end]
            start = self._scan = end + 1
            if len(line) > self.max_line:
                return self._overflow()
            if line.strip():
                self.line_received(line)
        del buf[:start]
        self._scan -= start

    def _overflow(self) -> None:
        self._buffer.clear()
        self._scan = 0
        self.line_too_long()

    def line_received(self, line: bytes) -> None:
        raise NotImplementedError

    def line_too_long(self) -> None:
        raise NotImplementedError

    # -- flow control ---------------------------------------------------
    def pause_writing(self) -> None:
        self._paused = True

    def resume_writing(self) -> None:
        self._paused = False
        self._wake_drainers()

    def _wake_drainers(self) -> None:
        drainers, self._drainers = self._drainers, []
        for waiter in drainers:
            if not waiter.done():
                waiter.set_result(None)

    async def drain(self) -> None:
        """Wait while the transport's write buffer is over its mark."""
        if self._paused:
            waiter = asyncio.get_running_loop().create_future()
            self._drainers.append(waiter)
            await waiter
