"""Client for ``repro serve``: one-shot requests and a load generator.

:class:`ServeClient` speaks the JSON-lines protocol over a unix socket
or TCP, pipelining any number of concurrent requests on one connection
(responses are matched back by request id).  It frames responses with
the same :class:`~repro.serve.protocol.JsonLinesProtocol` the server's
connections use, so there is one framing loop and one line bound rule
on both ends of every serve socket, the router-to-shard link included.

:func:`run_load` is the bundled load generator: it fires ``requests``
total requests at ``concurrency`` in flight, cycling through an op ×
workload mix.  Because the mix repeats, concurrent requests are
frequently identical — exactly the traffic shape single-flight
coalescing exists for — and the report cross-checks the server's
``stats`` op to assert that compiles < requests.  Every response body is
also verified byte-identical (canonical JSON) across duplicates of the
same (op, workload) pair.  Pointed at a cluster router it is the same
generator: the router picks every request's shard, and its ``stats``
report how many requests each shard was routed.  It runs in one
process on one event loop; ``bench/`` measures serving throughput with
its own closed-loop client.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Awaitable, Dict, List, Optional, Sequence, Tuple

from .batcher import LatencyReservoir
from .errors import BadRequestError, ServeError, error_from_doc
from .protocol import (
    MAX_RESPONSE_BYTES,
    JsonLinesProtocol,
    canonical_dumps,
    decode_line,
)

#: Request lines need no canonical form: one unsorted encoder.
_REQUEST = json.JSONEncoder(separators=(",", ":"))


class ServeConnectionError(ConnectionError):
    """The server endpoint cannot be reached or died mid-request."""


class ServeClient(JsonLinesProtocol):
    """Asyncio JSON-lines client with id-based response matching.

    The client is its connection's protocol: a request line goes straight
    to ``transport.write``, and :meth:`request_raw` returns the future
    ``data_received`` resolves with the response carrying its id (a
    coroutine only while the transport is paused).  Response lines are
    bounded by :data:`~repro.serve.protocol.MAX_RESPONSE_BYTES`.
    """

    max_line = MAX_RESPONSE_BYTES

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__()
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self._pending: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._ids = itertools.count(1)
        self._lost: Optional["asyncio.Future[None]"] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    async def __aenter__(self) -> "ServeClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    async def connect(self) -> None:
        loop = self._loop = asyncio.get_running_loop()
        self._lost = loop.create_future()
        try:
            if self.socket_path:
                await loop.create_unix_connection(
                    lambda: self, self.socket_path
                )
            else:
                await loop.create_connection(
                    lambda: self, self.host, self.port
                )
        except (ConnectionError, OSError) as exc:
            endpoint = self.socket_path or f"{self.host}:{self.port}"
            raise ServeConnectionError(
                f"cannot connect to repro serve at {endpoint}: {exc}"
            ) from exc

    async def close(self) -> None:
        self._fail_pending(ServeConnectionError("connection closed"))
        if self._transport is not None:
            self._transport.close()
            self._transport = None
            await self._lost

    def connection_lost(self, exc: Optional[Exception]) -> None:
        super().connection_lost(exc)
        self._fail_pending(ServeConnectionError("server closed connection"))
        if not self._lost.done():
            self._lost.set_result(None)

    def line_received(self, line: bytes) -> None:
        try:
            doc = decode_line(line)
        except BadRequestError as exc:
            return self._abort(f"bad response line: {exc}")
        future = self._pending.pop(str(doc.get("id")), None)
        if future is not None and not future.done():
            future.set_result(doc)

    def line_too_long(self) -> None:
        self._abort(f"response line exceeds {self.max_line} bytes")

    def _abort(self, reason: str) -> None:
        self._fail_pending(ServeConnectionError(reason))
        self._transport.close()

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    # -- request API ----------------------------------------------------
    def request_raw(self, doc: Dict[str, Any]) -> Awaitable[Dict[str, Any]]:
        """Send one request document; return an awaitable of the raw
        response document."""
        transport = self._transport
        if transport is None or transport.is_closing():
            raise ServeConnectionError("client is not connected")
        req_id = doc.get("id") or f"c{next(self._ids)}"
        future: "asyncio.Future[Dict[str, Any]]" = self._loop.create_future()
        self._pending[req_id] = future
        transport.write(
            (_REQUEST.encode({**doc, "id": req_id}) + "\n").encode()
        )
        return self._drained(future) if self._paused else future

    async def _drained(self, future: "asyncio.Future[Any]") -> Any:
        await self.drain()
        return await future

    async def request(
        self,
        op: str,
        workload: Optional[str] = None,
        overlay: Optional[str] = None,
        timeout_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """One request; returns the ``result`` doc or raises the typed error."""
        doc: Dict[str, Any] = {"op": op}
        if workload is not None:
            doc["workload"] = workload
        if overlay is not None:
            doc["overlay"] = overlay
        if timeout_s is not None:
            doc["timeout_s"] = timeout_s
        response = await self.request_raw(doc)
        if not response.get("ok"):
            raise error_from_doc(response.get("error"))
        return response["result"]

    async def ping(self) -> Dict[str, Any]:
        return await self.request("ping")

    async def stats(self) -> Dict[str, Any]:
        return await self.request("stats")

    async def shutdown(self) -> Dict[str, Any]:
        return await self.request("shutdown")


async def wait_for_server(
    client_factory, attempts: int = 50, delay_s: float = 0.1
) -> None:
    """Poll until a fresh client can ping the server (startup race)."""
    last: Optional[Exception] = None
    for _ in range(attempts):
        try:
            async with client_factory() as client:
                await client.ping()
                return
        except (ServeConnectionError, OSError) as exc:
            last = exc
            await asyncio.sleep(delay_s)
    raise ServeConnectionError(f"server never came up: {last}")


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
@dataclass
class LoadReport:
    """Outcome of one load run; renders and asserts the ISSUE criteria."""

    requests: int = 0
    ok: int = 0
    errors: int = 0
    error_codes: Dict[str, int] = field(default_factory=dict)
    wall_s: float = 0.0
    latency: LatencyReservoir = field(default_factory=LatencyReservoir)
    #: canonical result bytes per (op, workload, overlay) — duplicates
    #: must match across connections.
    results: Dict[Tuple[str, str, str], str] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    server_stats: Optional[Dict[str, Any]] = None

    @property
    def throughput(self) -> float:
        return self.requests / self.wall_s if self.wall_s else 0.0

    @property
    def computes(self) -> Optional[int]:
        if self.server_stats is None:
            return None
        counters = self.server_stats.get("counters") or {}
        if "computes" in counters:
            return counters.get("computes")
        aggregate = self.server_stats.get("aggregate") or {}
        return (aggregate.get("counters") or {}).get("computes")

    def as_dict(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": self.errors,
            "error_codes": dict(sorted(self.error_codes.items())),
            "wall_s": self.wall_s,
            "throughput_rps": self.throughput,
            "latency": self.latency.as_dict(),
            "mismatches": self.mismatches,
            "computes": self.computes,
        }

    def render(self) -> str:
        lat = self.latency.as_dict()
        lines = [
            f"load: {self.requests} requests in {self.wall_s:.2f}s "
            f"({self.throughput:.0f} req/s), {self.ok} ok / "
            f"{self.errors} errors",
            f"latency: p50 {lat['p50_s'] * 1e3:.1f} ms, "
            f"p95 {lat['p95_s'] * 1e3:.1f} ms, "
            f"p99 {lat['p99_s'] * 1e3:.1f} ms, "
            f"max {lat['max_s'] * 1e3:.1f} ms",
        ]
        if self.error_codes:
            codes = ", ".join(
                f"{code}={n}" for code, n in sorted(self.error_codes.items())
            )
            lines.append(f"error codes: {codes}")
        if self.server_stats is not None:
            counters = self.server_stats.get("counters") or {}
            if "computes" in counters:
                flights = counters["computes"] + counters["coalesced"]
                rate = counters["coalesced"] / flights if flights else 0.0
                lines.append(
                    f"server: {counters['computes']} compiles for "
                    f"{self.requests} requests (coalesced "
                    f"{counters['coalesced']}, memory hits "
                    f"{counters['cache_memory']}, disk hits "
                    f"{counters['cache_disk']}, coalesce rate "
                    f"{rate:.0%})"
                )
            else:  # router stats: aggregate over shards
                agg = (self.server_stats.get("aggregate") or {}).get(
                    "counters"
                ) or {}
                shards = self.server_stats.get("shards") or []
                lines.append(
                    f"cluster: {agg.get('computes', 0)} compiles for "
                    f"{self.requests} requests across {len(shards)} shards "
                    f"(coalesced {agg.get('coalesced', 0)}, memory hits "
                    f"{agg.get('cache_memory', 0)}, remap preserved "
                    f"{agg.get('remap_preserved', 0)}; routed per shard "
                    f"{'/'.join(str(s['routed']) for s in shards)})"
                )
        if self.mismatches:
            lines.append(f"RESULT MISMATCHES: {self.mismatches}")
        return "\n".join(lines)


def build_load_plan(
    ops: Sequence[str],
    workloads: Sequence[str],
    overlays: Sequence[Optional[str]],
    requests: int,
) -> List[Tuple[str, str, Optional[str]]]:
    """The deterministic request plan: ``requests`` items cycling the
    op × workload × overlay product, so duplicates recur in flight."""
    mix = [
        (op, wl, ov)
        for ov in (overlays or [None])
        for wl in workloads
        for op in ops
    ]
    return [mix[i % len(mix)] for i in range(requests)]


async def run_load(
    client_factory,
    ops: Sequence[str] = ("map", "estimate", "simulate"),
    workloads: Sequence[str] = ("vecmax",),
    requests: int = 64,
    concurrency: int = 16,
    overlay: Optional[str] = None,
    overlays: Optional[Sequence[str]] = None,
    timeout_s: Optional[float] = None,
    expect_errors: bool = False,
) -> LoadReport:
    """Fire a mixed, duplicate-heavy request stream; collect a report.

    ``client_factory`` returns an unconnected :class:`ServeClient`; the
    generator opens ``concurrency`` connections and drives them in
    parallel, cycling the op × workload × overlay product so identical
    requests overlap in flight.  The report carries the server's (or
    router's) ``stats`` fetched after the last response.
    """
    report = LoadReport()
    queue: "asyncio.Queue[Tuple[str, str, Optional[str]]]" = asyncio.Queue()
    for item in build_load_plan(
        ops, workloads, overlays or [overlay], requests
    ):
        queue.put_nowait(item)
    lock = asyncio.Lock()

    async def worker() -> None:
        async with client_factory() as client:
            while True:
                try:
                    op, wl, ov = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                t0 = perf_counter()
                try:
                    result = await client.request(
                        op, workload=wl, overlay=ov, timeout_s=timeout_s
                    )
                except ServeError as exc:
                    async with lock:
                        report.errors += 1
                        report.error_codes[exc.code] = (
                            report.error_codes.get(exc.code, 0) + 1
                        )
                    continue
                finally:
                    latency = perf_counter() - t0
                    async with lock:
                        report.requests += 1
                        report.latency.record(latency)
                blob = canonical_dumps(result)
                key = (op, wl, ov or "")
                async with lock:
                    report.ok += 1
                    seen = report.results.setdefault(key, blob)
                    if seen != blob:
                        report.mismatches.append(
                            f"{op}/{wl}: divergent duplicate result"
                        )

    t_start = perf_counter()
    await asyncio.gather(*(worker() for _ in range(max(1, concurrency))))
    report.wall_s = perf_counter() - t_start
    # errors counted requests too; reconcile to total attempted
    report.requests = report.ok + report.errors
    async with client_factory() as client:
        report.server_stats = await client.stats()
    if not expect_errors and report.errors:
        codes = ", ".join(sorted(report.error_codes))
        raise ServeError(
            f"load run hit {report.errors} errors ({codes}); see report"
        )
    return report

