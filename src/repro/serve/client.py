"""Client for ``repro serve``: one-shot requests and a load generator.

:class:`ServeClient` speaks the JSON-lines protocol over a unix socket
or TCP, pipelining any number of concurrent requests on one connection
(responses are matched back by request id).

:func:`run_load` is the bundled load generator: it fires ``requests``
total requests at ``concurrency`` in flight, cycling through an op ×
workload mix.  Because the mix repeats, concurrent requests are
frequently identical — exactly the traffic shape single-flight
coalescing exists for — and the report cross-checks the server's
``stats`` op to assert that compiles < requests.  Every response body is
also verified byte-identical (canonical JSON) across duplicates of the
same (op, workload) pair.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .batcher import LatencyReservoir
from .errors import ServeError, error_from_doc
from .protocol import canonical_dumps, decode_line, encode_line


class ServeConnectionError(ConnectionError):
    """The server endpoint cannot be reached or died mid-request."""


class ServeClient:
    """Asyncio JSON-lines client with id-based response matching."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.socket_path = socket_path
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._pending: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        self._ids = itertools.count(1)
        self._reader_task: Optional["asyncio.Task[None]"] = None
        self._write_lock: Optional[asyncio.Lock] = None

    async def __aenter__(self) -> "ServeClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    async def connect(self) -> None:
        try:
            if self.socket_path:
                self._reader, self._writer = await asyncio.open_unix_connection(
                    self.socket_path
                )
            else:
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port
                )
        except (ConnectionError, OSError) as exc:
            endpoint = self.socket_path or f"{self.host}:{self.port}"
            raise ServeConnectionError(
                f"cannot connect to repro serve at {endpoint}: {exc}"
            ) from exc
        self._write_lock = asyncio.Lock()
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    async def close(self) -> None:
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
            self._reader_task = None
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        self._fail_pending(ServeConnectionError("connection closed"))

    def _fail_pending(self, exc: Exception) -> None:
        for future in self._pending.values():
            if not future.done():
                future.set_exception(exc)
        self._pending.clear()

    async def _read_loop(self) -> None:
        assert self._reader is not None
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                doc = decode_line(line)
                future = self._pending.pop(str(doc.get("id")), None)
                if future is not None and not future.done():
                    future.set_result(doc)
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._fail_pending(
                ServeConnectionError(f"read loop failed: {exc}")
            )
            return
        self._fail_pending(ServeConnectionError("server closed connection"))

    # -- request API ----------------------------------------------------
    async def request_raw(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request document; return the raw response document."""
        assert self._writer is not None and self._write_lock is not None, (
            "client is not connected"
        )
        req_id = doc.get("id") or f"c{next(self._ids)}"
        doc = {**doc, "id": req_id}
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[req_id] = future
        async with self._write_lock:
            self._writer.write(encode_line(doc))
            await self._writer.drain()
        return await future

    async def request(
        self,
        op: str,
        workload: Optional[str] = None,
        overlay: Optional[str] = None,
        timeout_s: Optional[float] = None,
        options: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """One request; returns the ``result`` doc or raises the typed error."""
        doc: Dict[str, Any] = {"op": op}
        if workload is not None:
            doc["workload"] = workload
        if overlay is not None:
            doc["overlay"] = overlay
        if timeout_s is not None:
            doc["timeout_s"] = timeout_s
        if options:
            doc["options"] = options
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
    #: must match, across connections, processes, and shard counts.
    results: Dict[Tuple[str, str, str], str] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    server_stats: Optional[Dict[str, Any]] = None
    #: per routed shard: request count + latency (cluster-direct mode).
    shard_requests: Dict[int, int] = field(default_factory=dict)
    shard_latency: Dict[int, LatencyReservoir] = field(default_factory=dict)

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

    @property
    def balance(self) -> Optional[float]:
        """Busiest shard over the mean (1.0 = perfectly even routing)."""
        if not self.shard_requests:
            return None
        mean = sum(self.shard_requests.values()) / len(self.shard_requests)
        return max(self.shard_requests.values()) / mean if mean else None

    def record(self, latency_s: float, shard: Optional[int]) -> None:
        self.requests += 1
        self.latency.record(latency_s)
        if shard is not None:
            self.shard_requests[shard] = (
                self.shard_requests.get(shard, 0) + 1
            )
            self.shard_latency.setdefault(
                shard, LatencyReservoir()
            ).record(latency_s)

    def merge(self, other: "LoadReport") -> "LoadReport":
        """Fold in another process's report (sharded load generation).

        Result bytes are cross-checked across reports: the same
        (op, workload, overlay) key must have produced identical
        canonical JSON in every generator process.
        """
        self.ok += other.ok
        self.errors += other.errors
        self.requests = self.ok + self.errors
        for code, n in other.error_codes.items():
            self.error_codes[code] = self.error_codes.get(code, 0) + n
        self.wall_s = max(self.wall_s, other.wall_s)
        self.latency.merge(other.latency)
        self.mismatches.extend(other.mismatches)
        for key, blob in other.results.items():
            seen = self.results.setdefault(key, blob)
            if seen != blob:
                self.mismatches.append(
                    f"{'/'.join(k for k in key if k)}: divergent result "
                    "across load shards"
                )
        for shard, n in other.shard_requests.items():
            self.shard_requests[shard] = (
                self.shard_requests.get(shard, 0) + n
            )
        for shard, reservoir in other.shard_latency.items():
            self.shard_latency.setdefault(
                shard, LatencyReservoir()
            ).merge(reservoir)
        if self.server_stats is None:
            self.server_stats = other.server_stats
        return self

    def as_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
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
        if self.shard_requests:
            doc["per_shard"] = {
                str(shard): {
                    "requests": self.shard_requests[shard],
                    **self.shard_latency[shard].as_dict(),
                }
                for shard in sorted(self.shard_requests)
            }
            doc["balance"] = self.balance
        return doc

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
        for shard in sorted(self.shard_requests):
            s_lat = self.shard_latency[shard].as_dict()
            lines.append(
                f"shard {shard}: {self.shard_requests[shard]} requests, "
                f"p50 {s_lat['p50_s'] * 1e3:.1f} ms, "
                f"p95 {s_lat['p95_s'] * 1e3:.1f} ms, "
                f"p99 {s_lat['p99_s'] * 1e3:.1f} ms"
            )
        if self.balance is not None:
            lines.append(
                f"routing balance: busiest shard at "
                f"{self.balance:.2f}x the mean"
            )
        if self.server_stats is not None:
            counters = self.server_stats.get("counters") or {}
            if "computes" in counters:
                f_ = self.server_stats["flights"]
                lines.append(
                    f"server: {counters['computes']} compiles for "
                    f"{self.requests} requests (coalesced "
                    f"{counters['coalesced']}, memory hits "
                    f"{counters['cache_memory']}, disk hits "
                    f"{counters['cache_disk']}, coalesce rate "
                    f"{f_['coalesce_rate']:.0%})"
                )
            else:  # router stats: aggregate over shards
                agg = (self.server_stats.get("aggregate") or {}).get(
                    "counters"
                ) or {}
                lines.append(
                    f"cluster: {agg.get('computes', 0)} compiles for "
                    f"{self.requests} requests across "
                    f"{len(self.server_stats.get('shards') or [])} shards "
                    f"(coalesced {agg.get('coalesced', 0)}, memory hits "
                    f"{agg.get('cache_memory', 0)}, remap preserved "
                    f"{agg.get('remap_preserved', 0)})"
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
    """The deterministic request plan every load generator shares.

    A pure function of its arguments, so N generator processes can each
    take a contiguous :class:`~repro.jobs.ShardPlan` slice of the same
    plan and the union is exactly the 1-process run.
    """
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
    fetch_stats: bool = True,
    cluster: bool = False,
    plan: Optional[Sequence[Tuple[str, str, Optional[str]]]] = None,
) -> LoadReport:
    """Fire a mixed, duplicate-heavy request stream; collect a report.

    ``client_factory`` returns an unconnected :class:`ServeClient`; the
    generator opens ``concurrency`` connections and drives them in
    parallel, cycling the op × workload × overlay product so identical
    requests overlap in flight.

    With ``cluster=True`` the generator first fetches the ``topology``
    op from the endpoint and then routes each request *directly* to the
    owning shard using the same slot hash + ShardPlan math the router
    uses — per-shard latency and routing balance land in the report,
    and the front tier never touches the data path.
    """
    report = LoadReport()
    if plan is None:
        plan = build_load_plan(
            ops, workloads, overlays or [overlay], requests
        )
    queue: "asyncio.Queue[Tuple[str, str, Optional[str]]]" = asyncio.Queue()
    for item in plan:
        queue.put_nowait(item)
    lock = asyncio.Lock()

    topology = None
    if cluster:
        from ..cluster.topology import Topology, overlay_route_key

        async with client_factory() as client:
            topology = Topology.from_doc(await client.request("topology"))
        if not topology.shards:
            raise ServeError("endpoint advertised an empty topology")

    _wfp_cache: Dict[str, str] = {}

    def shard_for(op: str, wl: str, ov: Optional[str]) -> Optional[int]:
        if topology is None:
            return None
        from .ops import workload_fp

        cached = _wfp_cache.get(wl)
        if cached is None:
            cached = _wfp_cache[wl] = workload_fp(wl)
        return topology.shard_for(
            overlay_route_key(op, ov, topology.overlays.get), cached
        ).index

    def make_client(shard: Optional[int]) -> ServeClient:
        if shard is None or topology is None:
            return client_factory()
        spec = next(
            s for s in topology.shards if s.index == shard
        )
        return ServeClient(
            socket_path=spec.socket_path, host=spec.host, port=spec.port
        )

    async def worker() -> None:
        clients: Dict[Optional[int], ServeClient] = {}

        async def client_for(shard: Optional[int]) -> ServeClient:
            client = clients.get(shard)
            if client is None:
                client = clients[shard] = make_client(shard)
                await client.connect()
            return client

        try:
            while True:
                try:
                    op, wl, ov = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                shard = shard_for(op, wl, ov)
                t0 = perf_counter()
                try:
                    client = await client_for(shard)
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
                        report.record(latency, shard)
                blob = canonical_dumps(result)
                key = (op, wl, ov or "")
                async with lock:
                    report.ok += 1
                    seen = report.results.setdefault(key, blob)
                    if seen != blob:
                        report.mismatches.append(
                            f"{op}/{wl}: divergent duplicate result"
                        )
        finally:
            for client in clients.values():
                try:
                    await client.close()
                except Exception:
                    pass

    t_start = perf_counter()
    await asyncio.gather(*(worker() for _ in range(max(1, concurrency))))
    report.wall_s = perf_counter() - t_start
    # errors counted requests too; reconcile to total attempted
    report.requests = report.ok + report.errors
    if fetch_stats:
        async with client_factory() as client:
            report.server_stats = await client.stats()
    if not expect_errors and report.errors:
        codes = ", ".join(sorted(report.error_codes))
        raise ServeError(
            f"load run hit {report.errors} errors ({codes}); see report"
        )
    return report


def _endpoint_client(endpoint: Dict[str, Any]) -> ServeClient:
    return ServeClient(
        socket_path=endpoint.get("socket"),
        host=endpoint.get("host", "127.0.0.1"),
        port=endpoint.get("port", 0),
    )


async def _fetch_stats(endpoint: Dict[str, Any]) -> Dict[str, Any]:
    async with _endpoint_client(endpoint) as client:
        return await client.stats()


def _load_shard_worker(config: Dict[str, Any]) -> LoadReport:
    """One load-generator process: run its slice of the shared plan."""
    return asyncio.run(
        run_load(
            lambda: _endpoint_client(config),
            requests=len(config["plan"]),
            concurrency=config["concurrency"],
            timeout_s=config.get("timeout_s"),
            expect_errors=True,  # merged report applies the policy once
            fetch_stats=False,
            cluster=config.get("cluster", False),
            plan=[tuple(item) for item in config["plan"]],
        )
    )


def run_load_sharded(
    endpoint: Dict[str, Any],
    ops: Sequence[str],
    workloads: Sequence[str],
    requests: int,
    concurrency: int,
    load_shards: int,
    overlays: Optional[Sequence[str]] = None,
    timeout_s: Optional[float] = None,
    expect_errors: bool = False,
    cluster: bool = False,
) -> LoadReport:
    """Drive the load from ``load_shards`` generator processes.

    One asyncio loop tops out far below what a multi-shard cluster can
    serve, so the generator itself must scale out to measure it.  The
    deterministic plan is built once, split contiguously with
    :class:`~repro.jobs.ShardPlan`, and each process runs its slice
    (one slice runs in this process, by the pool executor's
    serial-fallback rule); reports merge with cross-process
    byte-identity checks and carry the server's final stats.
    """
    from ..jobs import ProcessPoolJobExecutor, ShardPlan

    plan = build_load_plan(ops, workloads, overlays or [None], requests)
    slices = ShardPlan(total=len(plan), shards=load_shards).slices()
    configs = [
        {
            **endpoint,
            "plan": plan[s.start:s.stop],
            "concurrency": max(1, concurrency // max(1, len(slices))),
            "timeout_s": timeout_s,
            "cluster": cluster,
        }
        for s in slices
        if s.count
    ]
    executor = ProcessPoolJobExecutor(workers=len(configs))
    merged = LoadReport()
    for outcome in executor.execute(
        _load_shard_worker, list(enumerate(configs))
    ):
        if not outcome.ok:
            raise ServeError(
                f"load generator shard {outcome.index} failed: "
                f"{outcome.error}"
            )
        merged.merge(outcome.result)
    if not expect_errors and merged.errors:
        codes = ", ".join(sorted(merged.error_codes))
        raise ServeError(
            f"load run hit {merged.errors} errors ({codes}); see report"
        )
    merged.server_stats = asyncio.run(_fetch_stats(endpoint))
    return merged
