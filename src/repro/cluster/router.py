"""The cluster front tier: one JSON-lines endpoint over N serve shards.

``ClusterRouter`` speaks the exact :mod:`repro.serve.protocol` a single
``OverlayServer`` speaks, so every existing client (``repro submit``,
the load generator) points at a cluster without changing a line.  Per
request:

* **Route** — compute ops hash ``(overlay fingerprint, workload
  fingerprint)`` into the fixed slot space and pick the owning shard
  with :func:`~repro.cluster.topology.route_shard` (ShardPlan math, so
  the same request always lands on the same shard and that shard's
  single-flight coalescing + memory cache see all duplicates).
  ``remap`` routes on the registry *base name* instead of the
  fingerprint so a new published version inherits the shard — and
  therefore the preserved schedule — of the previous one.
* **Failover** — a shard answering ``overloaded`` (or failing at the
  connection level) gets a bounded number of retries against the next
  healthy shards; any shard computes the identical result document, so
  failover never changes bytes, only placement.  ``deadline`` errors
  are *not* failed over: the original shard's compute keeps running
  and a retry there hits its cache.
* **Health** — a background task pings every shard each
  ``health_interval_s``; unhealthy shards are skipped by routing until
  they answer again.  Health sweeps also collect shard overlay
  fingerprints, which keeps the routing key table fresh.

Admin ops are answered at the router: ``stats`` aggregates shard
counters (the CI smoke asserts cluster-wide remap hit rate from it) and
reports each shard's ``routed`` count — the router is the only place a
shard is picked, so that is the only per-shard balance there is — and
``shutdown`` drains the shards then the router itself.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from ..engine.metrics import MetricsLogger
from ..engine.registry import OverlayRegistry, RegistryError, split_spec
from ..serve.client import ServeClient, ServeConnectionError
from ..serve.endpoint import JsonLinesEndpoint
from ..serve.errors import InternalError, ShuttingDownError
from ..serve.protocol import PROTOCOL_VERSION, Request, response_doc
from ..serve.ops import workload_fp
from .topology import BackendSpec, overlay_route_key, route_shard

#: Extra shards tried when the owner is overloaded/unreachable.
FAILOVER_RETRIES = 2
#: Deadline for router-internal admin calls to shards (health pings,
#: stats fans, shutdown broadcast).
ADMIN_TIMEOUT_S = 5.0


@dataclass
class RouterConfig:
    """Where the router listens and how it treats its shards."""

    backends: List[BackendSpec] = field(default_factory=list)
    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 0
    #: Store root of the shared overlay registry (resolves overlay
    #: specs to fingerprints for routing; None = route on spec text).
    registry_dir: Optional[str] = None
    #: Seconds between background shard health sweeps.
    health_interval_s: float = 2.0


@dataclass
class BackendState:
    """One shard as the router sees it."""

    spec: BackendSpec
    client: Optional[ServeClient] = None
    healthy: bool = False
    #: Requests this shard served (for balance reporting).
    routed: int = 0
    last_error: Optional[str] = None
    lock: asyncio.Lock = field(default_factory=asyncio.Lock)

    async def ensure_client(self) -> ServeClient:
        async with self.lock:
            if self.client is None:
                client = ServeClient(
                    socket_path=self.spec.socket_path,
                    host=self.spec.host,
                    port=self.spec.port,
                )
                await client.connect()
                self.client = client
            return self.client

    async def admin(self, op: str) -> Dict[str, Any]:
        """One admin request under :data:`ADMIN_TIMEOUT_S`: the raw
        response; an unreachable or slow shard raises
        :class:`ServeConnectionError`."""
        try:
            client = await self.ensure_client()
            return await asyncio.wait_for(
                client.request_raw({"op": op}), timeout=ADMIN_TIMEOUT_S
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise ServeConnectionError(str(exc)) from exc

    async def drop_client(self) -> None:
        async with self.lock:
            if self.client is not None:
                try:
                    await self.client.close()
                except Exception:
                    pass
                self.client = None


class ClusterRouter:
    """Protocol-transparent request router over N serve shards."""

    def __init__(
        self,
        config: RouterConfig,
        metrics: Optional[MetricsLogger] = None,
    ) -> None:
        if not config.backends:
            raise ValueError("router needs at least one backend shard")
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsLogger()
        self.backends = [BackendState(spec=s) for s in config.backends]
        self.registry: Optional[OverlayRegistry] = (
            OverlayRegistry(config.registry_dir)
            if config.registry_dir
            else None
        )
        self.counters: Dict[str, int] = {
            "requests": 0,
            "responses_ok": 0,
            "responses_error": 0,
            "retries": 0,
            "failovers": 0,
            "health_sweeps": 0,
        }
        #: overlay spec -> fingerprint, the routing key table.  Seeded
        #: and refreshed from shard stats; ``name@vN`` specs are
        #: immutable so they cache forever, bare names and ``@latest``
        #: resolve live.
        self._overlay_fps: Dict[str, str] = {}
        self._wire = JsonLinesEndpoint(self._dispatch, self.counters)
        self._health_task: Optional["asyncio.Task[None]"] = None
        self._draining = False
        self._closed: Optional[asyncio.Event] = None

    @property
    def endpoint(self) -> Optional[Tuple[str, Any]]:
        """``("unix", path)`` / ``("tcp", (host, port))`` once started."""
        return self._wire.address

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        self._closed = asyncio.Event()
        cfg = self.config
        await self._wire.listen(cfg.socket_path, cfg.host, cfg.port)
        await self._health_sweep()
        self._health_task = asyncio.get_running_loop().create_task(
            self._health_loop()
        )
        self.metrics.emit(
            "router_start",
            protocol=PROTOCOL_VERSION,
            endpoint=list(self.endpoint),
            shards=[s.spec.describe() for s in self.backends],
            healthy=sum(1 for s in self.backends if s.healthy),
        )

    async def wait_closed(self) -> None:
        assert self._closed is not None, "router not started"
        await self._closed.wait()

    async def shutdown(self, drain_backends: bool = True) -> None:
        """Drain: stop listening, optionally drain every shard, close."""
        if self._closed is None or self._closed.is_set():
            return
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        if self._health_task is not None:
            self._health_task.cancel()
        await self._wire.stop(ADMIN_TIMEOUT_S)
        if drain_backends:
            await asyncio.gather(
                *(self._shutdown_backend(s) for s in self.backends),
                return_exceptions=True,
            )
        for state in self.backends:
            await state.drop_client()
        self.metrics.emit("router_summary", **self.stats_doc())
        self._wire.close()
        self._closed.set()

    async def _shutdown_backend(self, state: BackendState) -> None:
        try:
            await state.admin("shutdown")
        except ServeConnectionError:
            pass

    # -- health ---------------------------------------------------------
    async def _health_loop(self) -> None:
        try:
            while True:
                await asyncio.sleep(self.config.health_interval_s)
                await self._health_sweep()
        except asyncio.CancelledError:
            return

    async def _health_sweep(self) -> None:
        self.counters["health_sweeps"] += 1
        await asyncio.gather(
            *(self._check_backend(s) for s in self.backends),
            return_exceptions=True,
        )

    async def _check_backend(self, state: BackendState) -> None:
        try:
            resp = await state.admin("stats")
            stats = resp.get("result") or {}
            for name, fp in (stats.get("overlay_fps") or {}).items():
                self._overlay_fps[name] = fp
            was_healthy = state.healthy
            state.healthy = bool(resp.get("ok"))
            state.last_error = None
            if not was_healthy and state.healthy:
                self.metrics.emit(
                    "backend_up", shard=state.spec.describe()
                )
        except ServeConnectionError as exc:
            if state.healthy:
                self.metrics.emit(
                    "backend_down",
                    shard=state.spec.describe(),
                    error=str(exc),
                )
            state.healthy = False
            state.last_error = str(exc)
            await state.drop_client()

    # -- routing keys ---------------------------------------------------
    def _overlay_fp(self, overlay: str) -> Optional[str]:
        fp = self._overlay_fps.get(overlay)
        if fp is None and self.registry is not None:
            try:
                version = self.registry.lookup(overlay)
            except RegistryError:
                return None
            fp = version.fingerprint
            if split_spec(overlay)[1] not in (None, "latest"):
                # name@vN / name@N never change meaning; the bare name
                # and name@latest move on publish, pin and rollback.
                self._overlay_fps[overlay] = fp
        return fp

    def _pick_shards(self, owner: int) -> List[BackendState]:
        """The owner, then failover candidates (healthy first)."""
        n = len(self.backends)
        ordered = [self.backends[(owner + k) % n] for k in range(n)]
        candidates = [s for s in ordered if s.healthy] + [
            s for s in ordered if not s.healthy
        ]
        return candidates[: FAILOVER_RETRIES + 1]

    # -- request path ---------------------------------------------------
    def _dispatch(self, request: Request, doc: Dict[str, Any]) -> Any:
        """The response document, or (stats, a forward) an awaitable."""
        if request.op == "ping":
            return response_doc(
                request.id,
                result={"pong": True, "protocol": PROTOCOL_VERSION},
            )
        if request.op == "stats":
            return self._stats_response(request.id)
        if request.op == "shutdown":
            asyncio.get_running_loop().create_task(self.shutdown())
            return response_doc(request.id, result={"draining": True})
        if self._draining:
            raise ShuttingDownError("router is draining; no new work")
        # Everything that is not an admin op is a compute op.
        assert request.workload is not None
        owner = route_shard(
            overlay_route_key(
                request.op, request.overlay, self._overlay_fp
            ),
            workload_fp(request.workload),
            len(self.backends),
        )
        return self._forward(request, doc, owner)

    async def _stats_response(self, req_id: str) -> Dict[str, Any]:
        return response_doc(req_id, result=await self.cluster_stats())

    async def _forward(
        self, request: Request, doc: Dict[str, Any], owner: int
    ) -> Dict[str, Any]:
        t0 = perf_counter()
        last_response: Optional[Dict[str, Any]] = None
        last_error: Optional[str] = None
        forward = {k: v for k, v in doc.items() if k != "id"}
        for attempt, state in enumerate(self._pick_shards(owner)):
            if attempt:
                self.counters["retries"] += 1
            try:
                client = await state.ensure_client()
                response = await client.request_raw(forward)
            except (ServeConnectionError, OSError) as exc:
                state.healthy = False
                last_error = str(exc)
                await state.drop_client()
                continue
            error = response.get("error") or {}
            if not response.get("ok") and error.get("code") in (
                "overloaded",
                "shutting_down",
            ):
                # Bounded failover: another shard computes the same
                # bytes.  Anything else is final (deadline stays on
                # the owner so the retry hits its cache).
                last_response = response
                continue
            if attempt:
                self.counters["failovers"] += 1
            state.routed += 1
            self.metrics.emit(
                "route",
                op=request.op,
                shard=state.spec.index,
                attempts=attempt + 1,
                latency_s=perf_counter() - t0,
            )
            response["id"] = request.id
            return response
        if last_response is not None:
            last_response["id"] = request.id
            return last_response
        raise InternalError(
            f"no shard reachable for {request.op} "
            f"(last error: {last_error})"
        )

    # -- introspection --------------------------------------------------
    def stats_doc(self) -> Dict[str, Any]:
        """Router-local stats (no shard round-trips)."""
        return {
            "role": "router",
            "protocol": PROTOCOL_VERSION,
            "draining": self._draining,
            "counters": dict(self.counters),
            "shards": [
                {
                    "index": s.spec.index,
                    "endpoint": s.spec.describe(),
                    "healthy": s.healthy,
                    "routed": s.routed,
                    "last_error": s.last_error,
                }
                for s in self.backends
            ],
        }

    async def cluster_stats(self) -> Dict[str, Any]:
        """Router stats plus live per-shard stats and summed counters."""
        doc = self.stats_doc()
        aggregate: Dict[str, int] = {}

        async def one(state: BackendState) -> Optional[Dict[str, Any]]:
            try:
                resp = await state.admin("stats")
            except ServeConnectionError:
                return None
            return resp.get("result") if resp.get("ok") else None

        shard_stats = await asyncio.gather(
            *(one(s) for s in self.backends)
        )
        for row, stats in zip(doc["shards"], shard_stats):
            row["stats"] = stats
            for key, value in ((stats or {}).get("counters") or {}).items():
                if isinstance(value, (int, float)):
                    aggregate[key] = aggregate.get(key, 0) + value
        doc["aggregate"] = {"counters": aggregate}
        return doc
