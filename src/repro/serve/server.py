"""The asyncio overlay-compilation server.

``OverlayServer`` holds one or more pre-built overlays (a ``SysADG``
plus its content fingerprint) and serves ``map`` / ``estimate`` /
``simulate`` requests over the JSON-lines protocol, on a unix socket or
localhost TCP.  The serving pipeline per compute request:

1. **Parse + resolve** — protocol validation, overlay lookup and the
   result key (one sha256, memoised per overlay, workload and op);
   failures answer ``bad_request``.
2. **Cache tiers** — one :class:`~repro.engine.store.TieredCache`:
   in-process memory, holding each result as its canonical bytes, then
   the persistent :class:`~repro.engine.store.ArtifactStore` (shared
   with the DSE engine, so results survive restarts).  A hit is
   answered here, as those bytes spliced into a line
   (:func:`~repro.serve.protocol.response_line`) the endpoint writes
   inside ``data_received``: nothing but the envelope is encoded, and
   no task, admission slot, flight or timer, so hits are never shed.
   A miss is an awaitable, the one thing the endpoint runs as a task.
3. **Admission** — a miss takes a bounded
   :class:`~repro.serve.batcher.AdmissionGate` slot or is rejected *now*
   with a structured ``overloaded`` error (never unbounded queueing).
4. **Coalescing** — misses with the same key (overlay fingerprint,
   workload fingerprint, op) join a single in-flight compute via
   :class:`~repro.serve.batcher.SingleFlight` in the callback that found
   the miss; each waiter applies its own ``timeout_s`` via
   ``asyncio.wait_for(asyncio.shield(task))``, so expiry answers a
   ``deadline`` error while the shared compute keeps running and lands
   in the cache for the retry.
5. **Worker** — the leader runs :func:`repro.serve.ops.compute_op` on the
   overlay the least-busy compute worker keeps resident and caches the
   result.  A worker is one :class:`~repro.jobs.loop_worker.LoopWorker`
   process, forked (with the server's heap frozen out of its
   collections) at its first job and driven from the event loop over
   one socketpair; one thread each when ``workers == 0`` or the sandbox
   forbids sockets.  Only a worker that answers
   :class:`~repro.serve.ops.OverlayNotResident` gets the design document;
   a worker that died (EOF on its socket) is reaped, replaced and the
   job retried once; a worker whose server is gone (EOF on its end)
   exits.
6. **Metrics + spans** — every request emits a ``request`` event into a
   :class:`~repro.engine.metrics.MetricsLogger` JSONL stream (queue
   depth, cache tier, coalesced flag, latency); a miss runs under
   ``profile.tracer`` spans (``serve.request`` / ``serve.compute``);
   drain emits a ``serve_summary`` with coalesce/admission/latency
   percentiles.

Shutdown is graceful: a ``shutdown`` op (or signal, wired by the CLI)
stops the listeners, rejects new compute work with ``shutting_down``,
waits for in-flight requests up to ``drain_timeout_s``, then resolves
:meth:`OverlayServer.wait_closed`.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from ..adg import SysADG, sysadg_from_dict, sysadg_to_dict
from ..engine.metrics import MetricsLogger
from ..engine.registry import OverlayRegistry, RegistryError
from ..engine.store import ArtifactStore, TieredCache
from ..jobs.loop_worker import LoopWorker
from ..profile import tracer
from .batcher import AdmissionGate, LatencyReservoir, SingleFlight
from .endpoint import JsonLinesEndpoint, Response
from .errors import (
    BadRequestError,
    DeadlineError,
    InternalError,
    ServeError,
    ShuttingDownError,
)
from .ops import (
    OverlayNotResident,
    compute_op,
    overlay_fingerprint,
    remap_compute,
    result_key,
    workload_fp,
)
from .protocol import PROTOCOL_VERSION, Request, canonical_dumps
from .protocol import response_doc, response_line


def _held(value: Any) -> Any:
    """A result as the memory tier holds it: its canonical bytes."""
    if isinstance(value, ServeError):
        return value
    return canonical_dumps(value).encode()


@dataclass
class ServeConfig:
    """Everything the server needs to listen and bound itself."""

    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 0
    #: Max compute requests in service (queued + executing) before
    #: admission control sheds load with ``overloaded``.
    queue_limit: int = 64
    #: Worker processes for CPU-bound compiles; 0 means "in-process
    #: threads" (used by tests and as the sandbox fallback).
    workers: int = 2
    #: Deadline applied when a request carries no ``timeout_s``.
    default_timeout_s: float = 30.0
    #: How long graceful drain waits for in-flight requests.
    drain_timeout_s: float = 30.0
    #: Artifact-store directory for served results (None disables).
    cache_dir: Optional[str] = None
    #: Store root holding a versioned overlay registry; when set,
    #: requests may address overlays by ``name``/``name@vN`` specs that
    #: are resolved and cached on first use (None disables).
    registry_dir: Optional[str] = None


@dataclass
class OverlayEntry:
    """One loaded design, ready to serve."""

    name: str
    design_doc: Dict[str, Any] = field(repr=False, default_factory=dict)
    fingerprint: str = ""
    #: Registry name this entry is a version of ("" for direct loads).
    #: ``remap`` keys its schedule continuity on the base name, so a
    #: new version of the same name inherits the prior schedule.
    base_name: str = ""


@dataclass
class _Worker:
    """One compute worker: one process (or thread), so its jobs run in the
    order sent and a design can go to the worker that asked."""

    executor: Union[LoopWorker, ThreadPoolExecutor]
    inflight: int = 0
    #: Overlays whose design document is on its way to this worker.
    shipping: Set[str] = field(default_factory=set)


class OverlayServer:
    """Long-lived compile service over pre-built overlays."""

    def __init__(
        self,
        config: Optional[ServeConfig] = None,
        metrics: Optional[MetricsLogger] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.metrics = metrics if metrics is not None else MetricsLogger()
        self.overlays: Dict[str, OverlayEntry] = {}
        self.gate = AdmissionGate(self.config.queue_limit)
        self.flights = SingleFlight()
        self.latency = LatencyReservoir()
        self.counters: Dict[str, int] = {
            "requests": 0,
            "responses_ok": 0,
            "responses_error": 0,
            "computes": 0,
            "cache_memory": 0,
            "cache_disk": 0,
            "coalesced": 0,
            "registry_loads": 0,
            "overlay_ships": 0,
            "schedule_reuse": 0,
            "pool_restarts": 0,
            "remap_preserved": 0,
            "remap_recompiled": 0,
            "remap_cold": 0,
        }
        #: result key -> result document, or the ``ServeError`` a
        #: deterministic negative answer raised (memory tier only).
        self.cache = TieredCache(
            ArtifactStore(self.config.cache_dir)
            if self.config.cache_dir
            else None,
            hold=_held,
        )
        self.registry: Optional[OverlayRegistry] = (
            OverlayRegistry(self.config.registry_dir)
            if self.config.registry_dir
            else None
        )
        #: (overlay fp, workload, op) -> result key.
        self._keys: Dict[Tuple[str, str, str], str] = {}
        #: (base name, workload fp) -> (overlay fp, schedule): the live
        #: schedule ``remap`` tries to preserve across overlay versions.
        self._schedules: Dict[Tuple[str, str], Tuple[str, Any]] = {}
        self._wire = JsonLinesEndpoint(self._dispatch, self.counters)
        self._workers: List[_Worker] = []
        self._executor_kind = "none"
        self._draining = False
        self._closed: Optional[asyncio.Event] = None

    @property
    def endpoint(self) -> Optional[Tuple[str, Any]]:
        """``("unix", path)`` / ``("tcp", (host, port))`` once started."""
        return self._wire.address

    # -- overlay registry ----------------------------------------------
    def add_overlay(self, sysadg: SysADG, name: Optional[str] = None) -> str:
        """Register a design; returns the name it is served under."""
        name = name or sysadg.name
        self.overlays[name] = OverlayEntry(
            name=name,
            design_doc=sysadg_to_dict(sysadg),
            fingerprint=overlay_fingerprint(sysadg),
        )
        return name

    def _resolve_overlay(self, name: Optional[str]) -> OverlayEntry:
        if name is None:
            if len(self.overlays) == 1:
                return next(iter(self.overlays.values()))
            raise BadRequestError(
                f"server holds {len(self.overlays)} overlays "
                f"({', '.join(sorted(self.overlays)) or 'none'}); "
                "request must name one"
            )
        entry = self.overlays.get(name)
        if entry is not None:
            return entry
        if self.registry is not None:
            return self._resolve_from_registry(name)
        raise BadRequestError(
            f"unknown overlay {name!r}; loaded: "
            f"{', '.join(sorted(self.overlays)) or 'none'}"
        )

    def _resolve_from_registry(self, spec: str) -> OverlayEntry:
        """Resolve ``name``/``name@vN`` through the registry, caching the
        built design under its explicit ``name@vN`` spec (so bare names
        re-resolve each time and track pin moves, while version loads
        pay the deserialization once)."""
        try:
            version = self.registry.lookup(spec)
        except RegistryError as exc:
            raise BadRequestError(
                f"unknown overlay {spec!r}; loaded: "
                f"{', '.join(sorted(self.overlays)) or 'none'}; "
                f"registry: {exc}"
            ) from exc
        cached = self.overlays.get(version.spec)
        if cached is not None:
            return cached
        try:
            resolved = self.registry.resolve(version.spec)
            sysadg = sysadg_from_dict(resolved.design_doc)
        except RegistryError as exc:
            raise InternalError(str(exc)) from exc
        except Exception as exc:
            raise InternalError(
                f"registry design {version.spec} failed to deserialize: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        entry = OverlayEntry(
            name=version.spec,
            design_doc=resolved.design_doc,
            fingerprint=overlay_fingerprint(sysadg),
            base_name=version.name,
        )
        self.overlays[version.spec] = entry
        self.counters["registry_loads"] += 1
        self.metrics.emit(
            "registry_load",
            spec=version.spec,
            fingerprint=entry.fingerprint,
        )
        return entry

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        if not self.overlays and self.registry is None:
            raise ValueError(
                "cannot start a server with no overlays loaded and no "
                "registry to resolve them from"
            )
        self._closed = asyncio.Event()
        self._workers = [
            _Worker(self._make_executor())
            for _ in range(max(1, self.config.workers))
        ]
        cfg = self.config
        await self._wire.listen(cfg.socket_path, cfg.host, cfg.port)
        self.metrics.emit(
            "serve_start",
            protocol=PROTOCOL_VERSION,
            endpoint=list(self.endpoint),
            overlays={n: e.fingerprint for n, e in self.overlays.items()},
            queue_limit=cfg.queue_limit,
            workers=cfg.workers,
            executor=self._executor_kind,
            cache_dir=cfg.cache_dir,
        )

    def _make_executor(self) -> Union[LoopWorker, ThreadPoolExecutor]:
        """One compute worker: one process, or one thread when
        ``workers == 0`` or the sandbox forbids sockets."""
        if self.config.workers > 0:
            try:
                executor = LoopWorker()
            except OSError:
                self.metrics.emit(
                    "pool_unavailable", runner="serve.workers",
                    workers=self.config.workers,
                )
            else:
                self._executor_kind = "process"
                return executor
        self._executor_kind = "thread"
        return ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-compute"
        )

    async def wait_closed(self) -> None:
        """Resolve once a drain (shutdown op or :meth:`shutdown`) ends."""
        assert self._closed is not None, "server not started"
        await self._closed.wait()

    async def shutdown(self) -> None:
        """Graceful drain: stop listening, finish in-flight, close."""
        if self._closed is None or self._closed.is_set():
            return
        if self._draining:
            await self._closed.wait()
            return
        self._draining = True
        await self._wire.stop(self.config.drain_timeout_s)
        try:
            await asyncio.wait_for(
                self.flights.drain(), timeout=self.config.drain_timeout_s
            )
        except asyncio.TimeoutError:
            pass  # a compute that outlived the drain goes with its pool
        for worker in self._workers:
            worker.executor.shutdown(wait=False, cancel_futures=True)
        self.metrics.emit("serve_summary", **self.stats_doc())
        self._wire.close()
        self._closed.set()

    # -- request dispatch ----------------------------------------------
    def _dispatch(self, request: Request, doc: Dict[str, Any]) -> Any:
        """The response document, or (a miss) an awaitable of it."""
        if request.op == "ping":
            return response_doc(
                request.id,
                result={"pong": True, "protocol": PROTOCOL_VERSION},
            )
        if request.op == "stats":
            return response_doc(request.id, result=self.stats_doc())
        if request.op == "shutdown":
            # Answer first, then drain in the background so the reply
            # reaches the client before the connection dies.
            asyncio.get_running_loop().create_task(self.shutdown())
            return response_doc(request.id, result={"draining": True})
        return self._dispatch_compute(request)

    def _dispatch_compute(self, request: Request) -> Any:
        t_arrival = perf_counter()
        if self._draining:
            raise ShuttingDownError("server is draining; no new work")
        entry = self._resolve_overlay(request.overlay)
        assert request.workload is not None  # parse_request enforced it
        memo = (entry.fingerprint, request.workload, request.op)
        key = self._keys.get(memo)
        if key is None:
            wfp = workload_fp(request.workload)
            key = self._keys[memo] = result_key(memo[0], wfp, request.op)
        result, tier = self.cache.get(key)
        if tier != "miss":
            self.counters[f"cache_{tier}"] += 1
            return self._respond(request, entry, t_arrival, result, tier)
        # Admit and join the flight now, before anything yields: a miss
        # that joined later could find the flight gone and compute again.
        self.gate.admit()
        task, is_leader = self.flights.join(
            key, lambda: self._compute(key, entry, request)
        )
        self.counters["coalesced"] += not is_leader
        return self._compute_response(
            request, entry, task, not is_leader, t_arrival
        )

    async def _compute_response(
        self,
        request: Request,
        entry: OverlayEntry,
        task: "asyncio.Task[Any]",
        coalesced: bool,
        t_arrival: float,
    ) -> Response:
        """A miss, admitted and joined to its flight: wait for it."""
        timeout = request.timeout_s or self.config.default_timeout_s
        try:
            with tracer.span(
                "serve.request", op=request.op, workload=request.workload
            ):
                result, queue_wait, remap = await asyncio.wait_for(
                    asyncio.shield(task), timeout=timeout
                )
        except asyncio.TimeoutError:
            raise DeadlineError(
                f"deadline of {timeout:.3f}s expired for "
                f"{request.op}/{request.workload} "
                "(compute continues; retry will hit the cache)"
            ) from None
        finally:
            self.gate.release()
        return self._respond(
            request, entry, t_arrival, result, "compute",
            coalesced, queue_wait, remap,
        )

    def _respond(
        self,
        request: Request,
        entry: OverlayEntry,
        t_arrival: float,
        result: Any,
        tier: str,
        coalesced: bool = False,
        queue_wait: float = 0.0,
        remap: Optional[str] = "cache",
    ) -> Response:
        """A result (as the cache holds it) is spliced into the line."""
        latency = perf_counter() - t_arrival
        self.latency.record(latency)
        served = {
            "cache": tier,
            "coalesced": coalesced,
            "latency_s": latency,
            "queue_wait_s": latency if coalesced else queue_wait,
        }
        if request.op == "remap":
            # How the schedule was obtained lives out-of-band: result
            # documents stay byte-identical across serving histories.
            served["remap"] = remap
        failed = isinstance(result, ServeError)
        self.metrics.emit(
            "request",
            op=request.op,
            overlay=entry.name,
            workload=request.workload,
            ok=not failed,
            cache=tier,
            coalesced=coalesced,
            latency_s=latency,
            in_service=self.gate.in_service,
        )
        if failed:
            return response_doc(
                request.id, error=result.to_doc(), served=served
            )
        return response_line(request.id, result, served)

    async def _compute(
        self, key: str, entry: OverlayEntry, request: Request
    ) -> Tuple[Any, float, Optional[str]]:
        """Leader body of a miss: ``(result as the cache holds it, queue
        wait, remap path)``, the path ``None`` unless a remap succeeded."""
        t_start = perf_counter()
        assert self._workers, "server not started"
        with tracer.span(
            "serve.compute", op=request.op, workload=request.workload
        ):
            self.counters["computes"] += 1
            queue_wait = perf_counter() - t_start
            path = None
            try:
                if request.op == "remap":
                    base = entry.base_name or entry.name
                    sched_key = (base, workload_fp(request.workload))
                    prior = self._schedules.get(sched_key)
                    doc, path, schedule = await self._on_worker(
                        entry,
                        remap_compute,
                        entry.fingerprint,
                        request.workload,
                        prior[1] if prior is not None else None,
                    )
                    self._schedules[sched_key] = (entry.fingerprint, schedule)
                    self.counters[f"remap_{path}"] += 1
                else:
                    doc, reused = await self._on_worker(
                        entry,
                        compute_op,
                        request.op,
                        entry.fingerprint,
                        request.workload,
                    )
                    self.counters["schedule_reuse"] += reused
            except ServeError as exc:
                # Deterministic negative answers (unmappable, bad
                # workload) coalesce and memoize like positive ones,
                # in memory only (traceback dropped: a cached error
                # must not pin this coroutine's frames).
                failure = exc.with_traceback(None)
                self.cache.put(key, failure, persist=False)
                return failure, queue_wait, None
        held = self.cache.put(
            key,
            doc,
            meta={
                "kind": "serve_result",
                "op": request.op,
                "overlay": entry.name,
                "overlay_fp": entry.fingerprint,
                "workload": request.workload,
            },
            # remap results depend on server-side schedule history, so
            # they never reach the shared disk store.
            persist=request.op != "remap",
        )
        return held, queue_wait, path

    async def _on_worker(
        self, entry: OverlayEntry, fn: Callable[..., Any], *args: Any
    ) -> Any:
        """``fn(*args, design_doc)`` on the least-busy compute worker.

        The design document goes along only after that worker answered
        :class:`OverlayNotResident` (first use, eviction, a fresh
        process), and then to that same worker, once: a worker runs its
        jobs in the order sent, so a job that finds a sibling's copy on
        its way just goes again behind it.  A worker found dead is
        replaced once and the job retried; a second death propagates and
        is answered as a typed ``internal`` error.
        """
        worker = min(self._workers, key=lambda w: w.inflight)
        fp = entry.fingerprint
        design_doc, restarted = None, False
        worker.inflight += 1
        try:
            while True:
                executor = worker.executor
                try:
                    return await asyncio.wrap_future(
                        executor.submit(fn, *args, design_doc)
                    )
                except OverlayNotResident:
                    if design_doc is not None:
                        raise
                    if fp not in worker.shipping:
                        worker.shipping.add(fp)
                        design_doc = entry.design_doc
                        self.counters["overlay_ships"] += 1
                except BrokenExecutor:
                    if restarted:
                        raise
                    restarted, design_doc = True, None
                    # Every job in flight on the dead worker lands here;
                    # the first replaces it, the rest just retry.
                    if worker.executor is executor:
                        executor.shutdown(wait=False)
                        worker.executor = self._make_executor()
                        worker.shipping.clear()
                        self.counters["pool_restarts"] += 1
                        self.metrics.emit(
                            "pool_restart", worker=self._workers.index(worker)
                        )
        finally:
            worker.inflight -= 1
            if design_doc is not None:
                worker.shipping.discard(fp)

    # -- introspection --------------------------------------------------
    def stats_doc(self) -> Dict[str, Any]:
        """Also ``serve_summary``'s fields, so every key is always set."""
        store, registry = self.cache.store, self.registry
        return {
            "protocol": PROTOCOL_VERSION,
            "overlays": sorted(self.overlays),
            "overlay_fps": {
                n: e.fingerprint
                for n, e in sorted(self.overlays.items())
            },
            "executor": self._executor_kind,
            "draining": self._draining,
            "counters": dict(self.counters),
            "admission": self.gate.as_dict(),
            "latency": self.latency.as_dict(),
            "schedules": len(self._schedules),
            "store": None if store is None else store.stats.as_dict(),
            "registry": None if registry is None else {
                "root": str(registry.store.root),
                "names": registry.names(),
            },
        }
