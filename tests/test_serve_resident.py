"""Compute workers keep what they built — and serve the same bytes.

A worker holds each overlay it has been sent (``repro.serve.ops.RESIDENT``)
and the schedule of each kernel it has placed on it.  Every document served
from that store, on the miss that fills it and on the hits after, must be
byte-identical to the store-free ``single_shot`` path, in a pool process
(``workers=1``) and in the thread executor (``workers=0``).  The design
document itself crosses to a worker once: ``overlay_ships`` counts it.
"""

import asyncio
import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace

import pytest

from repro.adg import general_overlay, save_sysadg, sysadg_to_dict
from repro.adg.builders import seed_for_workloads
from repro.compiler import generate_variants
from repro.engine import MetricsLogger, OverlayRegistry
from repro.profile import Tracer, tracing
from repro.serve import (
    OverlayServer,
    ServeClient,
    ServeConfig,
    canonical_dumps,
    ops,
    single_shot,
    wait_for_server,
)
from repro.workloads import all_workloads, get_suite

OPS = ("map", "estimate", "simulate")
KERNELS = [w.name for w in all_workloads()]
#: One mappable-everywhere pair and one the narrow overlay rejects.
BATCH = "fir,mm,blur"


@pytest.fixture(scope="module")
def overlays():
    """General maps all 28 kernels; the dsp-seeded fabric rejects 16."""
    general = general_overlay()
    narrow = replace(
        general, adg=seed_for_workloads(get_suite("dsp")), name="narrow"
    )
    return general, narrow


@pytest.fixture(scope="module")
def reference(overlays):
    """``(overlay, workload field, op) -> single_shot bytes`` (None:
    unmappable)."""
    refs = {}
    for sysadg in overlays:
        asks = [(k, op) for k in KERNELS for op in OPS]
        asks += [(BATCH, "simulate_batch"), ("fir", "remap")]
        for field, op in asks:
            doc = single_shot(op, sysadg, field)
            refs[sysadg.name, field, op] = doc and canonical_dumps(doc)
    return refs


@pytest.fixture()
def store(monkeypatch):
    """An empty resident store (pool workers fork with it in place)."""
    fresh = ops.ResidentStore()
    monkeypatch.setattr(ops, "RESIDENT", fresh)
    return fresh


def serve(tmp_path, sysadgs, workers, body, registry_dir=None):
    """Run ``await body(server, client)`` against a live server."""
    server = OverlayServer(
        ServeConfig(
            socket_path=str(tmp_path / "serve.sock"),
            workers=workers,
            drain_timeout_s=10.0,
            registry_dir=registry_dir,
        ),
        metrics=MetricsLogger(),
    )
    for sysadg in sysadgs:
        server.add_overlay(sysadg)

    async def run():
        await server.start()
        try:
            async with ServeClient(socket_path=server.endpoint[1]) as client:
                await body(server, client)
        finally:
            await server.shutdown()
            await asyncio.wait_for(server.wait_closed(), timeout=10)

    asyncio.run(run())
    return server


@pytest.mark.parametrize("workers", [1, 0], ids=["process", "thread"])
def test_served_bytes_equal_single_shot_on_miss_and_on_hit(
    overlays, reference, store, tmp_path, workers
):
    placed = set()  # (overlay, kernel) pairs the worker has scheduled
    expect = {"computes": 0, "schedule_reuse": 0}

    async def ask(client, overlay, field, op):
        response = await client.request_raw(
            {"op": op, "workload": field, "overlay": overlay}
        )
        assert response["served"]["cache"] == "compute"
        expect["computes"] += 1
        pairs = {(overlay, k) for k in field.split(",")}
        ref = reference[overlay, field, op]
        if ref is not None and op != "remap":
            expect["schedule_reuse"] += pairs <= placed
        placed.update(pairs)
        if ref is None:
            assert response["error"]["code"] == "unmappable"
            return response["error"]
        assert canonical_dumps(response["result"]) == ref, (overlay, field, op)
        return None

    async def body(server, client):
        first, second = names = [sysadg.name for sysadg in overlays]
        # Batch and remap are the store miss on one overlay, the hit on
        # the other; the op order rotates with the kernel, shifted between
        # the overlays, so each of map/estimate/simulate fills the store
        # for some pairs and reads it for the rest.
        await ask(client, first, "fir", "remap")
        await ask(client, second, BATCH, "simulate_batch")
        for shift, overlay in enumerate(names):
            for i, kernel in enumerate(KERNELS):
                turn = (i + shift) % len(OPS)
                errors = [
                    await ask(client, overlay, kernel, op)
                    for op in OPS[turn:] + OPS[:turn]
                ]
                assert all(e == errors[0] for e in errors), (overlay, kernel)
        await ask(client, first, BATCH, "simulate_batch")
        await ask(client, second, "fir", "remap")

    server = serve(tmp_path, overlays, workers, body)
    counters = server.stats_doc()["counters"]
    assert counters["computes"] == expect["computes"]
    assert counters["schedule_reuse"] == expect["schedule_reuse"] > 0
    assert counters["overlay_ships"] == len(overlays)
    assert counters["cache_memory"] == counters["pool_restarts"] == 0
    assert server.metrics.of_type("serve_summary")[-1]["counters"] == counters


def test_a_kernel_is_lowered_once_for_every_resident_overlay(
    overlays, reference, store
):
    """Two overlays, one kernel: one variant family, two schedules."""
    generate_variants.cache_clear()
    with tracing(Tracer()) as tracer:
        for sysadg in overlays:
            doc, reused = ops.compute_op(
                "map",
                ops.overlay_fingerprint(sysadg),
                "fir",
                sysadg_to_dict(sysadg),
            )
            assert not reused
            assert canonical_dumps(doc) == reference[sysadg.name, "fir", "map"]
    spans = Counter(s.name for s in tracer.spans())
    assert spans["compiler.variants"] == 1
    assert spans["scheduler.place_route"] >= len(overlays)
    assert generate_variants.cache_info().currsize == 1


def test_a_workload_is_built_and_fingerprinted_once_per_process(
    overlays, store, monkeypatch
):
    """Three ops on two overlays, and the server's key: one ``Workload``
    and one fingerprint of it."""
    calls = Counter()

    def counted(fn):
        def count(arg):
            calls[fn.__name__] += 1
            return fn(arg)

        return count

    for name in ("get_workload", "workload_fingerprint"):
        monkeypatch.setattr(ops, name, counted(getattr(ops, name)))
    ops._resolve_workload.cache_clear()
    ops._fingerprint.cache_clear()
    for sysadg in overlays:
        ops.workload_fp("fir")
        for op in OPS:
            ops.compute_op(
                op, ops.overlay_fingerprint(sysadg), "fir", sysadg_to_dict(sysadg)
            )
    assert calls == {"get_workload": 1, "workload_fingerprint": 1}


def _freeze_count(design_doc):
    return gc.get_freeze_count()


def test_a_compute_process_costs_the_server_no_thread(overlays, tmp_path):
    """A ``workers=1`` compute runs in a process driven from the event
    loop (no pool threads), forked with the server's heap frozen."""

    async def body(server, client):
        before = threading.active_count()
        entry = server._resolve_overlay(None)
        assert await server._on_worker(entry, _freeze_count) > 0
        await client.request("map", workload="fir")
        assert threading.active_count() == before

    serve(tmp_path, [overlays[0]], 1, body)


def test_loaded_design_reaches_the_worker_once(overlays, store, tmp_path):
    """A registry spec first resolved after the pool forked: no worker
    has the design.  Three jobs on it queue up at once, every one is
    turned away, and the document still goes over once."""
    general, narrow = overlays
    registry = OverlayRegistry(str(tmp_path / "registry"))
    spec = registry.publish(narrow.name, sysadg_to_dict(narrow)).spec

    async def body(server, client):
        await client.request("map", workload="fir", overlay=general.name)
        assert server.counters["overlay_ships"] == 1
        served = await asyncio.gather(
            *(client.request(op, "fir", spec) for op in OPS)
        )
        assert served == [single_shot(op, narrow, "fir") for op in OPS]
        assert server.counters["registry_loads"] == 1
        await client.request("map", workload="mm", overlay=spec)
        assert server.counters["overlay_ships"] == 2

    serve(tmp_path, [general], 1, body, registry_dir=str(registry.root))


def test_evicted_overlay_is_shipped_again(overlays, store, tmp_path):
    general = overlays[0]
    held = [
        replace(general, name=f"general-{i}")
        for i in range(store.MAX_OVERLAYS + 1)
    ]

    async def body(server, client):
        for sysadg in held:
            await client.request("map", workload="fir", overlay=sysadg.name)
        assert server.counters["overlay_ships"] == len(held)
        # The newest are resident; the oldest went to make room.
        await client.request("estimate", workload="fir", overlay=held[-1].name)
        assert server.counters["overlay_ships"] == len(held)
        again = await client.request(
            "estimate", workload="fir", overlay=held[0].name
        )
        assert server.counters["overlay_ships"] == len(held) + 1
        assert canonical_dumps(again) == canonical_dumps(
            single_shot("estimate", held[0], "fir")
        )
        assert server.counters["schedule_reuse"] == 1

    serve(tmp_path, held, 0, body)
    assert len(store._held) == store.MAX_OVERLAYS


def test_killed_worker_is_replaced_and_the_job_retried(
    overlays, store, tmp_path
):
    general = overlays[0]

    async def body(server, client):
        others = set(multiprocessing.active_children())
        await client.request("map", workload="fir")
        (worker,) = set(multiprocessing.active_children()) - others
        pid = worker.pid
        os.kill(pid, signal.SIGKILL)
        for op in ("estimate", "simulate"):
            served = await client.request(op, workload="fir")
            assert served == single_shot(op, general, "fir")
        assert server.counters["pool_restarts"] == 1
        # The pool's own thread reaps the killed child, so this Process
        # object may never see the exit: watch the pid instead.
        deadline = time.monotonic() + 10
        while True:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, f"pid {pid} still exists"
            await asyncio.sleep(0.01)
        # The replacement started empty: the design went over again.
        assert server.counters["overlay_ships"] == 2
        assert server.counters["responses_error"] == 0

    server = serve(tmp_path, [general], 1, body)
    assert [e["worker"] for e in server.metrics.of_type("pool_restart")] == [0]


def _stat(pid):
    """``/proc/<pid>/stat`` fields after the command name, or None."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _children(pid):
    found = ((int(p), _stat(p)) for p in os.listdir("/proc") if p.isdigit())
    return [child for child, stat in found if stat and int(stat[1]) == pid]


def _running(pid):
    stat = _stat(pid)
    return stat is not None and stat[0] != "Z"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
@pytest.mark.parametrize("n_workers", [1, 2])
def test_killed_server_takes_its_worker_with_it(overlays, tmp_path, n_workers):
    """A SIGKILLed ``repro serve`` never shuts its workers down; each
    must still exit, within 2 s.  With two, the later fork inherits the
    first's socket end, so it must close it or the first never sees EOF."""
    design, sock = str(tmp_path / "general.json"), str(tmp_path / "s.sock")
    save_sysadg(overlays[0], design)
    server = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", design,
         "--socket", sock, "--workers", str(n_workers)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    workers = []

    async def map_concurrently():
        def client():
            return ServeClient(socket_path=sock)

        await wait_for_server(client, attempts=600, delay_s=0.02)
        async with client() as c:
            # Sent together, so each worker gets one and forks.
            await asyncio.gather(
                *(c.request("map", workload=k) for k in ("vecmax", "fir"))
            )

    try:
        asyncio.run(map_concurrently())
        workers = _children(server.pid)
        assert len(workers) == n_workers, "a map ran in no worker process"
        server.kill()
        server.wait()
        deadline = time.monotonic() + 2.0
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(map(_running, workers)), "worker outlived its server"
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)
