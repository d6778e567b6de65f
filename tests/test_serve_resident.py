"""Compute workers keep what they built — and serve the same bytes.

A worker holds each overlay it has been sent (``repro.serve.ops.RESIDENT``)
and the schedule of each kernel it has placed on it.  Every document served
from that store, on the miss that fills it and on the hits after, must be
byte-identical to the store-free ``single_shot`` path, in a pool process
(``workers=1``) and in the thread executor (``workers=0``).  The design
document itself crosses to a worker once: ``overlay_ships`` counts it.
"""

import asyncio
import multiprocessing
import os
import signal
from dataclasses import replace

import pytest

from repro.adg import general_overlay, sysadg_to_dict
from repro.adg.builders import seed_for_workloads
from repro.engine import MetricsLogger
from repro.serve import (
    OverlayServer,
    ServeClient,
    ServeConfig,
    canonical_dumps,
    ops,
    single_shot,
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


def serve(tmp_path, sysadgs, workers, body):
    """Run ``await body(server, client)`` against a live server."""
    server = OverlayServer(
        ServeConfig(
            socket_path=str(tmp_path / "serve.sock"),
            workers=workers,
            drain_timeout_s=10.0,
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


def test_loaded_design_reaches_the_worker_once(overlays, store, tmp_path):
    """``load_overlay`` after the pool forked: no worker has the design.
    Three jobs on it queue up at once, every one is turned away, and the
    document still goes over once."""
    general, narrow = overlays

    async def body(server, client):
        await client.request("map", workload="fir", overlay=general.name)
        assert server.counters["overlay_ships"] == 1
        loaded = await client.request(
            "load_overlay", options={"design": sysadg_to_dict(narrow)}
        )
        assert loaded["overlay"] == narrow.name
        assert server.counters["overlay_ships"] == 1
        served = await asyncio.gather(
            *(client.request(op, "fir", narrow.name) for op in OPS)
        )
        assert served == [single_shot(op, narrow, "fir") for op in OPS]
        await client.request("map", workload="mm", overlay=narrow.name)
        assert server.counters["overlay_ships"] == 2

    serve(tmp_path, [general], 1, body)


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
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=10)
        assert not worker.is_alive()
        for op in ("estimate", "simulate"):
            served = await client.request(op, workload="fir")
            assert served == single_shot(op, general, "fir")
        assert server.counters["pool_restarts"] == 1
        # The replacement started empty: the design went over again.
        assert server.counters["overlay_ships"] == 2
        assert server.counters["responses_error"] == 0

    server = serve(tmp_path, [general], 1, body)
    assert [e["worker"] for e in server.metrics.of_type("pool_restart")] == [0]
