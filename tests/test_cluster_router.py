"""Front-tier router tests: determinism, byte-identity, failover.

A real 2-shard cluster (two OverlayServers + the ClusterRouter, all on
one background event loop over unix sockets) serves the acceptance
criteria: responses through the router are byte-identical to the
1-shard path, identical requests always route to the same shard, stats
aggregate across shards, and a dead shard fails over within the bounded
retry budget.
"""

import asyncio
import copy
import threading

import pytest

from repro.adg import sysadg_from_dict, sysadg_to_dict
from repro.cluster import (
    SLOTS,
    BackendSpec,
    OverlayRegistry,
    RouterConfig,
    Topology,
    overlay_route_key,
    route_shard,
    route_slot,
    shard_of_slot,
)
from repro.cluster.router import ClusterRouter
from repro.dse import DseConfig, explore
from repro.engine import MetricsLogger
from repro.serve import (
    OverlayServer,
    ServeClient,
    ServeConfig,
    canonical_dumps,
    run_load,
    single_shot,
    wait_for_server,
    workload_fp,
)
from repro.workloads import get_workload

from .test_serve_server import assert_job_op_rejected


class TestRoutingMath:
    def test_route_slot_is_deterministic_and_bounded(self):
        a = route_slot("overlay-fp", "workload-fp")
        assert a == route_slot("overlay-fp", "workload-fp")
        assert 0 <= a < SLOTS
        assert a != route_slot("overlay-fp", "other-workload")
        # The separator means ("ab", "c") and ("a", "bc") differ.
        assert route_slot("ab", "c") != route_slot("a", "bc")

    def test_shard_assignment_is_contiguous_and_total(self):
        for shards in (1, 2, 3, 7):
            owners = [shard_of_slot(s, shards) for s in range(SLOTS)]
            assert set(owners) == set(range(shards))
            # ShardPlan gives contiguous ranges: owner is monotone.
            assert owners == sorted(owners)

    def test_single_shard_routes_everything_to_zero(self):
        for key in ("a", "b", "c"):
            assert route_shard(key, "wl", 1) == 0

    def test_topology_doc_roundtrip(self):
        topo = Topology(
            shards=[
                BackendSpec(index=0, socket_path="/tmp/a.sock"),
                BackendSpec(index=1, host="10.0.0.1", port=7000),
            ],
            overlays={"fam": "fp1"},
        )
        clone = Topology.from_doc(topo.as_doc())
        assert clone.as_doc() == topo.as_doc()
        assert clone.shard_for("fam", "wfp").index == topo.shard_for(
            "fam", "wfp"
        ).index


@pytest.fixture(scope="module")
def sysadg():
    return explore(
        [get_workload("vecmax"), get_workload("fir")],
        DseConfig(iterations=10, seed=4),
        name="vecmax",
    ).sysadg


@pytest.fixture()
def live_cluster(sysadg, tmp_path):
    """2 shards + router on one background loop; yields handles."""
    reg = OverlayRegistry(str(tmp_path / "reg"))
    doc = sysadg_to_dict(sysadg)
    reg.publish("fam", doc, note="v1")
    doc2 = copy.deepcopy(doc)
    doc2["params"]["frequency_mhz"] = round(
        doc2["params"]["frequency_mhz"] + 5.0, 2
    )
    reg.publish("fam", doc2, note="v2")

    shard_socks = [str(tmp_path / f"shard-{i}.sock") for i in range(2)]
    router_sock = str(tmp_path / "router.sock")
    shards = []
    for sock in shard_socks:
        config = ServeConfig(
            socket_path=sock,
            workers=0,
            queue_limit=128,
            drain_timeout_s=10.0,
            registry_dir=str(reg.root),
        )
        shards.append(OverlayServer(config, metrics=MetricsLogger()))
    router = ClusterRouter(
        RouterConfig(
            backends=[
                BackendSpec(index=i, socket_path=s)
                for i, s in enumerate(shard_socks)
            ],
            socket_path=router_sock,
            registry_dir=str(reg.root),
            health_interval_s=0.2,
        ),
        metrics=MetricsLogger(),
    )
    started = threading.Event()

    def run():
        async def serve():
            for shard in shards:
                await shard.start()
            await router.start()
            started.set()
            await router.wait_closed()
            for shard in shards:
                await shard.shutdown()  # idempotent if already drained

        asyncio.run(serve())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=15), "cluster thread never started"
    asyncio.run(
        wait_for_server(lambda: ServeClient(socket_path=router_sock))
    )
    yield router, router_sock, shards, shard_socks, reg
    try:
        asyncio.run(_request(router_sock, "shutdown"))
    except Exception:
        pass
    thread.join(timeout=20)
    assert not thread.is_alive(), "cluster thread failed to drain"


async def _request(sock, op, **kwargs):
    async with ServeClient(socket_path=sock) as client:
        return await client.request(op, **kwargs)


OPS = ("map", "estimate", "simulate", "remap")
WLS = ("vecmax", "fir")


class TestRouterServing:
    def test_job_op_is_an_unknown_op(self, live_cluster):
        router, router_sock, shards, *_ = live_cluster
        asyncio.run(assert_job_op_rejected(router_sock))
        assert router.counters["routed"] == 0
        assert all(s.counters["computes"] == 0 for s in shards)

    def test_routed_results_byte_identical_to_single_shot(
        self, live_cluster, sysadg
    ):
        _router, sock, _shards, _ss, reg = live_cluster
        report = asyncio.run(
            run_load(
                lambda: ServeClient(socket_path=sock),
                ops=OPS,
                workloads=WLS,
                overlays=("fam@v1",),
                requests=48,
                concurrency=8,
            )
        )
        assert report.errors == 0 and not report.mismatches
        v1 = sysadg_from_dict(reg.resolve("fam@v1").design_doc)
        for (op, wl, _ov), blob in report.results.items():
            assert blob == canonical_dumps(single_shot(op, v1, wl)), (
                op,
                wl,
            )

    def test_identical_requests_stick_to_one_shard(self, live_cluster):
        router, sock, shards, _ss, _reg = live_cluster
        for _ in range(6):
            asyncio.run(
                _request(sock, "map", workload="vecmax", overlay="fam@v1")
            )
        # All six landed on exactly one shard: its compute counter moved,
        # the other's did not (coalescing/caching only works with
        # affinity).  `requests` would also count health-sweep probes.
        compute_shards = [
            s for s in shards if s.counters["computes"] > 0
        ]
        assert len(compute_shards) == 1
        assert router.counters["routed"] >= 6

    def test_remap_versions_share_a_shard(self, live_cluster):
        """remap routes on the base name: v1's schedule must be on the
        shard that serves v2, or preservation can never happen."""
        _router, sock, shards, _ss, _reg = live_cluster
        asyncio.run(
            _request(sock, "remap", workload="vecmax", overlay="fam@v1")
        )
        asyncio.run(
            _request(sock, "remap", workload="vecmax", overlay="fam@v2")
        )
        preserved = sum(
            s.counters["remap_preserved"] for s in shards
        )
        assert preserved == 1

    def test_stats_aggregate_sums_shard_counters(self, live_cluster):
        _router, sock, shards, _ss, _reg = live_cluster
        asyncio.run(
            _request(sock, "map", workload="vecmax", overlay="fam@v1")
        )
        stats = asyncio.run(_request(sock, "stats"))
        assert stats["role"] == "router"
        assert len(stats["shards"]) == 2
        agg = stats["aggregate"]["counters"]
        assert agg["computes"] == sum(
            s.counters["computes"] for s in shards
        )

    def test_topology_reports_both_shards(self, live_cluster):
        _router, sock, _shards, shard_socks, _reg = live_cluster
        topo = asyncio.run(_request(sock, "topology"))
        assert topo["role"] == "router"
        assert [s["socket"] for s in topo["shards"]] == shard_socks
        assert topo["slots"] == SLOTS

    def test_cluster_mode_load_routes_like_the_router(self, live_cluster):
        router, sock, shards, _ss, reg = live_cluster
        report = asyncio.run(
            run_load(
                lambda: ServeClient(socket_path=sock),
                ops=("map", "simulate"),
                workloads=WLS,
                overlays=("fam@v1", "fam@v2"),
                requests=32,
                concurrency=8,
                cluster=True,
            )
        )
        assert report.errors == 0 and not report.mismatches
        assert sum(report.shard_requests.values()) == 32
        assert report.balance is not None
        # Direct-routed requests hit the same shard the router would
        # pick: re-deriving the owner per key matches the observation.
        topo = Topology.from_doc(asyncio.run(_request(sock, "topology")))
        for (op, wl, ov), _blob in report.results.items():
            overlay_key = overlay_route_key(op, ov, topo.overlays.get)
            owner = topo.shard_for(overlay_key, workload_fp(wl)).index
            assert owner in report.shard_requests

    def test_router_and_cluster_client_pick_the_same_shard(
        self, live_cluster
    ):
        """One routing rule: for every op × spec form, the shard the
        router forwards to is the shard a ``--cluster`` client dials."""
        router, sock, *_ = live_cluster
        for op in ("map", "simulate", "remap"):
            for overlay in ("fam", "fam@v1"):
                for wl in WLS:
                    before = [s.routed for s in router.backends]
                    asyncio.run(
                        _request(sock, op, workload=wl, overlay=overlay)
                    )
                    (owner,) = [
                        i
                        for i, s in enumerate(router.backends)
                        if s.routed != before[i]
                    ]
                    report = asyncio.run(
                        run_load(
                            lambda: ServeClient(socket_path=sock),
                            plan=[(op, wl, overlay)],
                            concurrency=1,
                            fetch_stats=False,
                            cluster=True,
                        )
                    )
                    assert report.errors == 0
                    assert report.shard_requests == {owner: 1}, (
                        op, overlay, wl,
                    )

    def test_dead_shard_fails_over(self, live_cluster):
        router, sock, shards, shard_socks, _reg = live_cluster
        # Find a key owned by shard 0, then kill shard 0 directly.
        asyncio.run(_request(shard_socks[0], "shutdown"))
        for wl in WLS:
            doc = asyncio.run(
                _request(sock, "map", workload=wl, overlay="fam@v1")
            )
            assert doc["op"] == "map"
        assert router.counters["failovers"] >= 1
