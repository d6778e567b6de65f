"""End-to-end tests for the overlay-compilation server.

Each test runs server + clients inside one ``asyncio.run`` on a unix
socket under ``tmp_path`` (one test covers localhost TCP).  Slow-compute
behaviours (admission control, deadlines) monkeypatch the worker entry
point and use the in-process thread executor (``workers=0``) so the
patch is visible to the worker.
"""

import asyncio
import json
import time

import pytest

from repro.dse import DseConfig, explore
from repro.engine import MetricsLogger
from repro.serve import (
    DeadlineError,
    OverlayServer,
    ServeClient,
    ServeConfig,
    ServeError,
    ShuttingDownError,
    canonical_dumps,
    single_shot,
)
from repro.serve.client import ServeConnectionError
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def sysadg():
    result = explore(
        [get_workload("vecmax")],
        DseConfig(iterations=10, seed=4),
        name="vecmax",
    )
    return result.sysadg


def make_server(sysadg, tmp_path, **overrides):
    defaults = dict(
        socket_path=str(tmp_path / "serve.sock"),
        workers=0,           # thread executor: fast + monkeypatchable
        queue_limit=64,
        default_timeout_s=30.0,
        drain_timeout_s=10.0,
    )
    defaults.update(overrides)
    config = ServeConfig(**defaults)
    server = OverlayServer(config, metrics=MetricsLogger())
    server.add_overlay(sysadg)
    return server


def client_for(server):
    kind, where = server.endpoint
    if kind == "unix":
        return ServeClient(socket_path=where)
    return ServeClient(host=where[0], port=where[1])


def serve_test(server, body):
    """Run ``await body()`` between server start and graceful shutdown."""

    async def run():
        await server.start()
        try:
            return await body()
        finally:
            await server.shutdown()
            await asyncio.wait_for(server.wait_closed(), timeout=10)

    return asyncio.run(run())


class TestComputeOps:
    def test_map_estimate_simulate_match_single_shot(self, sysadg, tmp_path):
        refs = {
            op: canonical_dumps(single_shot(op, sysadg, "vecmax"))
            for op in ("map", "estimate", "simulate")
        }
        server = make_server(sysadg, tmp_path)

        async def body():
            async with client_for(server) as client:
                for op, ref in refs.items():
                    result = await client.request(op, workload="vecmax")
                    assert canonical_dumps(result) == ref, op

        serve_test(server, body)

    def test_served_results_byte_identical_to_cli_json(
        self, sysadg, tmp_path, capsys
    ):
        from repro.adg import save_sysadg
        from repro.cli import main

        design = tmp_path / "design.json"
        save_sysadg(sysadg, str(design))
        assert main(["map", str(design), "vecmax", "--json"]) == 0
        cli_map = capsys.readouterr().out.strip()
        assert main(["simulate", str(design), "vecmax", "--json"]) == 0
        cli_sim = capsys.readouterr().out.strip()

        server = make_server(sysadg, tmp_path)

        async def body():
            async with client_for(server) as client:
                served_map = await client.request("map", workload="vecmax")
                served_sim = await client.request(
                    "simulate", workload="vecmax"
                )
                assert canonical_dumps(served_map) == cli_map
                assert canonical_dumps(served_sim) == cli_sim

        serve_test(server, body)

    def test_tcp_endpoint(self, sysadg, tmp_path):
        server = make_server(sysadg, tmp_path, socket_path=None, port=0)

        async def body():
            kind, (host, port) = server.endpoint
            assert kind == "tcp" and port > 0
            async with ServeClient(host=host, port=port) as client:
                pong = await client.ping()
                assert pong["pong"] is True
                result = await client.request("map", workload="vecmax")
                assert result["workload"] == "vecmax"

        serve_test(server, body)

    def test_cache_tiers_and_metrics_events(self, sysadg, tmp_path):
        store_dir = tmp_path / "store"
        server = make_server(sysadg, tmp_path, cache_dir=str(store_dir))

        async def body():
            async with client_for(server) as client:
                first = await client.request_raw(
                    {"op": "map", "workload": "vecmax"}
                )
                again = await client.request_raw(
                    {"op": "map", "workload": "vecmax"}
                )
                assert first["served"]["cache"] == "compute"
                assert again["served"]["cache"] == "memory"
                assert first["result"] == again["result"]

        serve_test(server, body)
        events = server.metrics.of_type("request")
        assert len(events) == 2
        assert [e["cache"] for e in events] == ["compute", "memory"]
        assert server.metrics.of_type("serve_summary")

        # A fresh server over the same store answers from disk.
        server2 = make_server(sysadg, tmp_path, cache_dir=str(store_dir))

        async def body2():
            async with client_for(server2) as client:
                warm = await client.request_raw(
                    {"op": "map", "workload": "vecmax"}
                )
                assert warm["served"]["cache"] == "disk"

        serve_test(server2, body2)
        assert server2.counters["computes"] == 0

    def test_bare_store_artifact_is_served_from_disk(self, sysadg, tmp_path):
        """A ``cache_dir`` written before ``TieredCache`` existed (a bare
        ``ArtifactStore.put`` of the result document under
        ``result_key``) is answered from disk without recomputing."""
        from repro.engine import ArtifactStore
        from repro.serve.ops import (
            overlay_fingerprint, result_key, workload_fp,
        )

        doc = single_shot("map", sysadg, "vecmax")
        key = result_key(
            overlay_fingerprint(sysadg), workload_fp("vecmax"), "map"
        )
        store_dir = tmp_path / "store"
        ArtifactStore(store_dir).put(key, doc, meta={"kind": "serve_result"})
        server = make_server(sysadg, tmp_path, cache_dir=str(store_dir))

        async def body():
            async with client_for(server) as client:
                first = await client.request_raw(
                    {"op": "map", "workload": "vecmax"}
                )
                assert first["served"]["cache"] == "disk"
                assert first["result"] == doc

        serve_test(server, body)
        assert server.counters["cache_disk"] == 1
        assert server.counters["computes"] == 0

    def test_unmappable_is_structured_and_consistent(self, sysadg, tmp_path):
        ref = single_shot("map", sysadg, "cholesky")
        server = make_server(sysadg, tmp_path)

        async def body():
            async with client_for(server) as client:
                if ref is None:
                    with pytest.raises(ServeError) as err:
                        await client.request("map", workload="cholesky")
                    assert err.value.code == "unmappable"
                    # The negative answer memoizes: ask again, same code.
                    with pytest.raises(ServeError) as err2:
                        await client.request("map", workload="cholesky")
                    assert err2.value.code == "unmappable"
                else:
                    result = await client.request("map", workload="cholesky")
                    assert canonical_dumps(result) == canonical_dumps(ref)

        serve_test(server, body)


#: The request ``SocketJobExecutor`` used to send: a base64 pickle for
#: the server to execute.  The op is gone, so it is just an unknown op.
JOB_LINE = (
    b'{"id": "x", "op": "job", "options": {"payload": "gASVCg=="}}\n'
)


async def assert_job_op_rejected(path):
    """One typed ``bad_request`` for the ``job`` line — then the same
    connection still answers ``ping`` (a second ``job`` response would
    arrive in the pong's place)."""
    reader, writer = await asyncio.open_unix_connection(path)
    try:
        writer.write(JOB_LINE)
        await writer.drain()
        first = json.loads(await asyncio.wait_for(reader.readline(), 5))
        writer.write(b'{"id": "p", "op": "ping"}\n')
        await writer.drain()
        second = json.loads(await asyncio.wait_for(reader.readline(), 5))
    finally:
        writer.close()
    assert first["id"] == "x" and first["ok"] is False
    assert first["error"]["code"] == "bad_request"
    assert "unknown op 'job'" in first["error"]["message"]
    assert second["id"] == "p" and second["result"]["pong"] is True


class TestBadRequests:
    def test_job_op_is_an_unknown_op(self, sysadg, tmp_path):
        server = make_server(sysadg, tmp_path)

        async def body():
            await assert_job_op_rejected(server.endpoint[1])
            assert server.counters["responses_error"] == 1
            assert server.counters["computes"] == 0

        serve_test(server, body)

    def test_unknown_workload_and_overlay(self, sysadg, tmp_path):
        server = make_server(sysadg, tmp_path)

        async def body():
            async with client_for(server) as client:
                with pytest.raises(ServeError) as err:
                    await client.request("map", workload="not-a-workload")
                assert err.value.code == "bad_request"
                with pytest.raises(ServeError) as err:
                    await client.request(
                        "map", workload="vecmax", overlay="nope"
                    )
                assert err.value.code == "bad_request"

        serve_test(server, body)

    def test_malformed_line_answers_bad_request(self, sysadg, tmp_path):
        server = make_server(sysadg, tmp_path)

        async def body():
            _, path = server.endpoint
            reader, writer = await asyncio.open_unix_connection(path)
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=5)
            doc = json.loads(line)
            assert doc["ok"] is False
            assert doc["error"]["code"] == "bad_request"
            writer.close()

        serve_test(server, body)


class TestCoalescing:
    def test_concurrent_identical_requests_share_one_compile(
        self, sysadg, tmp_path, monkeypatch
    ):
        calls = []
        release = __import__("threading").Event()

        def slow_compute(op, overlay_fp, workload, design_doc=None):
            calls.append(op)
            release.wait(timeout=10)
            return {"op": op, "workload": workload, "slow": True}, False

        monkeypatch.setattr("repro.serve.server.compute_op", slow_compute)
        server = make_server(sysadg, tmp_path)

        async def body():
            async with client_for(server) as client:
                waiters = [
                    asyncio.ensure_future(
                        client.request("map", workload="vecmax")
                    )
                    for _ in range(12)
                ]
                await asyncio.sleep(0.1)  # all 12 join the same flight
                release.set()
                results = await asyncio.gather(*waiters)
            blobs = {canonical_dumps(r) for r in results}
            assert len(blobs) == 1

        serve_test(server, body)
        assert len(calls) == 1
        assert server.counters["computes"] == 1
        assert server.counters["coalesced"] == 11
        assert server.flights.stats.followers == 11

    def test_distinct_ops_do_not_coalesce(self, sysadg, tmp_path):
        server = make_server(sysadg, tmp_path)

        async def body():
            async with client_for(server) as client:
                await asyncio.gather(
                    client.request("map", workload="vecmax"),
                    client.request("estimate", workload="vecmax"),
                    client.request("simulate", workload="vecmax"),
                )

        serve_test(server, body)
        assert server.counters["computes"] == 3


class TestAdmissionControl:
    def test_undersized_queue_sheds_with_overloaded(
        self, sysadg, tmp_path, monkeypatch
    ):
        def slow_compute(op, overlay_fp, workload, design_doc=None):
            time.sleep(0.4)
            return {"op": op, "workload": workload}, False

        monkeypatch.setattr("repro.serve.server.compute_op", slow_compute)
        server = make_server(sysadg, tmp_path, queue_limit=2)
        outcomes = {"ok": 0, "overloaded": 0}

        async def body():
            async with client_for(server) as client:
                # 6 distinct keys so coalescing cannot absorb the burst.
                jobs = [
                    (op, wl)
                    for op in ("map", "estimate", "simulate")
                    for wl in ("vecmax", "fir")
                ]

                async def fire(op, wl):
                    try:
                        await client.request(op, workload=wl, timeout_s=30)
                        outcomes["ok"] += 1
                    except ServeError as exc:
                        assert exc.code == "overloaded", exc.code
                        assert exc.retryable
                        outcomes["overloaded"] += 1

                await asyncio.gather(*(fire(op, wl) for op, wl in jobs))

        serve_test(server, body)
        assert outcomes["overloaded"] >= 1     # shed, not queued
        assert outcomes["ok"] >= 2             # admitted ones finished
        assert outcomes["ok"] + outcomes["overloaded"] == 6
        assert server.gate.rejected == outcomes["overloaded"]
        assert server.gate.peak <= 2


class TestDeadlines:
    def test_deadline_expiry_is_structured_and_compute_survives(
        self, sysadg, tmp_path, monkeypatch
    ):
        def slow_compute(op, overlay_fp, workload, design_doc=None):
            time.sleep(0.3)
            return {"op": op, "workload": workload, "finished": True}, False

        monkeypatch.setattr("repro.serve.server.compute_op", slow_compute)
        server = make_server(sysadg, tmp_path)

        async def body():
            async with client_for(server) as client:
                with pytest.raises(DeadlineError) as err:
                    await client.request(
                        "map", workload="vecmax", timeout_s=0.05
                    )
                assert err.value.code == "deadline" and err.value.retryable
                # The shared compute kept running; a patient retry gets
                # the memoized result without a second compile.
                result = await client.request(
                    "map", workload="vecmax", timeout_s=10
                )
                assert result["finished"] is True

        serve_test(server, body)
        assert server.counters["computes"] == 1


class TestDrain:
    def test_graceful_drain_finishes_inflight_then_rejects(
        self, sysadg, tmp_path, monkeypatch
    ):
        def slow_compute(op, overlay_fp, workload, design_doc=None):
            time.sleep(0.2)
            return {"op": op, "workload": workload, "finished": True}, False

        monkeypatch.setattr("repro.serve.server.compute_op", slow_compute)
        server = make_server(sysadg, tmp_path)

        async def run():
            await server.start()
            async with client_for(server) as client:
                inflight = asyncio.ensure_future(
                    client.request("map", workload="vecmax", timeout_s=10)
                )
                await asyncio.sleep(0.05)  # the compute is now running
                assert (await client.shutdown())["draining"] is True
                result = await inflight  # drain waited for it
                assert result["finished"] is True
                with pytest.raises((ShuttingDownError, ServeConnectionError)):
                    await client.request("map", workload="vecmax")
            await asyncio.wait_for(server.wait_closed(), timeout=10)

        asyncio.run(run())
        assert server.metrics.of_type("serve_summary")

    def test_new_connections_refused_after_drain(self, sysadg, tmp_path):
        server = make_server(sysadg, tmp_path)

        async def run():
            await server.start()
            _, path = server.endpoint
            await server.shutdown()
            await asyncio.wait_for(server.wait_closed(), timeout=10)
            with pytest.raises((ConnectionError, OSError)):
                await asyncio.open_unix_connection(path)

        asyncio.run(run())


class TestMultiOverlay:
    def test_requests_route_by_overlay_name(self, sysadg, tmp_path):
        server = make_server(sysadg, tmp_path)
        server.add_overlay(sysadg, name="second")

        async def body():
            async with client_for(server) as client:
                with pytest.raises(ServeError) as err:
                    await client.request("map", workload="vecmax")
                assert err.value.code == "bad_request"  # ambiguous
                result = await client.request(
                    "map", workload="vecmax", overlay="second"
                )
                assert result["workload"] == "vecmax"
                stats = await client.stats()
                assert sorted(stats["overlays"]) == ["second", "vecmax"]

        serve_test(server, body)
