"""Remap, simulate_batch, and registry-backed serving.

The remap acceptance criteria: a param-only new version rides the
schedule-preserving fast path (``revalidate_schedule`` returns the same
object), a structurally different version falls back to a full
recompile, and result documents stay byte-identical regardless of which
path produced them.
"""

import asyncio
import copy
import threading

import pytest

from repro.adg import sysadg_to_dict
from repro.dse import DseConfig, explore
from repro.engine import MetricsLogger, OverlayRegistry
from repro.serve import (
    OverlayServer,
    ServeClient,
    ServeConfig,
    ServeError,
    canonical_dumps,
    single_shot,
    wait_for_server,
)
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def sysadg():
    return explore(
        [get_workload("vecmax")],
        DseConfig(iterations=10, seed=4),
        name="vecmax",
    ).sysadg


@pytest.fixture(scope="module")
def other_sysadg():
    """A structurally different overlay (other seed, other ADG)."""
    return explore(
        [get_workload("vecmax")],
        DseConfig(iterations=10, seed=11),
        name="vecmax",
    ).sysadg


@pytest.fixture()
def registry(tmp_path, sysadg, other_sysadg):
    """fam@v1 = base, fam@v2 = param-only tweak, fam@v3 = new ADG."""
    reg = OverlayRegistry(str(tmp_path / "reg"))
    doc = sysadg_to_dict(sysadg)
    reg.publish("fam", doc, note="base")
    doc2 = copy.deepcopy(doc)
    doc2["params"]["frequency_mhz"] = round(
        doc2["params"]["frequency_mhz"] + 7.0, 2
    )
    reg.publish("fam", doc2, note="freq bump")
    reg.publish("fam", sysadg_to_dict(other_sysadg), note="new adg")
    return reg


@pytest.fixture()
def live_server(registry, tmp_path):
    """Registry-only server (no preloaded overlays) on its own thread."""
    sock = str(tmp_path / "remap.sock")
    config = ServeConfig(
        socket_path=sock,
        workers=0,
        queue_limit=128,
        drain_timeout_s=10.0,
        registry_dir=str(registry.root),
    )
    server = OverlayServer(config, metrics=MetricsLogger())
    started = threading.Event()

    def run():
        async def serve():
            await server.start()
            started.set()
            await server.wait_closed()

        asyncio.run(serve())

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(timeout=10), "server thread never started"
    asyncio.run(wait_for_server(lambda: ServeClient(socket_path=sock)))
    yield server, sock
    try:
        asyncio.run(_request(sock, "shutdown"))
    except Exception:
        pass
    thread.join(timeout=10)
    assert not thread.is_alive(), "server thread failed to drain"


async def _request(sock, op, **kwargs):
    async with ServeClient(socket_path=sock) as client:
        return await client.request(op, **kwargs)


class TestRemapPaths:
    def test_param_only_version_is_preserved(self, live_server):
        server, sock = live_server
        asyncio.run(_request(sock, "remap", workload="vecmax",
                             overlay="fam@v1"))
        assert server.counters["remap_cold"] == 1
        asyncio.run(_request(sock, "remap", workload="vecmax",
                             overlay="fam@v2"))
        assert server.counters["remap_preserved"] == 1
        assert server.counters["remap_recompiled"] == 0

    def test_new_adg_version_recompiles(self, live_server):
        server, sock = live_server
        asyncio.run(_request(sock, "remap", workload="vecmax",
                             overlay="fam@v1"))
        asyncio.run(_request(sock, "remap", workload="vecmax",
                             overlay="fam@v3"))
        assert server.counters["remap_cold"] == 1
        assert server.counters["remap_recompiled"] == 1

    def test_preserved_doc_is_byte_identical_to_cold(
        self, live_server, sysadg
    ):
        """The wire doc must not leak serving history.

        The same fam@v2 request served preserved (prior schedule held)
        and served cold (fresh server) yields identical bytes — the
        scheduler is deterministic on the same ADG, and the path lives
        only in counters.
        """
        server, sock = live_server
        asyncio.run(_request(sock, "remap", workload="vecmax",
                             overlay="fam@v1"))
        preserved = asyncio.run(
            _request(sock, "remap", workload="vecmax", overlay="fam@v2")
        )
        assert server.counters["remap_preserved"] == 1
        # Cold reference: same design, no history, via the library path.
        from repro.adg import sysadg_from_dict

        v2_doc = server.registry.resolve("fam@v2").design_doc
        cold = single_shot("remap", sysadg_from_dict(v2_doc), "vecmax")
        assert canonical_dumps(preserved) == canonical_dumps(cold)

    def test_preserving_leaves_the_resident_schedule_intact(
        self, live_server, registry, sysadg
    ):
        """Revalidation stamps the schedule it keeps; under the thread
        executor the prior is the very object the worker holds for the
        old version, which must go on answering for the old version."""
        server, sock = live_server
        doc = sysadg_to_dict(sysadg)
        doc["params"]["dram_channels"] += 1
        registry.publish("fam", doc, note="more dram")
        asyncio.run(_request(sock, "remap", workload="vecmax",
                             overlay="fam@v1"))
        asyncio.run(_request(sock, "remap", workload="vecmax",
                             overlay="fam@v4"))
        assert server.counters["remap_preserved"] == 1
        served = asyncio.run(
            _request(sock, "map", workload="vecmax", overlay="fam@v1")
        )
        assert server.counters["schedule_reuse"] == 1
        assert canonical_dumps(served) == canonical_dumps(
            single_shot("map", sysadg, "vecmax")
        )

    def test_remap_duplicate_is_memory_cached(self, live_server):
        """The second ask is a memory hit: ``served.remap`` says
        ``cache`` and no remap path is booked a second time."""
        server, sock = live_server
        line = {"op": "remap", "workload": "vecmax", "overlay": "fam@v1"}

        async def twice():
            async with ServeClient(socket_path=sock) as client:
                return [await client.request_raw(line) for _ in range(2)]

        first, again = asyncio.run(twice())
        assert canonical_dumps(first["result"]) == canonical_dumps(
            again["result"]
        )
        assert first["served"]["remap"] == "cold"
        assert again["served"]["cache"] == "memory"
        assert again["served"]["remap"] == "cache"
        paths = ("cold", "preserved", "recompiled")
        assert [server.counters[f"remap_{p}"] for p in paths] == [1, 0, 0]

    def test_unmappable_remap_is_structured(self, live_server):
        _server, sock = live_server
        with pytest.raises(ServeError) as err:
            asyncio.run(_request(sock, "remap", workload="fir",
                                 overlay="fam@v1"))
        assert err.value.code == "unmappable"


class TestRegistryServing:
    def test_bare_name_tracks_the_pin(self, live_server, registry):
        server, sock = live_server
        by_pin = asyncio.run(
            _request(sock, "map", workload="vecmax", overlay="fam")
        )
        explicit = asyncio.run(
            _request(sock, "map", workload="vecmax", overlay="fam@v3")
        )
        # No pin: bare name means latest (v3).
        assert canonical_dumps(by_pin) == canonical_dumps(explicit)
        registry.pin("fam", 1)
        repinned = asyncio.run(
            _request(sock, "map", workload="vecmax", overlay="fam")
        )
        v1 = asyncio.run(
            _request(sock, "map", workload="vecmax", overlay="fam@v1")
        )
        assert canonical_dumps(repinned) == canonical_dumps(v1)

    def test_unknown_spec_is_bad_request(self, live_server):
        _server, sock = live_server
        with pytest.raises(ServeError) as err:
            asyncio.run(_request(sock, "map", workload="vecmax",
                                 overlay="ghost@v1"))
        assert err.value.code == "bad_request"

    def test_stats_reports_registry(self, live_server):
        _server, sock = live_server
        stats = asyncio.run(_request(sock, "stats"))
        assert stats["registry"]["names"] == ["fam"]


class TestSimulateBatchWire:
    def test_batch_matches_per_name_simulate(self, live_server, sysadg):
        _server, sock = live_server
        doc = asyncio.run(
            _request(sock, "simulate_batch", workload="vecmax,fir",
                     overlay="fam@v1")
        )
        assert doc["workloads"] == ["vecmax", "fir"]
        solo = asyncio.run(
            _request(sock, "simulate", workload="vecmax", overlay="fam@v1")
        )
        assert canonical_dumps(doc["results"][0]) == canonical_dumps(solo)
        assert doc["results"][1] is None  # unmappable slot, not an error

    def test_empty_batch_is_bad_request(self, live_server):
        _server, sock = live_server
        with pytest.raises(ServeError) as err:
            asyncio.run(_request(sock, "simulate_batch", workload=",,",
                                 overlay="fam@v1"))
        assert err.value.code == "bad_request"
