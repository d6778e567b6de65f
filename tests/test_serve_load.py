"""Acceptance load tests: the ISSUE's ≥64-concurrent-request criteria.

The server runs in a background thread with its own event loop (the same
shape as the real deployment: ``repro serve`` in one process, many
client processes), and the bundled load generator / ``repro submit``
CLI drive it from the test's own loops.
"""

import asyncio
import threading

import pytest

from repro.adg import save_sysadg
from repro.cli import main
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
)
from repro.workloads import get_workload


@pytest.fixture(scope="module")
def sysadg():
    result = explore(
        [get_workload("vecmax")],
        DseConfig(iterations=10, seed=4),
        name="vecmax",
    )
    return result.sysadg


@pytest.fixture()
def live_server(sysadg, tmp_path):
    """A serving OverlayServer on its own thread + loop; yields (server, sock)."""
    sock = str(tmp_path / "live.sock")
    config = ServeConfig(
        socket_path=sock, workers=0, queue_limit=128, drain_timeout_s=10.0
    )
    server = OverlayServer(config, metrics=MetricsLogger())
    server.add_overlay(sysadg)
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
    asyncio.run(
        wait_for_server(lambda: ServeClient(socket_path=sock))
    )
    yield server, sock
    asyncio.run(_shutdown_quietly(sock))
    thread.join(timeout=10)
    assert not thread.is_alive(), "server thread failed to drain"


async def _shutdown_quietly(sock):
    try:
        async with ServeClient(socket_path=sock) as client:
            await client.shutdown()
    except Exception:
        pass  # already drained by the test body


class TestLoadAcceptance:
    def test_64_concurrent_mixed_requests_zero_errors(self, live_server, sysadg):
        server, sock = live_server
        factory = lambda: ServeClient(socket_path=sock)
        report = asyncio.run(
            run_load(
                factory,
                ops=("map", "estimate", "simulate"),
                workloads=("vecmax",),
                requests=64,
                concurrency=16,
                timeout_s=60,
            )
        )
        # Zero errors across the whole mixed run.
        assert report.requests == 64
        assert report.ok == 64 and report.errors == 0
        assert report.mismatches == []
        # Coalescing + caching collapse duplicate in-flight requests:
        # the server compiled each unique (op, workload) at most once
        # more than strictly necessary, far below the request count.
        stats = report.server_stats
        computes = stats["counters"]["computes"]
        assert computes < report.requests
        assert computes <= 3 * 2  # 3 unique keys, generous slack
        coalesced = stats["counters"]["coalesced"]
        memory_hits = stats["counters"]["cache_memory"]
        assert coalesced + memory_hits >= report.requests - computes
        # Served results are byte-identical to the single-shot path.
        for (op, wl, _ov), blob in report.results.items():
            ref = single_shot(op, sysadg, wl)
            assert blob == canonical_dumps(ref), (op, wl)
        lat = report.latency.as_dict()
        assert lat["count"] == 64 and lat["p99_s"] >= lat["p50_s"]

    def test_submit_cli_load_and_admin_ops(self, live_server, capsys):
        _, sock = live_server
        rc = main(
            [
                "submit", "load", "--socket", sock,
                "--requests", "32", "--concurrency", "8",
                "--ops", "map,estimate,simulate",
                "--workloads", "vecmax",
                "--assert-coalescing",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "32 ok / 0 errors" in out
        assert "compiles for 32 requests" in out

        assert main(["submit", "ping", "--socket", sock]) == 0
        assert '"pong":true' in capsys.readouterr().out

        assert main(
            ["submit", "map", "vecmax", "--socket", sock, "--json"]
        ) == 0
        doc = capsys.readouterr().out.strip()
        assert doc.startswith("{") and '"op":"map"' in doc

    def test_submit_load_shards_1_and_2_agree(self, live_server, capsys):
        """One path for any ``--shards``: a single slice runs in-process
        by the pool executor's serial-fallback rule."""
        import json

        _, sock = live_server
        reports = {}
        for shards in ("1", "2"):
            rc = main(
                [
                    "submit", "load", "--socket", sock, "--shards", shards,
                    "--requests", "24", "--concurrency", "4",
                    "--workloads", "vecmax", "--json",
                ]
            )
            out = capsys.readouterr().out
            assert rc == 0, out
            assert "compiles for 24 requests" in out  # final server stats
            reports[shards] = json.loads(out.strip().splitlines()[-1])
        for key in ("requests", "ok", "errors", "computes", "mismatches"):
            assert reports["1"][key] == reports["2"][key], key
        assert reports["1"]["ok"] == 24 and reports["1"]["mismatches"] == []

    def test_submit_connection_error_is_clean(self, tmp_path, capsys):
        rc = main(
            ["submit", "ping", "--socket", str(tmp_path / "nowhere.sock")]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestServeCliParser:
    def test_serve_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "d.json"])
        assert args.designs == ["d.json"]
        assert args.queue_limit == 64 and args.workers == 2
        assert args.port == 0 and args.socket is None

    def test_submit_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["submit", "load"])
        assert args.requests == 64 and args.concurrency == 16
        assert args.ops == "map,estimate,simulate"

    def test_submit_rejects_unknown_op(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["submit", "frobnicate"])

    def test_submit_compute_requires_workload(self, tmp_path):
        rc = main(["submit", "map", "--socket", str(tmp_path / "s.sock")])
        assert rc == 2

    def test_serve_missing_design_is_clean(self, tmp_path, capsys):
        rc = main(
            ["serve", str(tmp_path / "missing.json"),
             "--socket", str(tmp_path / "s.sock")]
        )
        assert rc == 2
        assert "no such design file" in capsys.readouterr().err

    def test_serve_requires_designs_or_registry(self, capsys):
        rc = main(["serve", "--socket", "/tmp/s.sock"])
        assert rc == 2
        assert "design file or --registry" in capsys.readouterr().err


class TestClusterCliParser:
    def test_submit_cluster_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["submit", "load", "--cluster", "--shards", "4",
             "--overlays", "fam@v1,fam@v2"]
        )
        assert args.cluster and args.shards == 4
        assert args.overlays == "fam@v1,fam@v2"
        defaults = build_parser().parse_args(["submit", "load"])
        assert not defaults.cluster and defaults.shards == 1

    def test_submit_accepts_new_ops(self):
        from repro.cli import build_parser

        for op in ("remap", "simulate_batch", "topology"):
            assert build_parser().parse_args(["submit", op]).op == op

    def test_cluster_serve_parser(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["cluster", "serve", "--run-dir", "/tmp/c",
             "--registry", "/tmp/r", "--shards", "3"]
        )
        assert args.shards == 3 and args.designs == []
        assert args.func.__name__ == "run_cluster"

    def test_cluster_serve_needs_overlay_source(self, tmp_path, capsys):
        rc = main(
            ["cluster", "serve", "--run-dir", str(tmp_path / "run")]
        )
        assert rc == 2
        assert "designs and/or a registry" in capsys.readouterr().err


class TestRegistryCli:
    def test_publish_list_pin_rollback_flow(self, tmp_path, capsys):
        import json

        root = str(tmp_path / "reg")
        for tag in ("a", "b", "c"):
            design = tmp_path / f"{tag}.json"
            design.write_text(json.dumps({"tag": tag}))
            rc = main(
                ["registry", "--root", root, "publish", "fam",
                 str(design), "--note", tag]
            )
            assert rc == 0
        out = capsys.readouterr().out
        assert "published fam@v1" in out and "published fam@v3" in out

        assert main(["registry", "--root", root, "list"]) == 0
        assert "fam: 3 versions, latest v3" in capsys.readouterr().out

        assert main(["registry", "--root", root, "pin", "fam@v2"]) == 0
        assert "pinned fam -> fam@v2" in capsys.readouterr().out

        assert main(["registry", "--root", root, "show", "fam"]) == 0
        out = capsys.readouterr().out
        assert "fam@v2 *" in out  # the pin marker

        assert main(["registry", "--root", root, "rollback", "fam"]) == 0
        assert "rolled back fam -> fam@v1" in capsys.readouterr().out

        assert main(["registry", "--root", root, "unpin", "fam"]) == 0
        capsys.readouterr()

    def test_registry_errors_are_clean(self, tmp_path, capsys):
        root = str(tmp_path / "reg")
        assert main(["registry", "--root", root, "pin", "ghost@v1"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["registry", "--root", root, "pin", "ghost"]) == 2
        assert "name@vN" in capsys.readouterr().err
