"""``repro cluster serve`` end to end: start, serve, drain, exit code.

Shards run from the caller's working directory, so a relative
``PYTHONPATH`` and a relative ``--run-dir`` (the CI command line) work,
and the command exits 1 when a shard did not exit cleanly.  Each
launcher runs on a thread of this process and its shard is a real
subprocess; both clusters start together so their boots overlap.
"""

import asyncio
import os
import signal
import threading
from pathlib import Path

import pytest

from repro.adg import general_overlay, save_sysadg
from repro.cli import main
from repro.serve import ServeClient, wait_for_server

SRC = Path(__file__).resolve().parents[1] / "src"


class Cluster:
    """``repro cluster serve`` with one shard, on a thread."""

    def __init__(self, root, name):
        self.run_dir = f"run-{name}"
        self.sock = f"{name}.sock"
        self.address = str(root / self.sock)
        self.code = None
        self.thread = threading.Thread(target=self._main, daemon=True)
        self.thread.start()

    def _main(self):
        self.code = main(
            ["cluster", "serve", "design.json", "--run-dir", self.run_dir,
             "--shards", "1", "--workers", "0", "--socket", self.sock]
        )

    def wait_up(self):
        asyncio.run(
            wait_for_server(
                lambda: ServeClient(socket_path=self.address),
                attempts=300,
                delay_s=0.02,
            )
        )

    def request(self, op, **kwargs):
        async def one():
            async with ServeClient(socket_path=self.address) as client:
                return await client.request(op, **kwargs)

        return asyncio.run(one())

    def drain(self):
        """Ask the router to shut down; the launcher's exit code."""
        self.request("shutdown")
        self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "cluster failed to drain"
        return self.code

    def shard_pid(self):
        """This process's child serving this cluster's shard socket."""
        sock = f"{self.run_dir}/shard-0.sock".encode()
        (pid,) = [
            int(child)
            for task in Path("/proc/self/task").iterdir()
            for child in (task / "children").read_text().split()
            if sock in Path(f"/proc/{child}/cmdline").read_bytes()
        ]
        return pid


@pytest.fixture(scope="module")
def clusters(tmp_path_factory):
    """Two clusters started from one temp cwd with relative paths only."""
    root = tmp_path_factory.mktemp("cluster")
    save_sysadg(general_overlay(), str(root / "design.json"))
    (root / "src").symlink_to(SRC)
    cwd, pythonpath = os.getcwd(), os.environ.get("PYTHONPATH")
    os.chdir(root)
    os.environ["PYTHONPATH"] = "src"
    started = {}
    try:
        for name in ("ok", "killed"):
            started[name] = Cluster(root, name)
        for cluster in started.values():
            cluster.wait_up()
        yield started
    finally:
        os.chdir(cwd)
        if pythonpath is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = pythonpath
        for cluster in started.values():
            if cluster.thread.is_alive():
                cluster.drain()


def test_relative_paths_serve_and_drain_to_exit_0(clusters):
    cluster = clusters["ok"]
    assert cluster.request("map", workload="fir")["op"] == "map"
    assert Path(cluster.run_dir, "shard-0.sock").exists()
    assert cluster.drain() == 0


def test_a_killed_shard_makes_the_cluster_exit_1(clusters):
    cluster = clusters["killed"]
    os.kill(cluster.shard_pid(), signal.SIGKILL)
    assert cluster.drain() == 1


def test_spawning_shards_leaks_no_log_handle(tmp_path, monkeypatch):
    """The launcher hands each shard its log file and keeps no handle:
    the child owns its copy of the fd."""
    import gc
    import sys
    import warnings

    from repro.cluster.launcher import ClusterLauncher, LauncherConfig

    def stub_shard(self, index):
        # Listens on the shard socket and sleeps: enough for spawn_shards.
        return [sys.executable, "-c",
                "import socket, sys, time; "
                "socket.socket(socket.AF_UNIX).bind(sys.argv[1]); "
                "time.sleep(60)",
                self.shard_socket(index)]

    monkeypatch.setattr(ClusterLauncher, "_shard_command", stub_shard)
    launcher = ClusterLauncher(
        LauncherConfig(run_dir=str(tmp_path), shards=2, designs=["x.json"])
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            launcher.spawn_shards()
        finally:
            launcher.terminate()
        gc.collect()
    leaked = [
        str(w.message) for w in caught
        if issubclass(w.category, ResourceWarning) and "shard-" in str(w.message)
    ]
    assert leaked == []
