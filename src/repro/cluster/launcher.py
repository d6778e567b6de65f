"""Spawn a whole cluster — N serve shards + the front-tier router.

``repro cluster serve`` needs shards that are real processes (each with
its own event loop, worker pool, and GIL — that is where the ≥3×
multi-shard throughput comes from), so the launcher shells out to
``python -m repro serve`` per shard, waits for every shard socket to
answer, then runs the :class:`~repro.cluster.router.ClusterRouter` in
the launching process until drain.

Shards listen on unix sockets under one run directory and share one
``--cache-dir`` artifact store (content-addressed and atomically
written, so concurrent shard writes are safe) plus one registry root,
which is how a single ``publish`` becomes visible to every shard.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from ..engine.metrics import MetricsLogger
from ..serve.endpoint import run_until_shutdown
from .router import ClusterRouter, RouterConfig
from .topology import BackendSpec

#: Seconds to wait for every shard socket to come up.
STARTUP_TIMEOUT_S = 30.0


@dataclass
class LauncherConfig:
    """One knob set for the whole cluster."""

    run_dir: str
    shards: int = 2
    #: Design JSON files every shard preloads (may be empty when a
    #: registry provides the overlays).
    designs: List[str] = field(default_factory=list)
    registry_dir: Optional[str] = None
    cache_dir: Optional[str] = None
    workers: int = 2
    queue_limit: int = 64
    default_timeout_s: float = 30.0
    #: Router listen endpoint (unix socket preferred).
    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 0
    metrics_path: Optional[str] = None


class ClusterLauncher:
    """Own the shard processes; run the router until shutdown."""

    def __init__(self, config: LauncherConfig) -> None:
        if config.shards < 1:
            raise ValueError("cluster needs at least one shard")
        if not config.designs and not config.registry_dir:
            raise ValueError(
                "cluster shards need designs and/or a registry to serve"
            )
        self.config = config
        self.processes: List[subprocess.Popen] = []
        self.backends: List[BackendSpec] = []
        self.router: Optional[ClusterRouter] = None

    def shard_socket(self, index: int) -> str:
        return str(Path(self.config.run_dir) / f"shard-{index}.sock")

    def _shard_command(self, index: int) -> List[str]:
        cfg = self.config
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            *cfg.designs,
            "--socket",
            self.shard_socket(index),
            "--workers",
            str(cfg.workers),
            "--queue-limit",
            str(cfg.queue_limit),
            "--default-timeout",
            str(cfg.default_timeout_s),
        ]
        if cfg.cache_dir:
            cmd += ["--cache-dir", cfg.cache_dir]
        if cfg.registry_dir:
            cmd += ["--registry", cfg.registry_dir]
        if cfg.metrics_path:
            # One metrics file per shard, so each reads on its own (one
            # O_APPEND write per record would keep a shared file whole).
            cmd += [
                "--metrics",
                str(Path(cfg.run_dir) / f"metrics-shard-{index}.jsonl"),
            ]
        return cmd

    def spawn_shards(self) -> List[BackendSpec]:
        """Start every shard process and wait for its socket."""
        cfg = self.config
        Path(cfg.run_dir).mkdir(parents=True, exist_ok=True)
        for index in range(cfg.shards):
            # The child keeps its own copy of the log's fd.
            with open(Path(cfg.run_dir) / f"shard-{index}.log", "wb") as log:
                self.processes.append(
                    subprocess.Popen(
                        self._shard_command(index),
                        stdout=log,
                        stderr=subprocess.STDOUT,
                    )
                )
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        for index, proc in enumerate(self.processes):
            sock = self.shard_socket(index)
            while not os.path.exists(sock):
                if proc.poll() is not None:
                    raise RuntimeError(
                        f"shard {index} exited with {proc.returncode} "
                        f"before listening; see "
                        f"{cfg.run_dir}/shard-{index}.log"
                    )
                if time.monotonic() > deadline:
                    self.terminate()
                    raise RuntimeError(
                        f"shard {index} socket {sock} never appeared "
                        f"within {STARTUP_TIMEOUT_S}s"
                    )
                time.sleep(0.05)
            self.backends.append(
                BackendSpec(index=index, socket_path=sock)
            )
        return self.backends

    def router_config(self) -> RouterConfig:
        cfg = self.config
        return RouterConfig(
            backends=list(self.backends),
            socket_path=cfg.socket_path,
            host=cfg.host,
            port=cfg.port,
            registry_dir=cfg.registry_dir,
        )

    async def run(self) -> List[int]:
        """Router foreground loop until a graceful drain; returns the
        shards' exit codes."""
        with closing(MetricsLogger(self.config.metrics_path)) as metrics:
            self.router = ClusterRouter(self.router_config(), metrics=metrics)
            try:
                await run_until_shutdown(self.router)
            finally:
                codes = self.wait()
        return codes

    def wait(self, timeout_s: float = 30.0) -> List[int]:
        """Wait for shard processes to exit (router drain asked them to)."""
        codes: List[int] = []
        deadline = time.monotonic() + timeout_s
        for proc in self.processes:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                codes.append(proc.wait(timeout=remaining))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    codes.append(proc.wait(timeout=5.0))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    codes.append(proc.wait())
        return codes

    def terminate(self) -> None:
        """Hard stop every shard (error paths; drain uses ``wait``)."""
        for proc in self.processes:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.processes:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
