"""Structured event/metrics stream for engine runs.

Every engine job emits typed events — ``run_start``, ``cache_hit``,
``run_end`` / ``run_failed`` — through a :class:`MetricsLogger`;
per-seed completion, timeout and failure are the :mod:`repro.jobs`
runtime's ``job_done`` / ``job_cached`` / ``job_timeout`` /
``job_failed`` events with ``runner="engine.seeds"`` (soak shards:
``runner="soak.shards"``), and each seed's study adds ``study_start`` /
``study_batch`` / ``study_end`` to the JSONL file (every evaluated point
itself is a ``Trial`` in the stored study).  The most recent
:data:`EVENT_BUFFER` events are kept in memory for programmatic
inspection and, when a path is given, every event is appended as JSON
Lines so external tooling can tail a long DSE.

:class:`EngineStats` aggregates across jobs (cache hits/misses, DSE
iterations actually executed, worker crashes, wall vs modeled time); the
``repro dse`` CLI and the benchmark session summary print it, and
EXPERIMENTS.md's "Engine" section renders it.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional

#: In-memory events a logger retains: a server emits one per request for
#: as long as it lives, so the buffer keeps only the most recent ones.
EVENT_BUFFER = 16384


class MetricsLogger:
    """Collects engine events; optionally mirrors them to a JSONL file."""

    def __init__(self, path: Optional[str] = None) -> None:
        self.path = path
        self.events: Deque[Dict[str, Any]] = deque(maxlen=EVENT_BUFFER)

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        record = {"event": event, "time": time.time(), **fields}
        self.events.append(record)
        if self.path:
            with open(self.path, "a") as f:
                f.write(json.dumps(record, sort_keys=True) + "\n")
        return record

    def of_type(self, event: str) -> List[Dict[str, Any]]:
        return [e for e in self.events if e["event"] == event]


@dataclass
class RunMetrics:
    """Summary of one engine job (one workload set, N seeds)."""

    key: str
    name: str
    seeds: List[int]
    jobs: int
    cache_hit: bool
    cache_tier: str            # "memory" | "disk" | "miss"
    wall_seconds: float = 0.0
    modeled_seconds: float = 0.0
    iterations: int = 0        # DSE iterations actually executed
    accepted: int = 0
    objective: float = 0.0
    best_seed: Optional[int] = None
    crashed_seeds: List[int] = field(default_factory=list)
    timed_out_seeds: List[int] = field(default_factory=list)
    resumed_seeds: List[int] = field(default_factory=list)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.iterations if self.iterations else 0.0

    @property
    def iterations_per_second(self) -> float:
        return self.iterations / self.wall_seconds if self.wall_seconds else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "key": self.key,
            "name": self.name,
            "seeds": self.seeds,
            "jobs": self.jobs,
            "cache_hit": self.cache_hit,
            "cache_tier": self.cache_tier,
            "wall_seconds": self.wall_seconds,
            "modeled_seconds": self.modeled_seconds,
            "iterations": self.iterations,
            "accepted": self.accepted,
            "acceptance_rate": self.acceptance_rate,
            "iterations_per_second": self.iterations_per_second,
            "objective": self.objective,
            "best_seed": self.best_seed,
            "crashed_seeds": self.crashed_seeds,
            "timed_out_seeds": self.timed_out_seeds,
            "resumed_seeds": self.resumed_seeds,
        }


@dataclass
class EngineStats:
    """Aggregate counters across every job one engine instance ran."""

    jobs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    iterations_run: int = 0    # zero on a fully warm cache
    seeds_run: int = 0
    worker_crashes: int = 0
    resumes: int = 0
    wall_seconds: float = 0.0
    modeled_seconds: float = 0.0

    def absorb(self, metrics: RunMetrics) -> None:
        self.jobs += 1
        if metrics.cache_hit:
            self.cache_hits += 1
        else:
            self.cache_misses += 1
        self.iterations_run += metrics.iterations
        if not metrics.cache_hit:
            self.seeds_run += len(metrics.seeds) - len(metrics.crashed_seeds)
        self.worker_crashes += len(metrics.crashed_seeds)
        self.resumes += len(metrics.resumed_seeds)
        self.wall_seconds += metrics.wall_seconds
        self.modeled_seconds += metrics.modeled_seconds

    def summary(self) -> str:
        rate = (
            self.iterations_run / self.wall_seconds
            if self.wall_seconds
            else 0.0
        )
        return (
            f"engine: {self.jobs} jobs, {self.cache_hits} cache hits / "
            f"{self.cache_misses} misses, {self.iterations_run} DSE "
            f"iterations in {self.wall_seconds:.1f}s wall "
            f"({rate:.0f} it/s), {self.modeled_seconds / 3600.0:.1f}h "
            f"modeled, {self.worker_crashes} worker crashes, "
            f"{self.resumes} resumes"
        )
