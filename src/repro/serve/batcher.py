"""Admission control and single-flight request coalescing.

Two small, separately testable pieces the server composes:

* :class:`AdmissionGate` — a bounded in-service counter.  Every request
  the result cache misses must take a slot before it queues for a worker
  (a hit is answered first and never shed); when ``limit`` slots are
  taken the gate raises :class:`~repro.serve.errors.OverloadedError`
  *immediately* instead of queueing unboundedly.  (Shedding at the door keeps tail latency
  bounded: a client gets a structured retryable error in microseconds
  rather than a response seconds after its deadline passed.)
* :class:`SingleFlight` — a key → in-flight-task map.  The first
  request for a key becomes the *leader* and starts the compute; every
  concurrent duplicate becomes a *follower* that awaits the leader's
  task.  Followers add zero CPU work, and each waiter applies its own
  deadline via ``asyncio.shield``, so one impatient client cannot
  cancel the shared compute under the others.

Plus :class:`LatencyReservoir`, a bounded sample buffer that turns
per-request latencies into p50/p95/p99 summaries for the metrics stream.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Tuple

from .errors import OverloadedError


class AdmissionGate:
    """Bounded concurrent-request gate: admit or reject, never queue."""

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError(f"admission limit must be >= 1, got {limit}")
        self.limit = limit
        self.in_service = 0
        self.admitted = 0
        self.rejected = 0
        self.peak = 0

    def admit(self) -> None:
        if self.in_service >= self.limit:
            self.rejected += 1
            raise OverloadedError(
                f"server at capacity ({self.in_service}/{self.limit} "
                "requests in service); retry with backoff"
            )
        self.in_service += 1
        self.admitted += 1
        self.peak = max(self.peak, self.in_service)

    def release(self) -> None:
        self.in_service = max(0, self.in_service - 1)

    def as_dict(self) -> Dict[str, int]:
        return {
            "limit": self.limit,
            "in_service": self.in_service,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "peak_in_service": self.peak,
        }


class SingleFlight:
    """Coalesce concurrent identical work onto one shared task.

    ``join(key, factory)`` returns ``(task, is_leader)``.  The leader's
    ``factory()`` coroutine runs as an independent task that outlives
    any individual waiter; the entry is dropped once the task settles so
    later requests recompute (or, in the server, hit the artifact store
    the leader populated).
    """

    def __init__(self) -> None:
        self._inflight: Dict[str, "asyncio.Task[Any]"] = {}

    def join(
        self, key: str, factory: Callable[[], Awaitable[Any]]
    ) -> Tuple["asyncio.Task[Any]", bool]:
        task = self._inflight.get(key)
        if task is not None and not task.done():
            return task, False
        task = asyncio.get_running_loop().create_task(factory())
        self._inflight[key] = task
        task.add_done_callback(lambda _t, _k=key: self._forget(_k, _t))
        return task, True

    def _forget(self, key: str, task: "asyncio.Task[Any]") -> None:
        if self._inflight.get(key) is task:
            del self._inflight[key]

    def __len__(self) -> int:
        return len(self._inflight)

    async def drain(self) -> None:
        """Wait for every in-flight compute to settle (errors included)."""
        tasks = [t for t in self._inflight.values() if not t.done()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)


@dataclass
class LatencyReservoir:
    """Bounded latency sample buffer with percentile summaries.

    Keeps the most recent ``cap`` samples (overwrite-oldest), which is
    exact until ``cap`` requests and a sliding window after — fine for
    the service-level p50/p95/p99 the metrics stream reports.
    """

    cap: int = 4096
    count: int = 0
    total_s: float = 0.0
    _samples: List[float] = field(default_factory=list)

    def record(self, latency_s: float) -> None:
        self.count += 1
        self.total_s += latency_s
        if len(self._samples) < self.cap:
            self._samples.append(latency_s)
        else:
            self._samples[(self.count - 1) % self.cap] = latency_s

    def percentile(self, q: float) -> float:
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        idx = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
        return ordered[idx]

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_s": self.total_s / self.count if self.count else 0.0,
            "p50_s": self.percentile(0.50),
            "p95_s": self.percentile(0.95),
            "p99_s": self.percentile(0.99),
            "max_s": max(self._samples) if self._samples else 0.0,
        }
