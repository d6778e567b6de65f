"""The job runner: one batch loop for every sharded subsystem.

:class:`JobRunner` executes a batch of jobs through a pluggable executor
(see :mod:`repro.jobs.executors`) under a declarative
:class:`FaultPolicy`, with optional store-backed checkpoint/resume
(:class:`Checkpointing`) and unified observability: a ``jobs.run`` span
wrapping the batch (with per-job ``jobs.job`` spans on the serial path)
plus ``job_*`` JSONL metrics events that split wall-clock into
*scheduling* (resume scans, submission, result collection bookkeeping)
and *execution* (time inside jobs) so ``repro bench --compare`` can
attribute overhead.

The contracts every consumer (DSE engine, soak, serve) relies on:

* **Submission-order outcomes.** ``run`` returns one
  :class:`JobOutcome` per job, in the order the jobs were given — never
  completion order — so downstream event streams and merges are
  deterministic for any worker count.
* **Fault isolation.** A crashing or timed-out job becomes a recorded
  failure on its outcome; under the default ``degrade`` policy the rest
  of the batch still runs.  ``mode="fail"`` cancels the remainder after
  the first failure and raises.  If *every* job fails (and nothing was
  resumed from checkpoint) the batch raises regardless of mode unless
  ``all_failed_raises=False`` — consumers that want their own domain
  error (``EngineError``, ``SoakError``) pass ``False`` and inspect the
  outcomes.
* **Checkpoint/resume.** With :class:`Checkpointing`, each successful
  job result is pickled into an :class:`~repro.engine.store.ArtifactStore`
  under ``key_fn(job)``; with ``resume=True`` cached results are
  answered without re-execution.  Keys must be derived from
  work-content fingerprints that exclude worker/shard counts, so a
  campaign can resume under a different parallelism layout.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..profile.tracer import span


class JobsError(Exception):
    """Base error for the job runtime."""


class JobsFailedError(JobsError):
    """A batch failed as a whole; ``outcomes`` holds per-job detail."""

    def __init__(self, message: str, outcomes: Sequence["JobOutcome"] = ()):
        super().__init__(message)
        self.outcomes = list(outcomes)


@dataclass(frozen=True)
class FaultPolicy:
    """What the runner does when a job crashes or times out.

    ``mode="degrade"`` records the failure and keeps going (coverage
    degrades); ``mode="fail"`` cancels the rest of the batch after the
    first failure and raises :class:`JobsFailedError`.  ``timeout_s``
    bounds each job's wall-clock on executors that can preempt (the
    process pool; the in-process executor documents that it cannot).
    ``all_failed_raises`` controls the universal backstop: a batch where
    every executed job failed and nothing came from checkpoint raises
    even under ``degrade``.
    """

    mode: str = "degrade"
    timeout_s: Optional[float] = None
    all_failed_raises: bool = True

    def __post_init__(self) -> None:
        if self.mode not in ("degrade", "fail"):
            raise ValueError(
                f"FaultPolicy.mode must be 'degrade' or 'fail', "
                f"got {self.mode!r}"
            )


@dataclass
class JobOutcome:
    """What happened to one job."""

    index: int
    payload: Any
    result: Any = None
    error: Optional[str] = None
    timed_out: bool = False
    cached: bool = False
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and not self.timed_out


@dataclass
class Checkpointing:
    """Store-backed checkpoint/resume for a batch.

    ``store`` is duck-typed to :class:`~repro.engine.store.ArtifactStore`
    (``get``/``put``).  ``key_fn(job)`` names each job's artifact —
    derive it from a content fingerprint that excludes worker/shard
    counts.  ``meta_fn(job, result)`` supplies the human-auditable
    sidecar; ``validate_fn(cached)`` rejects stale/foreign cache hits
    (return ``False`` to recompute).
    """

    store: Any
    key_fn: Callable[[Any], str]
    meta_fn: Optional[Callable[[Any, Any], Dict[str, Any]]] = None
    validate_fn: Optional[Callable[[Any], bool]] = None

    def load(self, job: Any) -> Any:
        """The cached result for ``job``, or None."""
        cached = self.store.get(self.key_fn(job))
        if cached is not None and self.validate_fn is not None:
            if not self.validate_fn(cached):
                return None
        return cached

    def save(self, job: Any, result: Any) -> None:
        # Normalize through one pickle round-trip before storing: a
        # result that crossed a worker-process boundary has a different
        # memo/sharing graph than the same value built in-process, and
        # would pickle to different bytes.  The round-trip is idempotent,
        # so serial and pool paths land on identical artifacts.
        result = pickle.loads(pickle.dumps(result))
        meta = self.meta_fn(job, result) if self.meta_fn else None
        self.store.put(self.key_fn(job), result, meta=meta)


@dataclass
class JobRunner:
    """Run a batch of jobs through ``executor`` under ``policy``."""

    executor: Any
    policy: FaultPolicy = field(default_factory=FaultPolicy)
    metrics: Any = None
    name: str = "jobs"

    def _emit(self, event: str, **fields: Any) -> None:
        if self.metrics is not None:
            self.metrics.emit(event, **fields)

    def run(
        self,
        fn: Callable[[Any], Any],
        jobs: Sequence[Any],
        *,
        checkpoint: Optional[Checkpointing] = None,
        resume: bool = False,
        label_fn: Optional[Callable[[Any], Any]] = None,
    ) -> List[JobOutcome]:
        """Execute ``fn(job)`` for every job; one outcome per job, in order.

        ``label_fn(job)`` names a job in metrics events (defaults to its
        index).
        """
        jobs = list(jobs)
        label = label_fn or (lambda job: None)
        started = perf_counter()
        execute_s = 0.0
        self._emit(
            "job_batch_start", runner=self.name, jobs=len(jobs),
            executor=getattr(self.executor, "kind", "unknown"),
        )
        with span("jobs.run", runner=self.name, jobs=len(jobs)):
            outcomes: Dict[int, JobOutcome] = {}
            pending: List[Any] = []
            if checkpoint is not None and resume:
                for index, job in enumerate(jobs):
                    cached = checkpoint.load(job)
                    if cached is None:
                        pending.append((index, job))
                        continue
                    outcomes[index] = JobOutcome(
                        index=index, payload=job, result=cached, cached=True
                    )
                    self._emit(
                        "job_cached", runner=self.name, job=label(job),
                        index=index,
                    )
            else:
                pending = list(enumerate(jobs))

            failed_fast = False
            for outcome in self.executor.execute(
                fn, pending,
                timeout_s=self.policy.timeout_s,
                fail_fast=self.policy.mode == "fail",
            ):
                outcomes[outcome.index] = outcome
                execute_s += outcome.wall_s
                job_name = label(outcome.payload)
                if outcome.ok:
                    if checkpoint is not None:
                        checkpoint.save(outcome.payload, outcome.result)
                    self._emit(
                        "job_done", runner=self.name, job=job_name,
                        index=outcome.index,
                        wall_s=round(outcome.wall_s, 6),
                    )
                elif outcome.timed_out:
                    failed_fast = failed_fast or self.policy.mode == "fail"
                    self._emit(
                        "job_timeout", runner=self.name, job=job_name,
                        index=outcome.index, error=outcome.error,
                    )
                else:
                    failed_fast = failed_fast or self.policy.mode == "fail"
                    self._emit(
                        "job_failed", runner=self.name, job=job_name,
                        index=outcome.index, error=outcome.error,
                    )

        ordered = [outcomes[i] for i in sorted(outcomes)]
        wall_s = perf_counter() - started
        self._emit(
            "job_batch_end", runner=self.name, jobs=len(jobs),
            ok=sum(1 for o in ordered if o.ok),
            cached=sum(1 for o in ordered if o.cached),
            failed=sum(1 for o in ordered if not o.ok),
            mode=getattr(self.executor, "last_mode", "unknown"),
            wall_s=round(wall_s, 6),
            execute_s=round(execute_s, 6),
            schedule_s=round(max(0.0, wall_s - execute_s), 6),
        )

        failures = [o for o in ordered if not o.ok]
        if failed_fast and failures:
            first = failures[0]
            raise JobsFailedError(
                f"{self.name}: job {first.index} failed under fail "
                f"policy: {first.error}",
                ordered,
            )
        survivors = [o for o in ordered if o.ok]
        if jobs and not survivors and self.policy.all_failed_raises:
            detail = "; ".join(
                f"#{o.index}: {o.error}" for o in failures[:4]
            )
            raise JobsFailedError(
                f"{self.name}: all {len(jobs)} jobs failed: {detail}",
                ordered,
            )
        return ordered
