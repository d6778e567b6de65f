"""One function runs every batch of jobs: :func:`run_jobs`.

The DSE engine's seeds, soak's shards and a study's evaluation batches
all call it.  The contracts they rely on:

* **The serial rule.** With ``workers <= 1`` or a single job the batch
  runs in the calling process, one ``jobs.job`` span per job; no
  pickling, and no preemption — ``timeout_s`` is ignored there.  A pool
  only pays when more than one worker can overlap more than one job.
* **The process pool.** Otherwise the jobs go to a
  ``ProcessPoolExecutor``; each job's deadline is ``timeout_s`` after
  submission.  A sandbox without multiprocessing primitives
  (``OSError``) degrades to the serial path and emits
  ``pool_unavailable``.  Once a batch with a timed-out job is collected
  the pool's workers are killed, so a job that never returns cannot keep
  the process alive.
* **Submission-order outcomes.** One :class:`JobOutcome` per job, in the
  order given, never completion order — merges downstream are
  deterministic for any worker count.
* **No exceptions for failed jobs.** A crash or a timeout is a recorded
  outcome; the caller decides what a failed batch means (``EngineError``,
  ``SoakError``, ``SearchError``, ``ServeError``).

Observability: a ``jobs.run`` span around the batch, and the JSONL
events ``job_batch_start``, ``job_done`` / ``job_failed`` /
``job_timeout`` per job, and ``job_batch_end``.  A job's ``wall_s`` is
its own run time, measured where it ran; ``execute_s`` is their sum and
``schedule_s`` the wall-clock the workers did not spend executing
(``wall_s - execute_s / processes``).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator, List, Optional, Sequence

from ..profile.tracer import span


@dataclass
class JobOutcome:
    """What happened to one job."""

    index: int
    payload: Any
    result: Any = None
    error: Optional[str] = None
    timed_out: bool = False
    wall_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None and not self.timed_out


def _timed(fn: Callable[[Any], Any], payload: Any):
    """``(fn(payload), seconds)``, timed in the worker that runs it."""
    t0 = perf_counter()
    result = fn(payload)
    return result, perf_counter() - t0


def _serial(fn: Callable[[Any], Any], jobs: Sequence[Any]) -> Iterator[JobOutcome]:
    for index, payload in enumerate(jobs):
        t0 = perf_counter()
        try:
            with span("jobs.job", index=index):
                result = fn(payload)
        except Exception as exc:
            yield JobOutcome(
                index, payload, error=str(exc), wall_s=perf_counter() - t0
            )
        else:
            yield JobOutcome(
                index, payload, result=result, wall_s=perf_counter() - t0
            )


def _collect(
    pool: ProcessPoolExecutor,
    futures: list,
    jobs: Sequence[Any],
    timeout_s: Optional[float],
) -> Iterator[JobOutcome]:
    started = perf_counter()
    timed_out = False
    try:
        for index, (payload, future) in enumerate(zip(jobs, futures)):
            remaining = None
            if timeout_s is not None:
                remaining = max(0.0, started + timeout_s - perf_counter())
            try:
                result, seconds = future.result(timeout=remaining)
            except FutureTimeoutError:
                timed_out = True
                yield JobOutcome(
                    index, payload, error=f"timed out after {timeout_s}s",
                    timed_out=True,
                )
            except Exception as exc:
                yield JobOutcome(index, payload, error=str(exc))
            else:
                yield JobOutcome(index, payload, result=result, wall_s=seconds)
    finally:
        # A worker still busy now is running a job nobody will collect;
        # interpreter exit would join it, however long it runs.
        workers = list((pool._processes or {}).values()) if timed_out else []
        pool.shutdown(wait=not timed_out, cancel_futures=timed_out)
        for process in workers:
            process.kill()
            process.join()


def run_jobs(
    fn: Callable[[Any], Any],
    jobs: Sequence[Any],
    *,
    workers: int,
    timeout_s: Optional[float] = None,
    metrics: Any = None,
    name: str,
    label_fn: Optional[Callable[[Any], Any]] = None,
) -> List[JobOutcome]:
    """Run ``fn(job)`` for every job; one outcome per job, in order.

    ``fn`` and the jobs must pickle when a pool may run them.
    ``label_fn(job)`` names a job in metrics events (default None).
    """
    jobs = list(jobs)
    label = label_fn or (lambda job: None)

    def emit(event: str, **fields: Any) -> None:
        if metrics is not None:
            metrics.emit(event, runner=name, **fields)

    started = perf_counter()
    emit("job_batch_start", jobs=len(jobs), workers=workers)
    outcomes: List[JobOutcome] = []
    with span("jobs.run", runner=name, jobs=len(jobs)):
        mode, processes, stream = "serial", 1, _serial(fn, jobs)
        if workers > 1 and len(jobs) > 1:
            try:
                pool = ProcessPoolExecutor(max_workers=min(workers, len(jobs)))
                futures = [pool.submit(_timed, fn, job) for job in jobs]
            except OSError:
                mode = "serial-fallback"
                emit("pool_unavailable", workers=workers)
            else:
                mode, processes = "pool", min(workers, len(jobs))
                stream = _collect(pool, futures, jobs, timeout_s)
        for out in stream:
            outcomes.append(out)
            job = label(out.payload)
            if out.ok:
                emit("job_done", job=job, index=out.index,
                     wall_s=round(out.wall_s, 6))
            else:
                emit("job_timeout" if out.timed_out else "job_failed",
                     job=job, index=out.index, error=out.error)

    wall_s = perf_counter() - started
    execute_s = sum(o.wall_s for o in outcomes)
    ok = sum(1 for o in outcomes if o.ok)
    emit(
        "job_batch_end", jobs=len(jobs), ok=ok, failed=len(jobs) - ok,
        mode=mode, wall_s=round(wall_s, 6), execute_s=round(execute_s, 6),
        schedule_s=round(max(0.0, wall_s - execute_s / processes), 6),
    )
    return outcomes
