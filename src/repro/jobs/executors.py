"""Pluggable executors for the job runtime.

All executors share one contract: ``execute(fn, pending, ...)`` yields a
:class:`~repro.jobs.runner.JobOutcome` per ``(index, payload)`` pair, in
submission order, isolating per-job faults (a crash becomes a recorded
failure, never an exception out of the loop).  Yielding in submission
order — not completion order — keeps every downstream event stream and
merge deterministic regardless of worker scheduling.

Two executors plus a pool factory:

* :class:`InProcessExecutor` — serial, in the calling process.  No
  pickling, no preemption: ``timeout_s`` cannot interrupt a running job
  and is ignored (documented engine behaviour since PR 4).
* :class:`ProcessPoolJobExecutor` — ``ProcessPoolExecutor``-backed with
  per-job wall-clock deadlines.  Owns *the* serial-fallback rule
  (``workers <= 1 or len(jobs) <= 1`` → run in-process) that the DSE
  engine and soak previously each hand-rolled, and degrades to the
  serial path when the sandbox offers no multiprocessing primitives
  (``OSError``).

:func:`make_worker_pool` is the same process-else-thread fallback for
subsystems that need a long-lived ``concurrent.futures`` executor (the
serve compute pool) rather than batch semantics.
"""

from __future__ import annotations

from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from time import perf_counter
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple

from ..profile.tracer import span
from .runner import JobOutcome

#: ``(index, payload)`` pairs as handed to an executor.
PendingJobs = Sequence[Tuple[int, Any]]


class InProcessExecutor:
    """Run every job serially in the calling process.

    The reference executor: no pickling (payloads that cannot cross a
    process boundary still run), exceptions recorded per job, and — by
    construction — identical results to any correct parallel executor.
    """

    kind = "in-process"
    workers = 1

    def __init__(self) -> None:
        self.last_mode = "serial"

    def execute(
        self,
        fn: Callable[[Any], Any],
        pending: PendingJobs,
        *,
        timeout_s: Optional[float] = None,
        fail_fast: bool = False,
    ) -> Iterator[JobOutcome]:
        # timeout_s is ignored: an in-process job cannot be preempted.
        self.last_mode = "serial"
        items = list(pending)
        for pos, (index, payload) in enumerate(items):
            t0 = perf_counter()
            try:
                with span("jobs.job", index=index):
                    result = fn(payload)
            except Exception as exc:
                yield JobOutcome(
                    index=index, payload=payload, result=None,
                    error=str(exc), wall_s=perf_counter() - t0,
                )
                if fail_fast:
                    for later_index, later_payload in items[pos + 1:]:
                        yield JobOutcome(
                            index=later_index, payload=later_payload,
                            result=None, error="cancelled (fail policy)",
                        )
                    return
                continue
            yield JobOutcome(
                index=index, payload=payload, result=result,
                wall_s=perf_counter() - t0,
            )


class ProcessPoolJobExecutor:
    """Worker-process pool with deadlines and the serial-fallback rule."""

    kind = "process-pool"

    def __init__(self, workers: int) -> None:
        self.workers = max(0, int(workers))
        self.last_mode = "serial"
        self._serial = InProcessExecutor()

    def execute(
        self,
        fn: Callable[[Any], Any],
        pending: PendingJobs,
        *,
        timeout_s: Optional[float] = None,
        fail_fast: bool = False,
    ) -> Iterator[JobOutcome]:
        items = list(pending)
        # THE serial-fallback rule (owned here, nowhere else): a pool
        # only pays when more than one worker can overlap more than one
        # job.  Every consumer inherits exactly this threshold.
        if self.workers <= 1 or len(items) <= 1:
            self.last_mode = "serial"
            yield from self._serial.execute(
                fn, items, timeout_s=timeout_s, fail_fast=fail_fast
            )
            return
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(self.workers, len(items))
            )
            futures = [
                (index, payload, pool.submit(fn, payload))
                for index, payload in items
            ]
        except OSError:
            # No usable multiprocessing primitives (restricted
            # sandboxes) — degrade to the serial path.
            self.last_mode = "serial-fallback"
            yield from self._serial.execute(
                fn, items, timeout_s=timeout_s, fail_fast=fail_fast
            )
            return
        self.last_mode = "pool"
        # Every job's clock starts at submission, so a shared deadline of
        # started + timeout_s bounds each job's wall-clock individually.
        started = perf_counter()
        timed_out_any = False
        cancel_rest = False
        try:
            for index, payload, future in futures:
                if cancel_rest:
                    future.cancel()
                    try:
                        value = future.result(timeout=0)
                    except FutureTimeoutError:
                        yield JobOutcome(
                            index=index, payload=payload, result=None,
                            error="cancelled (fail policy)",
                        )
                        continue
                    except Exception as exc:
                        yield JobOutcome(
                            index=index, payload=payload, result=None,
                            error=str(exc),
                        )
                        continue
                    yield JobOutcome(
                        index=index, payload=payload, result=value,
                        wall_s=perf_counter() - started,
                    )
                    continue
                remaining: Optional[float] = None
                if timeout_s is not None:
                    remaining = max(0.0, started + timeout_s - perf_counter())
                try:
                    value = future.result(timeout=remaining)
                except FutureTimeoutError:
                    future.cancel()
                    timed_out_any = True
                    outcome = JobOutcome(
                        index=index, payload=payload, result=None,
                        error=f"timed out after {timeout_s}s",
                        timed_out=True,
                    )
                except Exception as exc:
                    outcome = JobOutcome(
                        index=index, payload=payload, result=None,
                        error=str(exc),
                    )
                else:
                    outcome = JobOutcome(
                        index=index, payload=payload, result=value,
                        wall_s=perf_counter() - started,
                    )
                yield outcome
                if not outcome.ok and fail_fast:
                    cancel_rest = True
        finally:
            # On a timeout, don't join hung workers — cancel whatever is
            # still queued and let the orphaned process die on its own.
            abandon = timed_out_any or cancel_rest
            pool.shutdown(wait=not abandon, cancel_futures=abandon)


def make_worker_pool(
    workers: int,
    on_fallback: Optional[Callable[[int], None]] = None,
    thread_name_prefix: str = "jobs-worker",
) -> Tuple[Executor, str]:
    """A long-lived ``concurrent.futures`` pool with the shared fallback.

    Process pool when ``workers > 0`` and the sandbox allows
    subprocesses; otherwise an in-process thread pool (``workers == 0``
    explicitly requests threads — used by tests and async servers that
    monkeypatch the worker entry point).  Returns ``(executor, kind)``
    where kind is ``"process"`` or ``"thread"``.
    """
    if workers > 0:
        try:
            return ProcessPoolExecutor(max_workers=workers), "process"
        except OSError:
            if on_fallback is not None:
                on_fallback(workers)
    return (
        ThreadPoolExecutor(
            max_workers=max(1, workers or 1),
            thread_name_prefix=thread_name_prefix,
        ),
        "thread",
    )
