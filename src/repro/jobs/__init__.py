"""repro.jobs — how work is split and how a batch of it runs.

* :mod:`~repro.jobs.plan` — :class:`ShardPlan`, the deterministic,
  shard-count-invariant work split.
* :mod:`~repro.jobs.runner` — :func:`run_jobs`, the one batch runner
  (serial rule, process pool with per-job deadlines, ``job_*`` events and
  ``jobs.*`` spans), and the :class:`JobOutcome` it returns per job.
* :mod:`~repro.jobs.loop_worker` — :class:`LoopWorker`, one long-lived
  worker process driven from an asyncio loop (the serve tier's workers).

Parallelism flag convention (mirrored by the CLI): ``--workers`` is how
many OS processes execute jobs (an execution detail — never changes
results); ``--shards`` is how work is split (also result-invariant by
the ShardPlan contract).
"""

from .plan import ShardPlan
from .runner import JobOutcome, run_jobs
