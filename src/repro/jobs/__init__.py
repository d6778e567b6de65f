"""repro.jobs — sharded, fault-isolated, checkpointed job runtime.

One substrate under every parallel stage of the reproduction: the DSE
engine's multi-seed batches, soak's sharded fuzz campaigns, and the
serve worker pool all run through :class:`JobRunner` + a pluggable
executor, instead of hand-rolling ``ProcessPoolExecutor`` + serial
fallback + fault isolation + checkpoints three times.

Layout:

* :mod:`~repro.jobs.plan` — :class:`ShardPlan`, the deterministic,
  shard-count-invariant work split.
* :mod:`~repro.jobs.runner` — :class:`JobRunner`, :class:`FaultPolicy`,
  :class:`Checkpointing`, :class:`JobOutcome`, and the ``job_*``
  metrics / ``jobs.*`` span plumbing.
* :mod:`~repro.jobs.executors` — :class:`InProcessExecutor`,
  :class:`ProcessPoolJobExecutor` (owner of the one serial-fallback
  rule), and :func:`make_worker_pool` for long-lived pools.

Parallelism flag convention (mirrored by the CLI): ``--workers`` is how
many OS processes execute jobs (an execution detail — never changes
results); ``--shards`` is how work is split (also result-invariant by
the ShardPlan contract).
"""

from .executors import (
    InProcessExecutor,
    ProcessPoolJobExecutor,
    make_worker_pool,
)
from .plan import Shard, ShardPlan
from .runner import (
    Checkpointing,
    FaultPolicy,
    JobOutcome,
    JobRunner,
    JobsError,
    JobsFailedError,
)

__all__ = [
    "Checkpointing",
    "FaultPolicy",
    "InProcessExecutor",
    "JobOutcome",
    "JobRunner",
    "JobsError",
    "JobsFailedError",
    "ProcessPoolJobExecutor",
    "Shard",
    "ShardPlan",
    "make_worker_pool",
]
