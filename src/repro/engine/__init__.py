"""Parallel DSE orchestration with persistent caching and checkpointing.

The headline results all funnel through the simulated-annealing explorer;
this package turns those explorations into *jobs*: run in parallel across
seeds with per-worker fault isolation, answered from a content-addressed
on-disk artifact store when the inputs are unchanged, checkpointed so an
interrupted run resumes where it stopped, and instrumented with a
structured metrics stream.
"""

from .hashing import (
    CODE_SCHEMA_VERSION,
    canonicalize,
    config_fingerprint,
    fingerprint,
    job_key,
    workload_fingerprint,
)
from .metrics import EngineStats, MetricsLogger, RunMetrics
from .orchestrator import (
    DEFAULT_CHECKPOINT_EVERY,
    DseEngine,
    EngineError,
    EngineResult,
    SeedJob,
    SeedOutcome,
    checkpoint_key,
    load_checkpoint,
    run_seed_job,
)
from .store import ArtifactStore, StoreStats, TieredCache

__all__ = [
    "ArtifactStore",
    "CODE_SCHEMA_VERSION",
    "DEFAULT_CHECKPOINT_EVERY",
    "DseEngine",
    "EngineError",
    "EngineResult",
    "EngineStats",
    "MetricsLogger",
    "RunMetrics",
    "SeedJob",
    "SeedOutcome",
    "StoreStats",
    "TieredCache",
    "canonicalize",
    "checkpoint_key",
    "config_fingerprint",
    "fingerprint",
    "job_key",
    "load_checkpoint",
    "run_seed_job",
    "workload_fingerprint",
]
