"""Parallel DSE orchestration with persistent caching and checkpointing.

The headline results all funnel through one search driver
(:func:`repro.search.run_search`, the annealer by default); this package
turns those searches into *jobs*: one study per seed, run in parallel
across seeds with per-worker fault isolation, answered from a
content-addressed on-disk artifact store when the inputs are unchanged,
resumable from the per-seed studies kept in that same store, and
instrumented with a structured metrics stream.
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
    run_seed_job,
)
from .store import ArtifactStore, StoreStats, TieredCache
