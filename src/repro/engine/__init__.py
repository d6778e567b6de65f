"""Persistence and telemetry under the DSE, search and serve tiers.

* :mod:`~repro.engine.hashing` — content hashes of workloads, configs and
  jobs (the store keys);
* :mod:`~repro.engine.store` — the content-addressed on-disk
  :class:`ArtifactStore` and the memory → disk :class:`TieredCache`;
* :mod:`~repro.engine.registry` — named, versioned overlays on that store;
* :mod:`~repro.engine.metrics` — the structured event stream.

The multi-seed DSE driver built on them is
:class:`repro.search.DseEngine`.
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
from .registry import OverlayRegistry, RegistryError, split_spec, version_key
from .store import ArtifactStore, StoreStats, TieredCache
