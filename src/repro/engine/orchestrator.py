"""The DSE engine: parallel multi-seed orchestration over the explorer.

One engine *job* is "the best overlay for this workload set under this
config, annealed from each of these seeds".  The engine:

* answers from its :class:`~repro.engine.store.TieredCache` — memory,
  then the persistent artifact store (key = content hash of workloads +
  config + seeds + schema version);
* on a miss, runs one annealer per seed through the shared
  :mod:`repro.jobs` runtime — a worker-process pool when ``workers > 1``
  (the :class:`~repro.jobs.ProcessPoolJobExecutor` serial-fallback rule
  applies), serially otherwise — and keeps the best objective (ties
  broken toward the lowest seed, so the winner is independent of
  completion order);
* isolates faults per seed via the runtime's
  :class:`~repro.jobs.FaultPolicy`: a crashed worker is recorded and
  the job degrades to the best of the survivors (it only fails when
  *every* seed fails);
* checkpoints each seed's annealer every ``checkpoint_every`` iterations
  and, with ``resume=True``, restarts interrupted seeds from their last
  snapshot — bit-identical to a run that never stopped;
* emits structured events/metrics (iterations/sec, acceptance rate,
  cache tier, wall vs modeled time) through :class:`MetricsLogger`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from time import perf_counter, sleep
from typing import Dict, List, Optional, Sequence, Tuple

from ..dse import DseConfig, DseResult, Explorer, ExplorerState
from ..jobs import FaultPolicy, JobOutcome, JobRunner, ProcessPoolJobExecutor
from ..ir import Workload
from .hashing import (
    CODE_SCHEMA_VERSION,
    config_fingerprint,
    fingerprint,
    job_key,
)
from .metrics import EngineStats, MetricsLogger, RunMetrics
from .store import ArtifactStore, TieredCache

#: Default checkpoint cadence (annealer iterations between snapshots).
DEFAULT_CHECKPOINT_EVERY = 25


class EngineError(RuntimeError):
    """Every seed of a job failed; there is no survivor to return."""


def checkpoint_key(job_key: str, seed: int) -> str:
    """Store key of one seed's snapshot.  The job key already encodes
    workloads + config + seeds, so changed inputs look under another key."""
    return fingerprint({"checkpoint": job_key, "seed": seed})


def load_checkpoint(
    store: ArtifactStore, key: str, expect_fingerprint: str = ""
) -> Optional[ExplorerState]:
    """The snapshot under ``key``, or None if absent, unreadable, not a
    snapshot, or written under another config fingerprint."""
    state = store.get(key)
    if not isinstance(state, ExplorerState):
        return None
    if expect_fingerprint and state.config_fingerprint != expect_fingerprint:
        return None
    return state


@dataclass
class SeedJob:
    """Self-contained unit of work shipped to a worker process."""

    workloads: Tuple[Workload, ...]
    config: DseConfig
    name: str
    seed: int
    checkpoint_dir: Optional[str] = None   # ArtifactStore root, or None
    checkpoint_every: int = 0
    resume: bool = False
    job_key: str = ""
    config_key: str = ""
    inject_crash: bool = False   # fault-injection hook for tests
    inject_hang_s: float = 0.0   # hang-injection hook for timeout tests


@dataclass
class SeedOutcome:
    seed: int
    result: Optional[DseResult]
    error: Optional[str] = None
    resumed: bool = False
    timed_out: bool = False


def run_seed_job(job: SeedJob) -> SeedOutcome:
    """Run one seed's annealer (module-level so it pickles to workers)."""
    if job.inject_hang_s:
        sleep(job.inject_hang_s)
    if job.inject_crash:
        raise RuntimeError(f"injected crash (seed {job.seed})")
    config = replace(job.config, seed=job.seed)
    explorer = Explorer(list(job.workloads), config, name=job.name)
    resume_state = None
    sink = None
    if job.checkpoint_dir:
        store = ArtifactStore(job.checkpoint_dir)
        key = checkpoint_key(job.job_key, job.seed)
        if job.resume:
            resume_state = load_checkpoint(store, key, job.config_key)
        if job.checkpoint_every:

            def sink(state):
                state.config_fingerprint = job.config_key
                store.put(key, state)

    result = explorer.run(
        resume=resume_state,
        checkpoint_every=job.checkpoint_every,
        checkpoint_sink=sink,
    )
    return SeedOutcome(
        seed=job.seed, result=result, resumed=resume_state is not None
    )


@dataclass
class EngineResult:
    """Best-of-seeds outcome of one engine job."""

    result: DseResult
    key: str
    from_cache: bool
    metrics: RunMetrics
    outcomes: List[SeedOutcome] = field(default_factory=list)

    @property
    def objective(self) -> float:
        return self.result.choice.objective


class DseEngine:
    """Parallel DSE orchestrator with persistent artifact caching."""

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        workers: int = 1,
        metrics: Optional[MetricsLogger] = None,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
        seed_timeout: Optional[float] = None,
    ) -> None:
        self.cache_dir = cache_dir
        self.workers = max(1, int(workers))
        #: Per-seed wall-clock budget (seconds), enforced through future
        #: deadlines on the worker-pool path: a seed that exceeds it is
        #: recorded as a failure and the job degrades to the best of the
        #: survivors.  ``None`` disables; the serial in-process path
        #: cannot preempt a running annealer and ignores it.
        self.seed_timeout = seed_timeout
        self.metrics = metrics if metrics is not None else MetricsLogger()
        self.checkpoint_every = checkpoint_every
        self.stats = EngineStats()
        self.store: Optional[ArtifactStore] = None
        #: Per-seed annealer snapshots, in a store of their own so scans
        #: of ``store.keys()`` (studies) never see them.
        self.checkpoints: Optional[ArtifactStore] = None
        if cache_dir:
            self.store = ArtifactStore(cache_dir)
            self.checkpoints = ArtifactStore(
                os.path.join(cache_dir, "checkpoints")
            )
        self.cache = TieredCache(self.store)

    # ------------------------------------------------------------------
    def explore(
        self,
        workloads: Sequence[Workload],
        config: Optional[DseConfig] = None,
        name: str = "overlay",
        seeds: Optional[Sequence[int]] = None,
        resume: bool = False,
        inject_crash_seeds: Sequence[int] = (),
        inject_hang: Optional[Dict[int, float]] = None,
    ) -> EngineResult:
        """Best-of-seeds DSE for ``workloads``, cached and fault-isolated."""
        config = config or DseConfig()
        seed_list = sorted(set(seeds)) if seeds else [config.seed]
        key = job_key(workloads, config, seed_list)
        cached, tier = self.cache.get(key)
        metrics = RunMetrics(
            key=key,
            name=name,
            seeds=list(seed_list),
            jobs=self.workers,
            cache_hit=tier != "miss",
            cache_tier=tier,
        )
        if tier != "miss":
            metrics.objective = cached.choice.objective
            metrics.modeled_seconds = cached.modeled_seconds
            self.metrics.emit(
                "cache_hit", key=key, name=name, tier=tier,
                objective=cached.choice.objective,
            )
            self.stats.absorb(metrics)
            return EngineResult(
                result=cached, key=key, from_cache=True, metrics=metrics
            )

        self.metrics.emit(
            "run_start", key=key, name=name, seeds=list(seed_list),
            jobs=self.workers, iterations=config.iterations,
            schema=CODE_SCHEMA_VERSION,
        )
        started = perf_counter()
        outcomes = self._run_seeds(
            workloads, config, name, seed_list, key, resume,
            set(inject_crash_seeds), inject_hang or {},
        )
        wall = perf_counter() - started

        survivors = [o for o in outcomes if o.result is not None]
        if not survivors:
            errors = "; ".join(f"seed {o.seed}: {o.error}" for o in outcomes)
            self.metrics.emit("run_failed", key=key, name=name, errors=errors)
            raise EngineError(f"all {len(outcomes)} seed workers failed: {errors}")
        best = max(survivors, key=lambda o: (o.result.choice.objective, -o.seed))

        metrics.wall_seconds = wall
        metrics.iterations = sum(
            o.result.stats.iterations for o in survivors
        )
        metrics.accepted = sum(o.result.stats.accepted for o in survivors)
        metrics.modeled_seconds = best.result.modeled_seconds
        metrics.objective = best.result.choice.objective
        metrics.best_seed = best.seed
        metrics.crashed_seeds = [o.seed for o in outcomes if o.result is None]
        metrics.timed_out_seeds = [o.seed for o in outcomes if o.timed_out]
        metrics.resumed_seeds = [o.seed for o in survivors if o.resumed]
        self.stats.absorb(metrics)
        self.metrics.emit("run_end", **metrics.as_dict())

        self.cache.put(
            key,
            best.result,
            meta={
                "name": name,
                "workloads": [w.name for w in workloads],
                "seeds": list(seed_list),
                "best_seed": best.seed,
                "objective": best.result.choice.objective,
                "iterations": config.iterations,
                "schema": CODE_SCHEMA_VERSION,
            },
        )
        if self.checkpoints is not None:
            for seed in seed_list:
                self.checkpoints.discard(checkpoint_key(key, seed))
        return EngineResult(
            result=best.result,
            key=key,
            from_cache=False,
            metrics=metrics,
            outcomes=outcomes,
        )

    # ------------------------------------------------------------------
    def _run_seeds(
        self,
        workloads: Sequence[Workload],
        config: DseConfig,
        name: str,
        seeds: Sequence[int],
        key: str,
        resume: bool,
        crash_seeds: set,
        hang_seeds: Dict[int, float],
    ) -> List[SeedOutcome]:
        cfg_key = config_fingerprint(config)
        ckpt_dir = str(self.checkpoints.root) if self.checkpoints else None
        jobs = [
            SeedJob(
                workloads=tuple(workloads),
                config=config,
                name=name,
                seed=seed,
                checkpoint_dir=ckpt_dir,
                checkpoint_every=self.checkpoint_every if ckpt_dir else 0,
                resume=resume,
                job_key=key,
                config_key=cfg_key,
                inject_crash=seed in crash_seeds,
                inject_hang_s=hang_seeds.get(seed, 0.0),
            )
            for seed in seeds
        ]
        executor = ProcessPoolJobExecutor(self.workers)
        runner = JobRunner(
            executor=executor,
            # all_failed_raises=False: explore() owns the all-failed
            # EngineError so its message stays bit-identical.
            policy=FaultPolicy(
                timeout_s=self.seed_timeout, all_failed_raises=False
            ),
            metrics=self.metrics,
            name="engine.seeds",
        )
        results = runner.run(
            run_seed_job,
            jobs,
            label_fn=lambda job: job.seed,
        )
        if executor.last_mode == "serial-fallback":
            self.metrics.emit("pool_unavailable", key=key)
        outcomes = [self._to_seed_outcome(out) for out in results]
        # Full resource vector for every accepted point, not just the
        # final best — the search-study importer and bench attribution
        # both read these back out of the JSONL stream.
        for outcome in outcomes:
            if outcome.result is None:
                continue
            for it, modeled_h, objective, lut, ff, bram, dsp in (
                outcome.result.points
            ):
                self.metrics.emit(
                    "dse_point",
                    seed=outcome.seed,
                    iteration=it,
                    modeled_hours=modeled_h,
                    objective=objective,
                    lut=lut,
                    ff=ff,
                    bram=bram,
                    dsp=dsp,
                )
        return outcomes

    def _to_seed_outcome(self, out: JobOutcome) -> SeedOutcome:
        if out.timed_out:
            return SeedOutcome(
                seed=out.payload.seed,
                result=None,
                error=f"timed out after {self.seed_timeout}s (seed_timeout)",
                timed_out=True,
            )
        if out.error is not None:
            return SeedOutcome(
                seed=out.payload.seed, result=None, error=out.error
            )
        return out.result
