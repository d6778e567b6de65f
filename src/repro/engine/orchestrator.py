"""The DSE engine: parallel multi-seed orchestration over the study runner.

One engine *job* is "the best overlay for this workload set under this
config, searched from each of these seeds".  Which strategy searches is
data (:class:`~repro.search.SearchSettings`; default: the annealer for
``config.iterations`` trials) — there is one driver.  The engine:

* answers from its :class:`~repro.engine.store.TieredCache` — memory,
  then the persistent artifact store (key = content hash of workloads +
  config + seeds + strategy/trials/batch + schema version);
* on a miss, runs one :func:`repro.search.run_search` study per seed
  through the shared :mod:`repro.jobs` runtime — a worker-process pool
  when ``workers > 1`` and there are several seeds (the
  :class:`~repro.jobs.ProcessPoolJobExecutor` serial-fallback rule
  applies; one seed hands ``workers`` to its study's batch evaluation
  instead) — and keeps the best objective (ties broken toward the lowest
  seed, so the winner is independent of completion order);
* isolates faults per seed via the runtime's
  :class:`~repro.jobs.FaultPolicy`: a crashed worker is recorded and
  the job degrades to the best of the survivors (it only fails when
  *every* seed fails);
* keeps no checkpoint store of its own: each seed's study, saved to the
  engine's artifact store every ``checkpoint_every`` trials, *is* the
  resumable state (``repro study list`` shows it), and ``resume=True``
  continues interrupted seeds from it — bit-identical to a run that
  never stopped;
* emits structured events/metrics (iterations/sec, acceptance rate,
  cache tier, wall vs modeled time) through :class:`MetricsLogger`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from time import perf_counter, sleep
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..dse import DseConfig, DseResult
from ..jobs import FaultPolicy, JobOutcome, JobRunner, ProcessPoolJobExecutor
from ..ir import Workload
from .hashing import CODE_SCHEMA_VERSION, job_key
from .metrics import EngineStats, MetricsLogger, RunMetrics
from .store import ArtifactStore, TieredCache

if TYPE_CHECKING:  # repro.search sits on this package; import it lazily
    from ..search import SearchOutcome, SearchSettings

#: Default checkpoint cadence (trials between saves of a seed's study).
DEFAULT_CHECKPOINT_EVERY = 25


class EngineError(RuntimeError):
    """Every seed of a job failed; there is no survivor to return."""


@dataclass
class SeedJob:
    """Self-contained unit of work shipped to a worker process."""

    workloads: Tuple[Workload, ...]
    config: DseConfig
    name: str
    seed: int
    settings: "SearchSettings"
    store_dir: Optional[str] = None        # ArtifactStore root, or None
    checkpoint_every: int = 0
    resume: bool = False
    metrics_path: Optional[str] = None     # the study's events go here
    inject_crash: bool = False   # fault-injection hook for tests
    inject_hang_s: float = 0.0   # hang-injection hook for timeout tests


@dataclass
class SeedOutcome:
    seed: int
    outcome: Optional["SearchOutcome"]       # None: crashed or timed out
    error: Optional[str] = None
    timed_out: bool = False


def run_seed_job(job: SeedJob) -> "SearchOutcome":
    """Run one seed's study (module-level so it pickles to workers)."""
    from ..search import run_search

    if job.inject_hang_s:
        sleep(job.inject_hang_s)
    if job.inject_crash:
        raise RuntimeError(f"injected crash (seed {job.seed})")
    return run_search(
        job.workloads,
        replace(job.config, seed=job.seed),
        replace(job.settings, seed=job.seed),
        store=ArtifactStore(job.store_dir) if job.store_dir else None,
        metrics=MetricsLogger(job.metrics_path) if job.metrics_path else None,
        resume=job.resume,
        rebuild_best=True,
        name=job.name,
        checkpoint_every=job.checkpoint_every,
    )


def _progress(outcome: "SearchOutcome") -> Tuple[int, int, float]:
    """``(iterations, accepted, modeled seconds)`` of one seed's study:
    the strategy's own accounting when it returns a ``DseResult``, else
    trials evaluated / feasible / their summed modeled cost."""
    if outcome.dse_result is not None:
        stats = outcome.dse_result.stats
        return (
            stats.iterations, stats.accepted, outcome.dse_result.modeled_seconds
        )
    trials = outcome.study.trials
    return (
        len(trials),
        len(outcome.study.feasible_trials()),
        sum(t.modeled_seconds for t in trials),
    )


@dataclass
class EngineResult:
    """Best-of-seeds outcome of one engine job."""

    outcome: "SearchOutcome"     # the best seed's study, design and all
    key: str
    from_cache: bool
    metrics: RunMetrics
    outcomes: List[SeedOutcome] = field(default_factory=list)

    @property
    def result(self) -> Optional[DseResult]:
        """The annealer's ``DseResult`` (None for the other strategies)."""
        return self.outcome.dse_result

    @property
    def objective(self) -> Optional[float]:
        return self.outcome.objective


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
        #: cannot preempt a running study and ignores it.
        self.seed_timeout = seed_timeout
        self.metrics = metrics if metrics is not None else MetricsLogger()
        self.checkpoint_every = checkpoint_every
        self.stats = EngineStats()
        #: The one store: job results *and* the per-seed studies.
        self.store = ArtifactStore(cache_dir) if cache_dir else None
        self.cache = TieredCache(self.store)

    # ------------------------------------------------------------------
    def explore(
        self,
        workloads: Sequence[Workload],
        config: Optional[DseConfig] = None,
        name: str = "overlay",
        seeds: Optional[Sequence[int]] = None,
        resume: bool = False,
        settings: Optional["SearchSettings"] = None,
        inject_crash_seeds: Sequence[int] = (),
        inject_hang: Optional[Dict[int, float]] = None,
    ) -> EngineResult:
        """Best-of-seeds DSE for ``workloads``, cached and fault-isolated.

        ``settings`` picks the strategy, trial budget and batch (its
        ``seed`` / ``workers`` are set per seed job); default: the
        annealer for ``config.iterations`` trials.
        """
        from ..search import SearchSettings

        config = config or DseConfig()
        settings = settings or SearchSettings(trials=config.iterations)
        seed_list = sorted(set(seeds)) if seeds else [config.seed]
        key = job_key(
            workloads, config, seed_list,
            settings.strategy, settings.trials, settings.batch,
        )
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
            metrics.objective = cached.objective or 0.0
            metrics.modeled_seconds = _progress(cached)[2]
            self.metrics.emit(
                "cache_hit", key=key, name=name, tier=tier,
                objective=cached.objective,
            )
            self.stats.absorb(metrics)
            return EngineResult(
                outcome=cached, key=key, from_cache=True, metrics=metrics
            )

        self.metrics.emit(
            "run_start", key=key, name=name, seeds=list(seed_list),
            jobs=self.workers, iterations=config.iterations,
            strategy=settings.strategy, trials=settings.trials,
            schema=CODE_SCHEMA_VERSION,
        )
        started = perf_counter()
        outcomes = self._run_seeds(
            workloads, config, name, seed_list, key, resume, settings,
            set(inject_crash_seeds), inject_hang or {},
        )
        wall = perf_counter() - started

        survivors = [o for o in outcomes if o.outcome is not None]
        if not survivors:
            errors = "; ".join(f"seed {o.seed}: {o.error}" for o in outcomes)
            self.metrics.emit("run_failed", key=key, name=name, errors=errors)
            raise EngineError(f"all {len(outcomes)} seed workers failed: {errors}")
        # (a seed whose study found no feasible design loses to any other)
        best = max(
            survivors,
            key=lambda o: (o.outcome.objective or float("-inf"), -o.seed),
        )

        progress = [_progress(o.outcome) for o in survivors]
        metrics.wall_seconds = wall
        metrics.iterations = sum(p[0] for p in progress)
        metrics.accepted = sum(p[1] for p in progress)
        metrics.modeled_seconds = _progress(best.outcome)[2]
        metrics.objective = best.outcome.objective or 0.0
        metrics.best_seed = best.seed
        metrics.crashed_seeds = [o.seed for o in outcomes if o.outcome is None]
        metrics.timed_out_seeds = [o.seed for o in outcomes if o.timed_out]
        metrics.resumed_seeds = [o.seed for o in survivors if o.outcome.resumed]
        self.stats.absorb(metrics)
        self.metrics.emit("run_end", **metrics.as_dict())

        self.cache.put(
            key,
            best.outcome,
            meta={
                "name": name,
                "workloads": [w.name for w in workloads],
                "seeds": list(seed_list),
                "best_seed": best.seed,
                "objective": best.outcome.objective,
                "iterations": config.iterations,
                "strategy": settings.strategy,
                "trials": settings.trials,
                "schema": CODE_SCHEMA_VERSION,
            },
        )
        return EngineResult(
            outcome=best.outcome,
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
        settings: "SearchSettings",
        crash_seeds: set,
        hang_seeds: Dict[int, float],
    ) -> List[SeedOutcome]:
        # Several seeds: the pool runs seeds side by side, each study
        # serial.  One seed: its study's batch evaluation gets the workers.
        settings = replace(
            settings, workers=self.workers if len(seeds) == 1 else 1
        )
        jobs = [
            SeedJob(
                workloads=tuple(workloads),
                config=config,
                name=name,
                seed=seed,
                settings=settings,
                store_dir=self.cache_dir,
                checkpoint_every=self.checkpoint_every,
                resume=resume,
                metrics_path=self.metrics.path,
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
        return [self._to_seed_outcome(out) for out in results]

    def _to_seed_outcome(self, out: JobOutcome) -> SeedOutcome:
        error = out.error
        if out.timed_out:
            error = f"timed out after {self.seed_timeout}s (seed_timeout)"
        return SeedOutcome(
            seed=out.payload.seed,
            outcome=out.result if out.ok else None,
            error=error,
            timed_out=out.timed_out,
        )
