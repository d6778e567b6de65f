"""Sharded, resumable differential fuzz campaigns (``repro soak``, and
``repro fuzz`` — the same campaign with one shard and no state).

A *campaign* is one contract — "draw cases ``start..budget`` from this
seed under these tolerance bands" — executed as ``shards`` independent
slices of the global case-index range.  Each shard is a self-contained
:func:`~repro.validate.runner.fuzz_run` that a worker process can
execute in isolation; the campaign layer then:

* runs shards through the shared :mod:`repro.jobs` runtime (worker
  pool with the :class:`~repro.jobs.ProcessPoolJobExecutor`
  serial-fallback rule, exactly like the DSE engine), with per-shard
  fault isolation — a crashed shard is recorded and the campaign
  degrades to the surviving shards' coverage;
* checkpoints every finished shard's :class:`FuzzStats` into an
  :class:`~repro.engine.store.ArtifactStore` keyed by the campaign
  fingerprint + shard range (via the runtime's
  :class:`~repro.jobs.Checkpointing`), so ``--resume`` answers finished
  shards from disk without recomputing them;
* merges shard results deterministically: per-case records replay in
  global index order (bit-identical float accumulation), and failures
  dedupe across shards by ``failure_key`` keeping the least witness by
  the store's :func:`~repro.validate.corpus.witness_order` — so
  ``--shards 4`` and ``--shards 1`` render byte-identical triage reports
  and leave byte-identical stores for the same seed set;
* records the deduped minimal repros, with the campaign's bands, in the
  repro store (``--corpus``) and, with ``--promote``, in a second store
  that also gets the generated pytest module
  (:mod:`repro.validate.promote`).

The campaign fingerprint deliberately excludes the shard count and
worker count: how the range was split is an execution detail, not part
of what the campaign *means*.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..engine.hashing import fingerprint
from ..engine.metrics import MetricsLogger
from ..engine.store import ArtifactStore
from ..jobs import (
    Checkpointing,
    FaultPolicy,
    JobRunner,
    ProcessPoolJobExecutor,
    ShardPlan,
)
from ..profile.tracer import span
from .corpus import DivergenceCorpus, case_key, witness_order
from .generators import case_size
from .oracle import ToleranceBands
from .promote import promote_failures
from .runner import Failure, FuzzStats, fuzz_run

#: Bump when the meaning of a stored shard result changes (FuzzStats
#: layout, generator stream, oracle outcomes) so stale checkpoints miss.
SOAK_SCHEMA_VERSION = 2


class SoakError(RuntimeError):
    """Every shard of a campaign failed; there is nothing to merge."""


@dataclass(frozen=True)
class CampaignConfig:
    """What a campaign means — independent of how it is executed."""

    budget: int = 100
    seed: int = 0
    shards: int = 1
    max_mutations: int = 6
    shrink_budget: int = 120
    bands: ToleranceBands = field(default_factory=ToleranceBands)

    def campaign_key(self) -> str:
        """Content address of the campaign contract (shard/worker counts
        excluded: they change execution, not meaning)."""
        return fingerprint(
            {
                "schema": SOAK_SCHEMA_VERSION,
                "budget": self.budget,
                "seed": self.seed,
                "max_mutations": self.max_mutations,
                "shrink_budget": self.shrink_budget,
                "bands": self.bands.to_dict(),
            }
        )

    def shard_ranges(self) -> List[Tuple[int, int]]:
        """Contiguous (start, count) slices covering ``0..budget``
        (delegates to the shared :class:`~repro.jobs.ShardPlan`)."""
        return ShardPlan(total=self.budget, shards=self.shards).ranges()


@dataclass(frozen=True)
class ShardJob:
    """Self-contained unit of work shipped to a worker process."""

    index: int
    start: int
    count: int
    seed: int
    max_mutations: int
    shrink_budget: int
    bands: ToleranceBands
    inject_crash: bool = False   # fault-injection hook for tests


@dataclass
class ShardOutcome:
    index: int
    start: int
    count: int
    stats: Optional[FuzzStats]
    error: Optional[str] = None
    cached: bool = False


def run_shard_job(job: ShardJob) -> FuzzStats:
    """Execute one shard (module-level so it pickles to workers)."""
    if job.inject_crash:
        raise RuntimeError(f"injected crash (shard {job.index})")
    return fuzz_run(
        budget=job.count,
        seed=job.seed,
        bands=job.bands,
        max_mutations=job.max_mutations,
        shrink_budget=job.shrink_budget,
        start=job.start,
    )


def _shard_store_key(campaign_key: str, start: int, count: int) -> str:
    return fingerprint(
        {
            "schema": SOAK_SCHEMA_VERSION,
            "campaign": campaign_key,
            "start": start,
            "count": count,
        }
    )


@dataclass
class SoakReport:
    """Outcome of one campaign: merged stats + deduped failure triage."""

    config: CampaignConfig
    campaign_key: str
    stats: FuzzStats                      # merged across surviving shards
    failures: List[Failure]               # deduped, failure-key sorted
    raw_failures: int                     # before cross-shard dedup
    cases_run: int
    crashed_shards: List[int] = field(default_factory=list)
    cached_shards: List[int] = field(default_factory=list)
    new_failures: int = 0
    promoted: List[str] = field(default_factory=list)
    promote_dry_run: bool = False

    @property
    def complete(self) -> bool:
        return not self.crashed_shards

    @property
    def ok(self) -> bool:
        """Nothing new and nothing missing: safe to exit 0."""
        return (
            self.complete
            and self.new_failures == 0
            and self.stats.invariant_violations == 0
        )

    def stats_doc(self) -> Dict:
        return {
            "campaign": self.campaign_key,
            "shards": self.config.shards,
            "cases_run": self.cases_run,
            "crashed_shards": list(self.crashed_shards),
            "cached_shards": list(self.cached_shards),
            "unique_failures": len(self.failures),
            "raw_failures": self.raw_failures,
            "new_failures": self.new_failures,
            "promoted": list(self.promoted),
            "promote_dry_run": self.promote_dry_run,
            **self.stats.stats_doc(),
        }

    def render(self) -> str:
        """The triage report: deterministic, timestamp-free, and
        independent of the shard split — ``--shards 4`` and ``--shards
        1`` over the same seeds produce these bytes identically.  (A
        degraded campaign shows reduced coverage, nothing else.)"""
        stats = self.stats
        lines = [
            f"soak: campaign {self.campaign_key[:16]}, seed "
            f"{self.config.seed}, budget {self.config.budget}",
            f"coverage: {self.cases_run}/{self.config.budget} cases"
            + ("" if self.complete else " (degraded: shard failures)"),
            "outcomes: "
            + ", ".join(f"{k}={v}" for k, v in sorted(stats.outcomes.items())),
            f"invariant violations: {stats.invariant_violations}",
        ]
        if stats.by_class:
            lines.append(
                f"{'class':10s} {'cases':>5s} {'pass':>6s} "
                f"{'max err':>8s} {'mean err':>8s}"
            )
            for name, s in sorted(stats.by_class.items()):
                lines.append(
                    f"{name:10s} {s.cases:5d} {s.pass_rate:6.0%} "
                    f"{s.max_rel_error:8.3f} {s.mean_rel_error:8.3f}"
                )
        lines.append(
            f"unique failures: {len(self.failures)} "
            f"({self.raw_failures} raw, "
            f"{self.raw_failures - len(self.failures)} duplicates dropped)"
        )
        for fail in self.failures:
            lines.append(
                f"  {fail.failure_key}: case {case_key(fail.case)[:16]} "
                f"(size {case_size(fail.case)}, origin "
                f"{fail.case.origin!r}, {fail.shrink_steps} shrink steps)"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Campaign driver
# ----------------------------------------------------------------------
def _merge_outcomes(
    config: CampaignConfig, survivors: Sequence[ShardOutcome]
) -> Tuple[FuzzStats, List[Failure], int]:
    """Rebuild the serial-run aggregate from shard records and dedupe
    failures by signature (least by the store's ``witness_order``)."""
    merged = FuzzStats(budget=config.budget, seed=config.seed)
    records = sorted(
        (r for o in survivors for r in o.stats.records),
        key=lambda r: r.index,
    )
    for record in records:
        merged.observe(
            record.index,
            record.outcome,
            record.klass,
            record.rel_error,
            record.violations,
        )
    raw = [f for o in survivors for f in o.stats.failures]
    best: Dict[str, Failure] = {}
    # Stable sort: equal witnesses keep global case-index order.
    for failure in sorted(raw, key=lambda f: witness_order(f.case)):
        best.setdefault(failure.failure_key, failure)
    deduped = [best[key] for key in sorted(best)]
    merged.failures = deduped
    return merged, deduped, len(raw)


def soak_run(
    config: CampaignConfig,
    state_dir: Optional[str] = None,
    corpus_dir: Optional[str] = None,
    workers: Optional[int] = None,
    resume: bool = False,
    metrics: Optional[MetricsLogger] = None,
    promote_dir: Optional[str] = None,
    promote_dry_run: bool = False,
    inject_crash_shards: Sequence[int] = (),
) -> SoakReport:
    """Run one campaign: shard, execute, merge, record, promote."""
    metrics = metrics or MetricsLogger()
    campaign_key = config.campaign_key()
    store = (
        ArtifactStore(os.path.join(state_dir, "shards")) if state_dir else None
    )
    ranges = config.shard_ranges()
    crash_shards = set(inject_crash_shards)
    workers_n = (
        workers if workers is not None
        else min(len(ranges), os.cpu_count() or 1)
    )
    metrics.emit(
        "soak_start",
        campaign=campaign_key,
        budget=config.budget,
        seed=config.seed,
        shards=len(ranges),
        jobs=workers_n,
        resume=resume,
        bands=config.bands.to_dict(),
    )

    shard_jobs = [
        ShardJob(
            index=i,
            start=start,
            count=count,
            seed=config.seed,
            max_mutations=config.max_mutations,
            shrink_budget=config.shrink_budget,
            bands=config.bands,
            inject_crash=i in crash_shards,
        )
        for i, (start, count) in enumerate(ranges)
    ]

    checkpoint = None
    if store is not None:
        checkpoint = Checkpointing(
            store=store,
            key_fn=lambda job: _shard_store_key(
                campaign_key, job.start, job.count
            ),
            meta_fn=lambda job, stats: {
                "kind": "soak-shard",
                "campaign": campaign_key,
                "shard": job.index,
                "start": job.start,
                "count": job.count,
                "failures": len(stats.failures),
            },
            validate_fn=lambda cached: isinstance(cached, FuzzStats),
        )

    executor = ProcessPoolJobExecutor(workers_n)
    runner = JobRunner(
        executor=executor,
        # all_failed_raises=False: the campaign owns the all-failed
        # SoakError so its message stays bit-identical.
        policy=FaultPolicy(all_failed_raises=False),
        metrics=metrics,
        name="soak.shards",
    )
    results = runner.run(
        run_shard_job,
        shard_jobs,
        checkpoint=checkpoint,
        resume=resume,
        label_fn=lambda job: job.index,
    )
    if executor.last_mode == "serial-fallback":
        metrics.emit("pool_unavailable", campaign=campaign_key)

    ordered = [
        ShardOutcome(
            index=o.payload.index,
            start=o.payload.start,
            count=o.payload.count,
            stats=o.result if o.ok else None,
            error=o.error,
            cached=o.cached,
        )
        for o in results
    ]
    survivors = [o for o in ordered if o.stats is not None]
    if not survivors:
        errors = "; ".join(f"shard {o.index}: {o.error}" for o in ordered)
        metrics.emit("soak_failed", campaign=campaign_key, errors=errors)
        raise SoakError(f"all {len(ordered)} shards failed: {errors}")

    with span("soak.merge", shards=len(survivors)):
        merged, failures, raw_count = _merge_outcomes(config, survivors)
    metrics.emit(
        "soak_merged",
        campaign=campaign_key,
        unique_failures=len(failures),
        raw_failures=raw_count,
    )

    # Without a corpus there is no memory: every failure counts as new.
    new_failures = len(failures)
    if corpus_dir:
        corpus = DivergenceCorpus(corpus_dir)
        new_failures = sum(
            corpus.add(failure, config.bands)[1] for failure in failures
        )

    promoted: List[str] = []
    if promote_dir is not None:
        with span("soak.promote", failures=len(failures)):
            promoted = promote_failures(
                failures, promote_dir, config.bands, dry_run=promote_dry_run
            )
        metrics.emit(
            "soak_promoted",
            campaign=campaign_key,
            cases=promoted,
            dry_run=promote_dry_run,
        )

    report = SoakReport(
        config=config,
        campaign_key=campaign_key,
        stats=merged,
        failures=failures,
        raw_failures=raw_count,
        cases_run=sum(merged.outcomes.values()),
        crashed_shards=[o.index for o in ordered if o.stats is None],
        cached_shards=[o.index for o in ordered if o.cached],
        new_failures=new_failures,
        promoted=promoted,
        promote_dry_run=promote_dry_run,
    )
    metrics.emit("soak_done", **report.stats_doc())
    return report
