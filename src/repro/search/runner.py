"""The study runner: ask -> evaluate (via repro.jobs) -> tell -> persist.

One loop drives every strategy, and it is the one DSE driver:
:class:`repro.engine.DseEngine` runs one :func:`run_search` per seed.
Proposals fan out through a :class:`~repro.jobs.ShardPlan` and
:class:`~repro.jobs.JobRunner` — zero new executor code — and results are
re-assembled in global index order and normalized through one pickle
round-trip, so a ``--workers 4`` run produces a study byte-identical to
``--workers 1``.  Whenever the trial count crosses a multiple of
``checkpoint_every`` (default 1: every batch) and after the last batch,
the study plus the strategy snapshot are persisted to the engine store —
the only checkpoint a DSE run has; re-running the same (workloads,
config, strategy, seed, batch) with ``resume`` continues from disk and
the finished study is bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from ..adg import SysADG, adg_from_dict
from ..dse import DseConfig, DseResult
from ..dse.system import SystemChoice
from ..engine.hashing import config_fingerprint
from ..engine.metrics import MetricsLogger
from ..ir import Workload
from ..jobs import FaultPolicy, JobRunner, ProcessPoolJobExecutor, ShardPlan
from ..profile.tracer import span
from .evaluate import EvalOut, EvalShard, StudyInputs, evaluate_shard, study_inputs
from .strategy import Proposal, SearchContext, SearchError, make_strategy
from .study import Study, Trial, load_study, save_study, study_key


@dataclass
class SearchSettings:
    """How to run one study."""

    strategy: str = "anneal"
    trials: int = 16
    batch: int = 1
    seed: int = 0
    workers: int = 1


@dataclass
class SearchOutcome:
    """What one search run produced."""

    study: Study
    key: str
    resumed: bool = False
    #: The strategy's own final artifact (``Strategy.finish``): the
    #: annealer's ``DseResult``, byte-identical to ``Explorer.run``.
    dse_result: Optional[DseResult] = None
    best_trial: Optional[Trial] = None
    sysadg: Optional[SysADG] = None
    choice: Optional[SystemChoice] = None

    @property
    def objective(self) -> Optional[float]:
        """Objective of the realized design; None when there is none."""
        return self.choice.objective if self.choice is not None else None


def run_search(
    workloads: Sequence[Workload],
    config: Optional[DseConfig] = None,
    settings: Optional[SearchSettings] = None,
    *,
    store: Any = None,
    metrics: Optional[MetricsLogger] = None,
    resume: bool = True,
    rebuild_best: bool = False,
    name: str = "overlay",
    checkpoint_every: int = 1,
) -> SearchOutcome:
    """Run (or resume) one study to its trial budget.

    ``rebuild_best`` asks for a design: the strategy's final artifact when
    it offers one (the annealer's, valid from any accepted state), else
    the best trial re-evaluated.  ``checkpoint_every`` (trials; 0 saves
    only the finished study) is the store cadence.
    """
    if not workloads:
        raise SearchError("need at least one workload")
    config = config or DseConfig()
    settings = settings or SearchSettings()
    metrics = metrics if metrics is not None else MetricsLogger()
    key = study_key(
        workloads, config, settings.strategy, settings.seed, settings.batch
    )
    ctx = SearchContext(
        workloads=list(workloads),
        config=config,
        seed=settings.seed,
        name=name,
    )
    study: Optional[Study] = None
    state: Any = None
    resumed = False
    if store is not None and resume:
        study, state = load_study(store, key)
        resumed = study is not None
    if study is None:
        study = Study(
            key=key,
            strategy=settings.strategy,
            seed=settings.seed,
            batch=settings.batch,
            workloads=[w.name for w in workloads],
            config_fingerprint=config_fingerprint(config),
        )

    with span("search.run", strategy=settings.strategy, key=key):
        strategy = make_strategy(settings.strategy, ctx, state=state)
        metrics.emit(
            "study_start",
            key=key,
            strategy=settings.strategy,
            seed=settings.seed,
            batch=settings.batch,
            trials_target=settings.trials,
            existing=len(study.trials),
            resumed=resumed,
        )
        saved = len(study.trials)
        inputs = None  # lowered once per study, by the first batch in need
        while len(study.trials) < settings.trials and not strategy.exhausted:
            want = min(
                settings.batch,
                strategy.max_batch,
                settings.trials - len(study.trials),
            )
            with span("search.ask", want=want):
                proposals = strategy.ask(want)
            if not proposals:
                break
            if inputs is None:
                inputs = study_inputs(proposals, ctx.workloads)
            evals = _evaluate(
                proposals,
                ctx,
                settings.workers,
                metrics,
                start_index=len(study.trials),
                inputs=inputs,
            )
            trials = _to_trials(proposals, evals, settings)
            with span("search.tell", trials=len(trials)):
                strategy.tell(trials)
            study.trials.extend(t.stripped() for t in trials)
            metrics.emit(
                "study_batch",
                key=key,
                strategy=settings.strategy,
                asked=want,
                evaluated=len(trials),
                feasible=sum(1 for t in trials if t.feasible),
                total=len(study.trials),
            )
            if (
                store is not None
                and checkpoint_every
                and len(study.trials) // checkpoint_every
                > saved // checkpoint_every
            ):
                save_study(store, study, strategy.snapshot())
                saved = len(study.trials)
        # The last batch, before ``finish`` below mutates the strategy.
        if store is not None and saved != len(study.trials):
            save_study(store, study, strategy.snapshot())

        outcome = SearchOutcome(study=study, key=key, resumed=resumed)
        outcome.best_trial = study.best_trial()
        if rebuild_best or strategy.exhausted:
            outcome.dse_result = strategy.finish()
        if outcome.dse_result is not None:
            outcome.sysadg = outcome.dse_result.sysadg
            outcome.choice = outcome.dse_result.choice
        elif rebuild_best and outcome.best_trial is not None:
            outcome.sysadg, outcome.choice = _rebuild_best(
                outcome.best_trial, ctx, inputs
            )
        best = outcome.best_trial
        metrics.emit(
            "study_end",
            key=key,
            strategy=settings.strategy,
            trials=len(study.trials),
            feasible=len(study.feasible_trials()),
            best_objective=best.objective if best else None,
            best_index=best.index if best else None,
        )
    return outcome


# ----------------------------------------------------------------------
def _evaluate(
    proposals: Sequence[Proposal],
    ctx: SearchContext,
    workers: int,
    metrics: MetricsLogger,
    start_index: int,
    inputs: Optional[StudyInputs],
) -> List[EvalOut]:
    """Fan a batch out through the jobs runtime; index order in, index
    order out, pickle-normalized so serial == pool byte-for-byte."""
    indexed = [(start_index + i, p) for i, p in enumerate(proposals)]
    plan = ShardPlan(total=len(indexed), shards=max(1, int(workers)))
    shards = [list(s) for s in plan.scatter(indexed) if s]
    jobs = [
        EvalShard(
            items=shard,
            workloads=tuple(ctx.workloads),
            config=ctx.config,
            seed=ctx.seed,
            inputs=inputs,
        )
        for shard in shards
    ]
    runner = JobRunner(
        executor=ProcessPoolJobExecutor(max(1, int(workers))),
        policy=FaultPolicy(mode="fail"),
        metrics=metrics,
        name="search.eval",
    )
    with span("search.eval", proposals=len(indexed)):
        outcomes = runner.run(
            evaluate_shard,
            jobs,
            label_fn=lambda job: job.items[0][0] if job.items else -1,
        )
    outs: List[EvalOut] = [
        out for outcome in outcomes for out in outcome.result
    ]
    # The Checkpointing idiom, applied per item: a round-trip of the whole
    # list would *preserve* cross-item object sharing, which differs
    # between serial (shared strings/tuples) and pool (per-shard pickles)
    # runs and leaks into the persisted study's bytes.  Round-tripping
    # each EvalOut alone breaks cross-item sharing identically for every
    # shard layout.
    outs = [pickle.loads(pickle.dumps(out)) for out in outs]
    outs.sort(key=lambda e: e.index)
    return outs


def _to_trials(
    proposals: Sequence[Proposal],
    evals: Sequence[EvalOut],
    settings: SearchSettings,
) -> List[Trial]:
    if len(proposals) != len(evals):
        raise SearchError(
            f"evaluated {len(evals)} of {len(proposals)} proposals"
        )
    trials = []
    for proposal, ev in zip(proposals, evals):
        trials.append(
            Trial(
                index=ev.index,
                strategy=settings.strategy,
                kind=proposal.kind,
                lineage=proposal.lineage,
                seed=settings.seed,
                feasible=ev.feasible,
                objective=ev.objective,
                modeled_seconds=ev.modeled_seconds,
                lut=ev.lut,
                ff=ev.ff,
                bram=ev.bram,
                dsp=ev.dsp,
                bottleneck=ev.bottleneck,
                choice=ev.choice,
            )
        )
    return trials


def _rebuild_best(trial: Trial, ctx: SearchContext, inputs: Optional[StudyInputs]):
    """Re-evaluate the winning trial in-process to realize its SysADG."""
    if trial.kind == "genome":
        proposal = Proposal(
            kind="genome",
            payload={"genes": [list(g) for g in trial.lineage["genes"]]},
            lineage=trial.lineage,
        )
    elif trial.kind == "params":
        proposal = Proposal(
            kind="params",
            payload={"params": dict(trial.lineage["params"])},
            lineage=trial.lineage,
        )
    else:
        return None, None
    shard = EvalShard(
        items=[(trial.index, proposal)],
        workloads=tuple(ctx.workloads),
        config=ctx.config,
        seed=ctx.seed,
        include_adg=True,
        inputs=inputs,
    )
    (out,) = evaluate_shard(shard)
    if out.choice is None or out.adg_doc is None:
        return None, None
    adg = adg_from_dict(out.adg_doc)
    return (
        SysADG(adg=adg, params=out.choice.params, name=ctx.name),
        out.choice,
    )
