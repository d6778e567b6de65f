"""Proposal evaluation — the worker-side half of the search runtime.

:func:`evaluate_shard` is a module-level function so it pickles cleanly
into the worker processes of :func:`repro.jobs.run_jobs`.  Evaluation is
pure and deterministic: everything it needs travels in the
:class:`EvalShard`, and its modeled-seconds accounting is a fixed formula
of the work performed — never wall-clock — so serial and pool runs score
every proposal identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..adg import ADG, AdgError, SystemParams, adg_to_dict, seed_for_workloads
from ..compiler import VariantSet, generate_variants
from ..dse import DseConfig
from ..dse.explorer import sweep_candidate
from ..dse.system import ObjectiveMemo, SystemChoice
from ..ir import Workload
from ..model.resource import AnalyticEstimator
from ..scheduler import ScheduleError, schedule_workload
from .space import apply_genome, apply_params
from .strategy import Proposal


class StudyInputs(NamedTuple):
    """What every genome / params evaluation of one study shares; it
    depends only on the workloads, so ``run_search`` builds it once per
    study and every shard carries the value (a pool pickles it along).
    ``seed`` is never mutated: each proposal edits a clone.
    ``estimator`` and ``objectives`` are the study's system-sweep memos,
    as an ``Explorer`` run owns its own: serial shards share them, a pool
    worker fills its pickled copy (hits are exact either way)."""

    variant_sets: Tuple[VariantSet, ...]
    seed: ADG
    estimator: AnalyticEstimator
    objectives: ObjectiveMemo


def study_inputs(
    proposals: Iterable[Proposal],
    workloads: Sequence[Workload],
) -> Optional[StudyInputs]:
    """The inputs ``proposals`` need: None when every one is an annealer
    candidate, which arrives already scheduled."""
    if all(proposal.kind == "candidate" for proposal in proposals):
        return None
    variant_sets = tuple(generate_variants(w) for w in workloads)
    return StudyInputs(
        variant_sets,
        seed_for_workloads(workloads),
        AnalyticEstimator(),
        {},
    )


@dataclass
class EvalShard:
    """One worker's slice of a proposal batch (global indices attached)."""

    items: List[Tuple[int, Proposal]]
    workloads: Tuple[Workload, ...]
    config: DseConfig
    seed: int
    include_adg: bool = False
    #: None: a shard built outside a study loop lowers for itself.
    inputs: Optional[StudyInputs] = None


@dataclass
class EvalOut:
    """The scored outcome of one proposal."""

    index: int
    feasible: bool
    objective: Optional[float]
    modeled_seconds: float
    lut: float = 0.0
    ff: float = 0.0
    bram: float = 0.0
    dsp: float = 0.0
    bottleneck: str = ""
    choice: Optional[SystemChoice] = None
    adg_doc: Optional[Dict[str, Any]] = None


def evaluate_shard(shard: EvalShard) -> List[EvalOut]:
    """Evaluate every proposal in the shard, in global index order.

    Nothing is lowered here when the shard carries its study's inputs (or
    needs none: see :func:`study_inputs`).
    """
    inputs = shard.inputs
    if inputs is None:
        inputs = study_inputs((p for _index, p in shard.items), shard.workloads)
    return [
        evaluate_proposal(index, proposal, shard, inputs)
        for index, proposal in shard.items
    ]


def evaluate_proposal(
    index: int,
    proposal: Proposal,
    shard: EvalShard,
    inputs: Optional[StudyInputs],
) -> EvalOut:
    cfg = shard.config
    if proposal.kind == "candidate":
        # The annealer already built and repaired the schedules; this is
        # exactly the nested system sweep ``Explorer.run`` does in-process
        # (``Explorer.decide`` charges its ``TimeModel.sweep``): the
        # payload is the candidate and the explorer's run memos.
        choice = sweep_candidate(cfg, **proposal.payload)
        return _out(index, choice, modeled_seconds=0.0)

    if proposal.kind not in ("genome", "params"):
        raise ValueError(f"unknown proposal kind {proposal.kind!r}")

    # A clone keeps the seed's id allocator and edit stamp, so it is
    # indistinguishable from a fresh build.
    adg = inputs.seed.clone()
    if proposal.kind == "genome":
        genes = [tuple(g) for g in proposal.payload["genes"]]
        apply_genome(adg, genes, shard.seed)
    else:
        apply_params(adg, proposal.payload["params"])

    params = SystemParams()
    schedules = {}
    total_variants = 0
    choice: Optional[SystemChoice] = None
    feasible = True
    try:
        for workload, variants in zip(shard.workloads, inputs.variant_sets):
            total_variants += len(variants.variants)
            schedule = schedule_workload(variants, adg, params)
            if schedule is None:
                feasible = False
                break
            schedules[workload.name] = schedule
        if feasible:
            choice = sweep_candidate(
                cfg, adg, schedules, inputs.estimator, inputs.objectives
            )
    except (AdgError, ScheduleError):
        # A mutated design the toolchain rejects outright is just an
        # infeasible point — the strategy learns from it like any other.
        # Any other error is a toolchain bug and fails the study.
        choice = None
    # Fixed-formula modeled cost (a real toolchain would schedule every
    # variant from scratch, then sweep the system grid).
    modeled = cfg.time_model.reschedule(total_variants) + cfg.time_model.sweep()
    out = _out(index, choice, modeled_seconds=modeled)
    if shard.include_adg and choice is not None:
        out.adg_doc = adg_to_dict(adg)
    return out


def _out(
    index: int, choice: Optional[SystemChoice], modeled_seconds: float
) -> EvalOut:
    if choice is None:
        return EvalOut(
            index=index,
            feasible=False,
            objective=None,
            modeled_seconds=modeled_seconds,
        )
    total = choice.system_total
    return EvalOut(
        index=index,
        feasible=True,
        objective=choice.objective,
        modeled_seconds=modeled_seconds,
        lut=total.lut,
        ff=total.ff,
        bram=total.bram,
        dsp=total.dsp,
        bottleneck=dominant_bottleneck(choice),
        choice=choice,
    )


def dominant_bottleneck(choice: SystemChoice) -> str:
    """The bottleneck class of the slowest workload (the binding one)."""
    if not choice.estimates:
        return "none"
    worst = min(
        choice.estimates, key=lambda name: (choice.estimates[name].ipc, name)
    )
    return choice.estimates[worst].bottleneck
