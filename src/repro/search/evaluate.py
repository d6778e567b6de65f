"""Proposal evaluation — the worker-side half of the search runtime.

:func:`evaluate_shard` is a module-level function so it pickles cleanly
into :class:`~repro.jobs.ProcessPoolJobExecutor` workers.  Evaluation is
pure and deterministic: everything it needs travels in the
:class:`EvalShard`, and its modeled-seconds accounting is a fixed formula
of the work performed — never wall-clock — so serial and pool runs score
every proposal identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..adg import SystemParams
from ..adg.builders import SeedInventory, seed_inventory
from ..compiler import VariantSet, generate_variants
from ..dse import DseConfig
from ..dse.explorer import sweep_candidate
from ..dse.system import SystemChoice
from ..ir import Workload
from .space import apply_genome, apply_params
from .strategy import Proposal


class StudyInputs(NamedTuple):
    """What every genome / params evaluation of one study shares; both
    depend on the workloads only, so ``run_search`` lowers once per study
    and every shard carries the value (a pool pickles it along)."""

    variant_sets: Tuple[VariantSet, ...]
    inventory: SeedInventory


def study_inputs(
    proposals: Iterable[Proposal], workloads: Sequence[Workload]
) -> Optional[StudyInputs]:
    """The inputs ``proposals`` need: None when every one is an annealer
    candidate, which arrives already scheduled."""
    if all(proposal.kind == "candidate" for proposal in proposals):
        return None
    variant_sets = tuple(generate_variants(w) for w in workloads)
    return StudyInputs(variant_sets, seed_inventory(workloads))


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
        # (``Explorer.decide`` charges the modeled model_eval cost).
        choice = sweep_candidate(
            cfg, proposal.payload["adg"], proposal.payload["schedules"]
        )
        return _out(index, choice, modeled_seconds=0.0)

    if proposal.kind not in ("genome", "params"):
        raise ValueError(f"unknown proposal kind {proposal.kind!r}")

    adg = inputs.inventory.seed(cfg.seed_width_bits)
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
        from ..scheduler import schedule_workload

        for workload, variants in zip(shard.workloads, inputs.variant_sets):
            total_variants += len(variants.variants)
            schedule = schedule_workload(variants, adg, params)
            if schedule is None:
                feasible = False
                break
            schedules[workload.name] = schedule
        if feasible:
            choice = sweep_candidate(cfg, adg, schedules)
    except Exception:
        # A mutated design the toolchain rejects outright is just an
        # infeasible point — the strategy learns from it like any other.
        choice = None
    # Fixed-formula modeled cost (a real toolchain would schedule every
    # variant from scratch, then sweep the system grid).
    modeled = (
        cfg.time_model.full_schedule * total_variants
        + cfg.time_model.model_eval * 60.0
    )
    out = _out(index, choice, modeled_seconds=modeled)
    if shard.include_adg and choice is not None:
        from ..adg import adg_to_dict

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
