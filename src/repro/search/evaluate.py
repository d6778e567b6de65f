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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..adg import SystemParams
from ..compiler import VariantSet, generate_variants
from ..dse import DseConfig
from ..dse.explorer import sweep_candidate
from ..dse.system import SystemChoice
from ..ir import Workload
from .space import genome_adg, params_adg
from .strategy import Proposal


@dataclass
class EvalShard:
    """One worker's slice of a proposal batch (global indices attached)."""

    items: List[Tuple[int, Proposal]]
    workloads: Tuple[Workload, ...]
    config: DseConfig
    seed: int
    include_adg: bool = False


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

    Variant sets depend on the workload only, so each workload is lowered
    once per shard — and not at all when every proposal is an annealer
    candidate, which arrives already scheduled.
    """
    variant_sets: List[VariantSet] = []
    if any(proposal.kind != "candidate" for _index, proposal in shard.items):
        variant_sets = [generate_variants(w) for w in shard.workloads]
    return [
        evaluate_proposal(index, proposal, shard, variant_sets)
        for index, proposal in shard.items
    ]


def evaluate_proposal(
    index: int,
    proposal: Proposal,
    shard: EvalShard,
    variant_sets: Sequence[VariantSet],
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

    if proposal.kind == "genome":
        adg = genome_adg(
            shard.workloads,
            [tuple(g) for g in proposal.payload["genes"]],
            shard.seed,
            width_bits=cfg.seed_width_bits,
        )
    else:
        adg = params_adg(
            shard.workloads,
            proposal.payload["params"],
            width_bits=cfg.seed_width_bits,
        )

    params = SystemParams()
    schedules = {}
    total_variants = 0
    choice: Optional[SystemChoice] = None
    feasible = True
    try:
        from ..scheduler import schedule_workload

        for workload, variants in zip(shard.workloads, variant_sets):
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
