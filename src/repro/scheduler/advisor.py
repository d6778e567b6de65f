"""Mapping advisor: explain how well a workload fits an existing overlay.

Section VIII-Q5 suggests "the compiler could inform the user when a
significant performance improvement is expected, to signal when to perform
DSE again."  This module implements that feedback: it schedules every
variant of a workload onto a given overlay, explains which variants failed
and why, and quantifies the gap between what the overlay delivers and what
the workload's best variant could deliver on sufficient hardware.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..adg import ADG, SystemParams
from ..compiler import VariantSet, generate_variants
from ..dfg import MDFG
from ..ir import Workload
from ..model.perf import MemoryBinding, estimate_ipc, ipc_ceiling
from .binder import bind_engines
from .schedule import ScheduleError
from .spatial import attempt_schedule

#: Recommend re-running the DSE when the best *unmappable* variant promises
#: at least this much more instruction bandwidth than the best mapped one.
REDSE_GAIN_THRESHOLD = 1.5


@dataclass
class VariantVerdict:
    """Outcome of trying one variant on the overlay."""

    variant: str
    mapped: bool
    projected_ipc: float = 0.0
    failure_reason: Optional[str] = None
    insts_per_cycle: float = 0.0


@dataclass
class MappingAdvice:
    """The advisor's full report for one (workload, overlay) pair."""

    workload: str
    verdicts: List[VariantVerdict]
    best_mapped: Optional[VariantVerdict]
    potential_gain: float          # best unmapped insts / best mapped insts
    recommend_redse: bool

    def summary(self) -> str:
        lines = [f"mapping advice for {self.workload}:"]
        for v in self.verdicts:
            if v.mapped:
                lines.append(
                    f"  {v.variant:10s} OK   projected IPC {v.projected_ipc:.1f}"
                )
            else:
                lines.append(
                    f"  {v.variant:10s} FAIL {v.failure_reason}"
                )
        if self.best_mapped is None:
            lines.append(
                "  -> workload does NOT map; rerun the DSE including it"
            )
        elif self.recommend_redse:
            lines.append(
                f"  -> a {self.potential_gain:.1f}x faster variant exists but "
                f"does not fit this overlay; re-running DSE is worthwhile"
            )
        else:
            lines.append("  -> overlay serves this workload well")
        return "\n".join(lines)


def _try_variant(mdfg: MDFG, adg: ADG, params: SystemParams) -> VariantVerdict:
    """Schedule one variant, capturing the precise failure reason.

    An unmappable variant still gets a projected IPC: priced on the engines
    :func:`bind_engines` gives it when they exist (no port, placement or
    route yet), else its binding-free :func:`ipc_ceiling` — what it would
    deliver on an overlay generous enough to host it.  The gap between
    that and the best mapped variant is the re-DSE signal.
    """
    attempt = attempt_schedule(mdfg, adg, params)
    if not attempt.ok:
        try:
            binding = MemoryBinding(bind_engines(mdfg, adg))
            ideal = estimate_ipc(mdfg, binding, adg, params).ipc
        except ScheduleError:
            ideal = ipc_ceiling(mdfg, params)
        return VariantVerdict(
            variant=mdfg.variant,
            mapped=False,
            projected_ipc=ideal,
            failure_reason=attempt.failure.reason,
            insts_per_cycle=mdfg.insts_per_cycle,
        )
    return VariantVerdict(
        variant=mdfg.variant,
        mapped=True,
        projected_ipc=attempt.schedule.estimate.ipc,
        insts_per_cycle=mdfg.insts_per_cycle,
    )


def advise(
    workload: Workload,
    adg: ADG,
    params: SystemParams,
    variants: Optional[VariantSet] = None,
) -> MappingAdvice:
    """Try every variant of ``workload`` on the overlay and report.

    The potential gain compares the instruction bandwidth of the most
    aggressive *unmappable* variant against the best variant that mapped —
    the headroom a re-specialized overlay could unlock.
    """
    variants = variants or generate_variants(workload)
    verdicts = [
        _try_variant(mdfg, adg, params) for mdfg in variants.variants
    ]
    mapped = [v for v in verdicts if v.mapped]
    best_mapped = max(mapped, key=lambda v: v.projected_ipc, default=None)
    unmapped = [v for v in verdicts if not v.mapped]
    if best_mapped is None:
        gain = float("inf") if unmapped else 0.0
    elif unmapped:
        best_unmapped_ipc = max(v.projected_ipc for v in unmapped)
        gain = max(1.0, best_unmapped_ipc / max(1e-9, best_mapped.projected_ipc))
    else:
        gain = 1.0
    return MappingAdvice(
        workload=workload.name,
        verdicts=verdicts,
        best_mapped=best_mapped,
        potential_gain=gain,
        recommend_redse=(
            best_mapped is None or gain >= REDSE_GAIN_THRESHOLD
        ),
    )
