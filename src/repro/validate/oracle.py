"""Differential oracle: bottleneck model vs cycle-level simulator.

For one fuzz case the oracle compiles the program, schedules its best
variant on the case's ADG, then runs both predictors over the same
schedule:

* the analytical bottleneck model (:func:`repro.model.perf.estimate_cycles`,
  plus the configuration stream the simulator also charges), and
* the cycle-level simulator (:func:`repro.sim.simulate_schedule`).

The relative error between the two is compared against a per-bottleneck-
class tolerance band: compute-bound mappings are where the model is exact
by construction, so they get a tight budget; memory-bound mappings go
through bandwidth contention the model only approximates; recurrence/
generate-limited ("aux") mappings sit in between.

Outcomes are structural, never exceptions: unschedulable cases and
simulator rejections are legitimate results the fuzz statistics count
separately from genuine divergence.  A non-finite cycle estimate on
either side (the model legitimately returns ``float("inf")`` when its
projected IPC collapses to zero) is its own ``nonfinite`` outcome: the
relative error of an infinite gap is meaningless, and letting it flow
into the accuracy aggregates would poison every max/mean downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from ..adg import SysADG
from ..compiler import LoweringError, generate_variants
from ..scheduler import schedule_workload
from ..sim import SimulationError, simulate_schedule
from ..model.perf import estimate_cycles
from .generators import FuzzCase

#: Outcome kinds, in the order they short-circuit.
OUTCOMES = (
    "build_error",       # spec does not rebuild (corrupt corpus entry)
    "lower_error",       # compiler produced no variant
    "unschedulable",     # no variant maps onto the mutated ADG
    "sim_error",         # simulator rejected the schedule (deadlock/stall)
    "nonfinite",         # a cycle estimate was inf/nan (no usable rel error)
    "ok",                # model and simulator agree within tolerance
    "divergence",        # disagreement outside the tolerance band
)


def _strict_round(value: float, digits: int) -> Optional[float]:
    """Round for a strict-JSON document: non-finite values become None
    (``json.dumps`` would otherwise emit non-standard ``Infinity``)."""
    return round(value, digits) if math.isfinite(value) else None

#: Coarse bottleneck classes keyed off PerfEstimate.bottleneck names.
_MEMORY_BOTTLENECKS = ("dram", "l2", "dma", "noc")
_AUX_BOTTLENECKS = ("rec", "gen")


def classify_bottleneck(bottleneck: str) -> str:
    """Map a PerfEstimate bottleneck name to a tolerance class."""
    if bottleneck in ("none", ""):
        return "compute"
    if bottleneck.startswith("spad"):
        return "memory"
    for prefix in _MEMORY_BOTTLENECKS:
        if bottleneck.startswith(prefix):
            return "memory"
    for prefix in _AUX_BOTTLENECKS:
        if bottleneck.startswith(prefix):
            return "aux"
    return "compute"


@dataclass(frozen=True)
class ToleranceBands:
    """Per-bottleneck-class relative-error budgets.

    ``abs_floor`` forgives absolute cycle gaps smaller than a pipeline
    fill: tiny kernels are dominated by startup effects neither side
    models identically.
    """

    compute: float = 0.35
    memory: float = 0.60
    aux: float = 0.60
    abs_floor: float = 64.0

    def budget(self, klass: str) -> float:
        return getattr(self, klass, self.memory)

    def to_dict(self) -> Dict[str, float]:
        return {
            "compute": self.compute,
            "memory": self.memory,
            "aux": self.aux,
            "abs_floor": self.abs_floor,
        }

    def scaled(self, rel_tol: Optional[float]) -> "ToleranceBands":
        """Override every relative band with one value (CLI ``--rel-tol``)."""
        if rel_tol is None:
            return self
        return replace(self, compute=rel_tol, memory=rel_tol, aux=rel_tol)


@dataclass
class OracleResult:
    """The differential verdict for one case."""

    outcome: str
    bottleneck: str = "none"
    bottleneck_class: str = "compute"
    model_cycles: float = 0.0
    sim_cycles: float = 0.0
    rel_error: float = 0.0
    detail: str = ""
    variant: str = ""
    schedule: Any = None                 # kept for invariant checking
    adg: Any = None

    @property
    def compared(self) -> bool:
        """Did both predictors produce a number for this case?"""
        return self.outcome in ("ok", "divergence")

    def stats_doc(self) -> Dict[str, Any]:
        """Strict-JSON summary (no object references, no timestamps, no
        ``Infinity``/``NaN`` literals — non-finite numbers become null)."""
        return {
            "outcome": self.outcome,
            "bottleneck": self.bottleneck,
            "class": self.bottleneck_class,
            "model_cycles": _strict_round(self.model_cycles, 3),
            "sim_cycles": _strict_round(self.sim_cycles, 3),
            "rel_error": _strict_round(self.rel_error, 6),
            "variant": self.variant,
            "detail": self.detail,
        }


def run_oracle(
    case: FuzzCase,
    bands: Optional[ToleranceBands] = None,
) -> OracleResult:
    """Compile, schedule, and differentially test one fuzz case."""
    bands = bands or ToleranceBands()
    try:
        workload = case.program.build()
        adg = case.adg()
        params = case.system_params()
    except Exception as exc:  # corrupt corpus docs can fail arbitrarily
        return OracleResult(outcome="build_error", detail=str(exc))
    try:
        variants = generate_variants(workload)
    except LoweringError as exc:
        return OracleResult(outcome="lower_error", detail=str(exc), adg=adg)

    schedule = schedule_workload(variants, adg, params)
    if schedule is None:
        return OracleResult(outcome="unschedulable", adg=adg)

    est = schedule.estimate
    bottleneck = est.bottleneck if est is not None else "none"
    klass = classify_bottleneck(bottleneck)
    variant = schedule.mdfg.variant

    # The simulator charges the configuration stream on top of steady
    # state; add the same term to the model side for a fair comparison.
    model_cycles = estimate_cycles(
        schedule.mdfg, schedule.binding(), adg, params
    )
    if model_cycles != float("inf"):
        model_cycles += schedule.mdfg.config_words

    sysadg = SysADG(adg=adg, params=params, name="fuzz")
    try:
        sim = simulate_schedule(schedule, sysadg)
    except SimulationError as exc:
        return OracleResult(
            outcome="sim_error",
            bottleneck=bottleneck,
            bottleneck_class=klass,
            model_cycles=model_cycles,
            detail=str(exc),
            variant=variant,
            schedule=schedule,
            adg=adg,
        )

    if not (math.isfinite(model_cycles) and math.isfinite(float(sim.cycles))):
        # An infinite gap has no meaningful relative error; surface it as
        # its own outcome so the accuracy aggregates stay finite and the
        # failure still shrinks/records like any other model bug.
        return OracleResult(
            outcome="nonfinite",
            bottleneck=bottleneck,
            bottleneck_class=klass,
            model_cycles=model_cycles,
            sim_cycles=float(sim.cycles),
            rel_error=float("inf"),
            detail=(
                f"non-finite cycle estimate (model={model_cycles!r}, "
                f"sim={float(sim.cycles)!r})"
            ),
            variant=variant,
            schedule=schedule,
            adg=adg,
        )

    rel_error = abs(sim.cycles - model_cycles) / max(sim.cycles, 1.0)
    within = (
        rel_error <= bands.budget(klass)
        or abs(sim.cycles - model_cycles) <= bands.abs_floor
    )
    return OracleResult(
        outcome="ok" if within else "divergence",
        bottleneck=bottleneck,
        bottleneck_class=klass,
        model_cycles=model_cycles,
        sim_cycles=float(sim.cycles),
        rel_error=rel_error,
        variant=variant,
        schedule=schedule,
        adg=adg,
    )
