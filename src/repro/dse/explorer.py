"""The unified spatial + system design-space explorer (Section V).

One DSE iteration (Fig. 6):

1. propose ``ADG*`` by cloning the accepted ADG and applying either a
   random transform or a schedule-preserving transform;
2. re-validate/repair every workload's schedule against ``ADG*`` (cheap:
   most hardware is untouched); abandon the candidate if any workload loses
   all schedulable variants;
3. run the nested exhaustive system DSE for ``ADG*``;
4. accept/reject by simulated annealing on the performance objective, with
   resources-per-accelerator as the tie-breaking secondary objective.

Wall-clock accounting: real OverGen DSE runs for hours because scheduling
and compilation dominate; we run the same algorithm in seconds.  To report
Fig. 15/20-style time axes, every operation also charges a *modeled* cost
(seconds a real toolchain would spend), calibrated to the paper's reported
DSE times.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..adg import (
    ADG,
    SysADG,
    SystemParams,
    adg_from_dict,
    adg_to_dict,
    seed_for_workloads,
)
from ..compiler import VariantSet, generate_variants
from ..ir import Workload
from ..model.resource import AnalyticEstimator, usable_budget
from ..profile.tracer import add_counter, span
from ..scheduler import (
    Schedule,
    repair_schedule,
    revalidate_schedule,
    schedule_workload,
)
from .system import SystemChoice, max_tiles_that_fit, system_dse
from .transforms import (
    TransformFailed,
    apply_random_transform,
    collapse_random_switch,
    pad_for_generality,
    prune_capabilities,
)


@dataclass
class TimeModel:
    """Modeled toolchain costs in seconds (for Fig. 15/20 time axes)."""

    full_compile: float = 420.0      # pre-generating one workload's variants
    full_schedule: float = 75.0      # scheduling one variant from scratch
    repair: float = 6.0              # schedule repair after a breaking mutation
    revalidate: float = 1.2          # re-checking an untouched-valid schedule
    model_eval: float = 0.9          # one system-DSE sweep point
    synthesis_hours: float = 3.4     # final Vivado synthesis + P&R


@dataclass
class DseConfig:
    iterations: int = 150
    seed: int = 0
    initial_temperature: float = 0.12
    final_temperature: float = 0.01
    schedule_preserving: bool = True
    preserving_prob: float = 0.35
    upgrade_every: int = 12          # periodic full variant re-scheduling
    max_tiles: int = 16
    seed_width_bits: int = 512
    #: FPGA budget fraction withheld from the tile-count decision and spent
    #: on generality padding instead (caps, links, spare PEs for future
    #: workloads — the paper's Q4/Q5 behavior).
    generality_reserve: float = 0.10
    time_model: TimeModel = field(default_factory=TimeModel)


@dataclass
class DseStats:
    iterations: int = 0
    accepted: int = 0
    rejected_unschedulable: int = 0
    rejected_annealing: int = 0
    preserved_hits: int = 0          # schedules that survived untouched
    repairs: int = 0
    full_schedules: int = 0
    preserving_transforms: int = 0
    random_transforms: int = 0


#: One accepted DSE point with its full resource vector:
#: ``(iteration, modeled_hours, objective, lut, ff, bram, dsp)``.  The
#: resources are the *system total* of the accepted :class:`SystemChoice`
#: (the "does it fit this FPGA budget" number), recorded for every accept
#: — not just the final best.
AcceptedPoint = Tuple[int, float, float, float, float, float, float]

#: One surviving proposal: ``(iteration, ADG*, its repaired schedules)``.
Candidate = Tuple[int, ADG, Dict[str, Schedule]]


@dataclass
class ExplorerState:
    """Complete annealer state at an iteration boundary (checkpointable).

    The accepted ADG is stored as its :mod:`repro.adg.serialize` document
    (plus the id-allocator/edit-stamp counters the document does not carry),
    so a checkpoint written by one process resumes bit-identically in
    another.  Schedules reference hardware by node id and survive the
    round trip because deserialization pins ids.
    """

    iteration: int
    adg_doc: Dict[str, Any]
    adg_next_id: int
    adg_version: int
    schedules: Dict[str, Schedule]
    choice: "SystemChoice"
    rng_state: Any
    stats: DseStats
    history: List[Tuple[int, float, float]]
    modeled_seconds: float
    points: List[AcceptedPoint] = field(default_factory=list)


@dataclass
class DseResult:
    """Outcome of one exploration run."""

    sysadg: SysADG
    schedules: Dict[str, Schedule]
    choice: SystemChoice
    history: List[Tuple[int, float, float]]  # (iteration, modeled_h, objective)
    stats: DseStats
    variant_sets: Dict[str, VariantSet]
    modeled_seconds: float
    #: Every accepted point with its full LUT/FF/BRAM/DSP vector (same
    #: iterations as ``history``; resources are the system total).
    points: List[AcceptedPoint] = field(default_factory=list)

    @property
    def modeled_hours(self) -> float:
        return self.modeled_seconds / 3600.0


class Explorer:
    """Simulated-annealing explorer over (tile ADG x system parameters).

    The one annealing loop, as steps: :meth:`begin` seeds (or restores)
    ``variant_sets``, the accepted ``best = (adg, schedules, choice)`` and
    ``iteration``; :meth:`propose` / :meth:`decide` advance them one
    candidate at a time; :meth:`finish` polishes, pads and returns the
    :class:`DseResult`.  :meth:`run` drives the steps in-process.
    """

    def __init__(
        self,
        workloads: Sequence[Workload],
        config: Optional[DseConfig] = None,
        name: str = "overlay",
    ):
        if not workloads:
            raise ValueError("need at least one workload")
        self.workloads = list(workloads)
        self.config = config or DseConfig()
        self.name = name
        self.rng = random.Random(self.config.seed)
        self.estimator = AnalyticEstimator()
        self.full_budget = usable_budget()
        self.stats = DseStats()
        self.modeled_seconds = 0.0
        self.history: List[Tuple[int, float, float]] = []
        self.points: List[AcceptedPoint] = []

    # -- the step API (:class:`repro.search.AnnealStrategy` drives the
    # same steps with the system sweep shipped to the search evaluator) --
    def begin(self, resume: Optional[ExplorerState] = None) -> None:
        """Seed the accepted state, or restore it from a checkpoint."""
        cfg = self.config
        self.variant_sets = {
            w.name: generate_variants(w) for w in self.workloads
        }
        if resume is not None:
            self.best = self._restore(resume)
            self.iteration = resume.iteration
            return
        self.modeled_seconds += cfg.time_model.full_compile * len(
            self.workloads
        )
        adg = self._initial_adg()
        schedules = self._schedule_all(self.variant_sets, adg)
        if schedules is None:
            raise RuntimeError("seed ADG cannot schedule all workloads")
        choice = self._system_dse(adg, schedules)
        if choice is None:
            raise RuntimeError("seed ADG does not fit the FPGA")
        self.best = (adg, schedules, choice)
        self.iteration = 0
        self._record_accept(0, choice)

    def propose(self) -> Optional[Candidate]:
        """Advance to the next iteration whose proposal survives
        (inapplicable transforms and unrepairable schedules are skipped).
        Returns None once the iteration budget is spent."""
        cfg = self.config
        while self.iteration < cfg.iterations:
            self.iteration += 1
            iteration = self.iteration
            self.stats.iterations = iteration
            add_counter("dse.candidates")
            with span("dse.propose", iteration=iteration):
                candidate = self._propose(self.best[0], self.best[1])
            if candidate is None:
                continue
            cand_adg, cand_schedules = candidate
            if iteration % cfg.upgrade_every == 0:
                with span("dse.upgrade", iteration=iteration):
                    cand_schedules = self._upgrade_variants(
                        self.variant_sets, cand_adg, cand_schedules
                    )
            return iteration, cand_adg, cand_schedules
        return None

    def decide(
        self, candidate: Candidate, choice: Optional[SystemChoice]
    ) -> None:
        """Accept or reject ``candidate`` given its system-sweep result."""
        iteration, cand_adg, cand_schedules = candidate
        self.modeled_seconds += self.config.time_model.model_eval * 60
        if choice is None:
            self.stats.rejected_unschedulable += 1
            add_counter("dse.rejected")
        elif self._accept(choice, self.best[2], iteration):
            self.best = (cand_adg, cand_schedules, choice)
            self.stats.accepted += 1
            add_counter("dse.accepted")
            self._record_accept(iteration, choice)
        else:
            self.stats.rejected_annealing += 1
            add_counter("dse.rejected")

    def finish(self) -> DseResult:
        """Polish and pad the accepted design; charge synthesis."""
        # Final polish: full variant re-scheduling on the winning ADG.
        adg, schedules, choice = self.best
        schedules = self._upgrade_variants(self.variant_sets, adg, schedules)
        choice = self._system_dse(adg, schedules) or choice
        # Generality padding: the DSE "greedily consumes as many resources
        # as possible, even if there is no parallelism" (Q4) so future
        # workloads in the domain have headroom.  Grow capabilities, widths,
        # and capacities as long as the chosen tile count still fits.
        self._pad_for_generality(adg, choice)
        schedules = self._upgrade_variants(self.variant_sets, adg, schedules)
        choice = self._system_dse(adg, schedules) or choice
        self.modeled_seconds += self.config.time_model.synthesis_hours * 3600.0
        sysadg = SysADG(adg=adg, params=choice.params, name=self.name)
        return DseResult(
            sysadg=sysadg,
            schedules=schedules,
            choice=choice,
            history=self.history,
            stats=self.stats,
            variant_sets=self.variant_sets,
            modeled_seconds=self.modeled_seconds,
            points=self.points,
        )

    def run(self) -> DseResult:
        """Drive the steps in-process: the whole annealing loop."""
        self.begin()
        while (candidate := self.propose()) is not None:
            _, adg, schedules = candidate
            self.decide(candidate, self._sweep(adg, schedules))
        return self.finish()

    # ------------------------------------------------------------------
    def _record_accept(self, iteration: int, choice: SystemChoice) -> None:
        """Book one accepted point into both trajectory streams."""
        modeled_h = self.modeled_seconds / 3600.0
        self.history.append((iteration, modeled_h, choice.objective))
        total = choice.system_total
        self.points.append(
            (
                iteration,
                modeled_h,
                choice.objective,
                total.lut,
                total.ff,
                total.bram,
                total.dsp,
            )
        )

    # ------------------------------------------------------------------
    def snapshot(self) -> ExplorerState:
        """Freeze the accepted state into a self-contained checkpoint."""
        adg, schedules, choice = self.best
        return ExplorerState(
            iteration=self.iteration,
            adg_doc=adg_to_dict(adg),
            adg_next_id=adg._next_id,
            adg_version=adg.version,
            schedules={k: s.clone() for k, s in schedules.items()},
            choice=choice,
            rng_state=self.rng.getstate(),
            stats=replace(self.stats),
            history=list(self.history),
            modeled_seconds=self.modeled_seconds,
            points=list(self.points),
        )

    def _restore(
        self, state: ExplorerState
    ) -> Tuple[ADG, Dict[str, Schedule], SystemChoice]:
        """Rebuild the accepted (ADG, schedules, choice) from a checkpoint."""
        adg = adg_from_dict(state.adg_doc)
        adg.restore_counters(state.adg_next_id, state.adg_version)
        self.rng.setstate(state.rng_state)
        self.stats = replace(state.stats)
        self.history = list(state.history)
        self.points = list(state.points)
        self.modeled_seconds = state.modeled_seconds
        schedules = {k: s.clone() for k, s in state.schedules.items()}
        return adg, schedules, state.choice

    def _initial_adg(self) -> ADG:
        return seed_for_workloads(
            self.workloads, width_bits=self.config.seed_width_bits
        )

    def _schedule_all(
        self, variant_sets: Dict[str, VariantSet], adg: ADG
    ) -> Optional[Dict[str, Schedule]]:
        params = SystemParams()
        schedules: Dict[str, Schedule] = {}
        for name, variants in variant_sets.items():
            with span("dse.full_schedule", workload=name):
                schedule = schedule_workload(variants, adg, params)
            self.stats.full_schedules += len(variants.variants)
            self.modeled_seconds += self.config.time_model.full_schedule * len(
                variants.variants
            )
            if schedule is None:
                return None
            schedules[name] = schedule
        return schedules

    def _propose(
        self, adg: ADG, schedules: Dict[str, Schedule]
    ) -> Optional[Tuple[ADG, Dict[str, Schedule]]]:
        cfg = self.config
        candidate = adg.clone()
        clones = {name: s.clone() for name, s in schedules.items()}
        use_preserving = (
            cfg.schedule_preserving and self.rng.random() < cfg.preserving_prob
        )
        try:
            if use_preserving:
                did = collapse_random_switch(
                    candidate, list(clones.values()), self.rng
                )
                if did is None:
                    prune_capabilities(candidate, list(clones.values()))
                self.stats.preserving_transforms += 1
            else:
                apply_random_transform(candidate, self.rng)
                self.stats.random_transforms += 1
        except TransformFailed:
            return None

        params = SystemParams()
        repaired: Dict[str, Schedule] = {}
        for name, old in clones.items():
            # Fast path (Section V-B): an untouched-valid schedule is
            # re-stamped in place — repair never runs, and the modeled
            # charge is a revalidation, not a fraction of a repair.
            fast = revalidate_schedule(old, candidate, params)
            if fast is not None:
                self.stats.preserved_hits += 1
                self.modeled_seconds += cfg.time_model.revalidate
                repaired[name] = fast
                continue
            new = repair_schedule(old, candidate, params)
            if new is None:
                self.stats.rejected_unschedulable += 1
                return None
            self.stats.repairs += 1
            self.modeled_seconds += cfg.time_model.repair
            repaired[name] = new
        return candidate, repaired

    def _upgrade_variants(
        self,
        variant_sets: Dict[str, VariantSet],
        adg: ADG,
        schedules: Dict[str, Schedule],
    ) -> Dict[str, Schedule]:
        """Periodically retry better variants (they may now fit)."""
        params = SystemParams()
        out = dict(schedules)
        for name, variants in variant_sets.items():
            with span("dse.full_schedule", workload=name):
                best = schedule_workload(variants, adg, params)
            self.stats.full_schedules += len(variants.variants)
            self.modeled_seconds += (
                self.config.time_model.full_schedule * len(variants.variants) * 0.4
            )
            if best is None:
                continue
            if best.estimate is None:
                # A variant that schedules but yields no estimate cannot be
                # compared; keep the incumbent instead of crashing mid-anneal.
                if name not in out:
                    out[name] = best
                continue
            current = out.get(name)
            if (
                current is None
                or current.estimate is None
                or best.estimate.ipc > current.estimate.ipc
            ):
                out[name] = best
        return out

    def _pad_for_generality(self, adg: ADG, choice: SystemChoice) -> int:
        """Grow the tile with spare FPGA budget without losing tiles."""
        params = choice.params
        return pad_for_generality(
            adg,
            lambda: max_tiles_that_fit(
                self.estimator.tile(adg),
                params,
                self.full_budget,
                cap=self.config.max_tiles,
            )
            >= params.num_tiles,
        )

    def _system_dse(
        self, adg: ADG, schedules: Dict[str, Schedule]
    ) -> Optional[SystemChoice]:
        self.modeled_seconds += self.config.time_model.model_eval * 60
        return self._sweep(adg, schedules)

    def _sweep(
        self, adg: ADG, schedules: Dict[str, Schedule]
    ) -> Optional[SystemChoice]:
        """The nested system sweep; ``decide`` charges its modeled cost."""
        return sweep_candidate(self.config, adg, schedules, self.estimator)

    def _accept(
        self, candidate: SystemChoice, incumbent: SystemChoice, iteration: int
    ) -> bool:
        if candidate.objective > incumbent.objective:
            return True
        if candidate.objective == incumbent.objective:
            return candidate.tile_resources.lut < incumbent.tile_resources.lut
        cfg = self.config
        progress = iteration / max(1, cfg.iterations)
        temperature = cfg.initial_temperature * (
            (cfg.final_temperature / cfg.initial_temperature) ** progress
        )
        if incumbent.objective <= 0:
            return True
        rel_drop = (incumbent.objective - candidate.objective) / incumbent.objective
        return self.rng.random() < math.exp(-rel_drop / temperature)


def sweep_candidate(
    config: DseConfig,
    adg: ADG,
    schedules: Dict[str, Schedule],
    estimator: Optional[AnalyticEstimator] = None,
) -> Optional[SystemChoice]:
    """The nested system sweep for one candidate ADG and its schedules.

    Tile counts are sized against the budget less
    ``config.generality_reserve``; padding then grows the chosen design
    into the reserve.  The explorer's loop and ``search.evaluate`` both
    score a candidate through this one call.
    """
    return system_dse(
        adg,
        list(schedules.values()),
        estimator=estimator,
        budget=usable_budget() * (1.0 - config.generality_reserve),
        max_tiles=config.max_tiles,
    )


def explore(
    workloads: Sequence[Workload],
    config: Optional[DseConfig] = None,
    name: str = "overlay",
) -> DseResult:
    """Run the full OverGen DSE for a workload set."""
    return Explorer(workloads, config, name).run()
