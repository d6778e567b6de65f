"""Experiment drivers regenerating every table and figure of the paper.

Each ``figXX_*`` / ``tableX_*`` function returns plain data (lists of rows)
plus helpers to render them; the benchmark suite under ``benchmarks/``
wraps these, and ``repro.harness.report`` assembles EXPERIMENTS.md.

DSE runs go through the :mod:`repro.engine` orchestrator, whose
:class:`~repro.engine.store.TieredCache` sits over a persistent on-disk
artifact store (``REPRO_CACHE_DIR``), so suite overlays are reused across
pytest/CLI sessions and recomputed only when workloads, config, or seeds
change.  Cheaper artifacts (simulations, variant sets) stay memoized in
process, in the store-less :data:`CACHE`.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..adg import SysADG, general_overlay
from ..compiler import generate_variants
from ..dse import DseConfig, DseResult
from ..engine.store import TieredCache
from ..hls import (
    AutoDseResult,
    KERNEL_INFO,
    kernel_info,
    run_autodse,
)
from ..ir import Workload
from ..model.resource import (
    CATEGORIES,
    AnalyticEstimator,
    XCVU9P,
)
from ..scheduler import Schedule, schedule_workload
from ..sim import SimResult, reconfiguration_cycles, simulate_schedule
from ..sim.multiplex import FPGA_REFLASH_SECONDS
from ..workloads import PAPER_SUITE_NAMES, get_suite, get_workload
from .tables import geomean


def paper_workloads():
    """The 19 workloads of Table II (paper suites only).

    The experiment harness reproduces the paper's tables and figures, so
    it iterates these rather than :func:`repro.workloads.all_workloads`
    — new scenario families never shift the reproduced numbers.
    """
    out = []
    for suite in PAPER_SUITE_NAMES:
        out.extend(get_suite(suite))
    return out


#: Default DSE effort (keeps a full experiment sweep under a few minutes).
SUITE_DSE_ITERATIONS = 150
WORKLOAD_DSE_ITERATIONS = 80
DSE_SEED = 2

#: Compiling a new application *to an existing overlay* (Fig. 17): LLVM
#: compile plus spatial scheduling, modeled in seconds.
OVERLAY_COMPILE_BASE_S = 2.0
OVERLAY_COMPILE_PER_VARIANT_S = 0.5


# ----------------------------------------------------------------------
# Shared cached artifacts
# ----------------------------------------------------------------------
#: Annealing restarts: the DSE is stochastic, so (like any annealer) it
#: runs from a few seeds and keeps the best objective.
DSE_RESTART_SEEDS = (DSE_SEED, DSE_SEED + 1)

_ENGINE = None

#: In-process cache of everything the drivers share besides DSE results
#: (simulations, variant sets, AutoDSE runs); no disk tier.
CACHE = TieredCache()


def get_engine():
    """The shared DSE engine behind every overlay driver.

    Configured from the environment: ``REPRO_CACHE_DIR`` points the
    persistent artifact store somewhere else (set it empty to disable
    persistence entirely), ``REPRO_DSE_JOBS`` sets the worker-pool width.
    """
    global _ENGINE
    if _ENGINE is None:
        from ..engine import DseEngine

        cache_dir = os.environ.get(
            "REPRO_CACHE_DIR",
            os.path.join(os.path.expanduser("~"), ".cache", "repro-overgen"),
        )
        _ENGINE = DseEngine(
            cache_dir=cache_dir or None,
            workers=int(os.environ.get("REPRO_DSE_JOBS", "1")),
        )
    return _ENGINE


def peek_engine():
    """The shared engine if one was built, without building one."""
    return _ENGINE


def set_engine(engine):
    """Swap the shared engine (tests); returns the previous one."""
    global _ENGINE
    previous = _ENGINE
    _ENGINE = engine
    return previous


def _best_of_seeds(workloads, iterations: int, name: str) -> DseResult:
    return get_engine().explore(
        workloads,
        DseConfig(iterations=iterations, seed=DSE_SEED),
        name=name,
        seeds=DSE_RESTART_SEEDS,
    ).result


def _engine_explore(workloads, name: str, **config_kwargs) -> DseResult:
    config = DseConfig(iterations=SUITE_DSE_ITERATIONS, seed=DSE_SEED)
    if config_kwargs:
        from dataclasses import replace as _replace

        config = _replace(config, **config_kwargs)
    return get_engine().explore(workloads, config, name=name).result


def suite_overlay(suite: str, iterations: int = SUITE_DSE_ITERATIONS) -> DseResult:
    """The suite-specialized overlay (Table III column)."""
    return _best_of_seeds(get_suite(suite), iterations, f"{suite}-OG")


def workload_overlay(
    name: str, iterations: int = WORKLOAD_DSE_ITERATIONS
) -> DseResult:
    """A single-workload-specialized overlay."""
    return _best_of_seeds([get_workload(name)], iterations, f"{name}-OG")


def autodse(name: str, tuned: bool, dram_channels: int = 1) -> AutoDseResult:
    return CACHE.memoized(
        ("autodse", name, tuned, dram_channels),
        lambda: run_autodse(
            get_workload(name), tuned=tuned, dram_channels=dram_channels
        ),
    )


def general_sysadg() -> SysADG:
    return CACHE.memoized(("general-og",), general_overlay)


def _simulate(key_prefix: str, schedule: Schedule, sysadg: SysADG) -> SimResult:
    return CACHE.memoized(
        (
            "sim",
            key_prefix,
            schedule.mdfg.workload,
            schedule.mdfg.variant,
            sysadg.params,
        ),
        lambda: simulate_schedule(schedule, sysadg),
    )


def og_seconds_suite(suite: str, name: str) -> float:
    res = suite_overlay(suite)
    sim = _simulate(f"suite:{suite}", res.schedules[name], res.sysadg)
    return sim.seconds(res.sysadg.params.frequency_mhz)


def og_seconds_workload(name: str) -> float:
    res = workload_overlay(name)
    sim = _simulate(f"wl:{name}", res.schedules[name], res.sysadg)
    return sim.seconds(res.sysadg.params.frequency_mhz)


def og_seconds_general(name: str) -> Optional[float]:
    """Seconds on the hand-designed General overlay (None if unmappable)."""

    def build():
        sysadg = general_sysadg()
        variants = CACHE.memoized(
            ("variants", name), lambda: generate_variants(get_workload(name))
        )
        schedule = schedule_workload(variants, sysadg.adg, sysadg.params)
        if schedule is None:
            return None
        sim = simulate_schedule(schedule, sysadg)
        return sim.seconds(sysadg.params.frequency_mhz)

    return CACHE.memoized(("general-sec", name), build)


# ----------------------------------------------------------------------
# Figure 13: overall performance
# ----------------------------------------------------------------------
@dataclass
class Fig13Row:
    workload: str
    suite: str
    tuned_ad: float      # speedup of tuned AutoDSE over untuned AutoDSE
    general_og: float    # speedup of General overlay over untuned AutoDSE
    suite_og: float
    workload_og: float


def fig13_overall() -> List[Fig13Row]:
    rows = []
    for suite in PAPER_SUITE_NAMES:
        for w in get_suite(suite):
            base = autodse(w.name, tuned=False).design.seconds
            tuned = autodse(w.name, tuned=True).design.seconds
            general = og_seconds_general(w.name)
            rows.append(
                Fig13Row(
                    workload=w.name,
                    suite=suite,
                    tuned_ad=base / tuned,
                    general_og=base / general if general else 0.0,
                    suite_og=base / og_seconds_suite(suite, w.name),
                    workload_og=base / og_seconds_workload(w.name),
                )
            )
    return rows


def fig13_geomeans(rows: Optional[List[Fig13Row]] = None) -> Dict[str, Dict[str, float]]:
    rows = rows if rows is not None else fig13_overall()
    out: Dict[str, Dict[str, float]] = {}
    for suite in PAPER_SUITE_NAMES:
        sub = [r for r in rows if r.suite == suite]
        out[suite] = {
            "tuned_ad": geomean([r.tuned_ad for r in sub]),
            "general_og": geomean([r.general_og for r in sub]),
            "suite_og": geomean([r.suite_og for r in sub]),
            "workload_og": geomean([r.workload_og for r in sub]),
        }
    return out


# ----------------------------------------------------------------------
# Figure 14: effect of kernel tuning
# ----------------------------------------------------------------------
@dataclass
class Fig14Row:
    workload: str
    ad_untuned: float    # speedup over vanilla (untuned) AutoDSE = 1.0
    ad_tuned: float
    wl_og: float


#: The nine workloads studied in Fig. 14 (those that benefit from tuning).
FIG14_WORKLOADS = (
    "cholesky",
    "fft",
    "stencil-3d",
    "crs",
    "gemm",
    "stencil-2d",
    "channel-ext",
    "bgr2grey",
    "blur",
)


def fig14_tuning() -> List[Fig14Row]:
    rows = []
    for name in FIG14_WORKLOADS:
        base = autodse(name, tuned=False).design.seconds
        rows.append(
            Fig14Row(
                workload=name,
                ad_untuned=1.0,
                ad_tuned=base / autodse(name, tuned=True).design.seconds,
                wl_og=base / og_seconds_workload(name),
            )
        )
    return rows


# ----------------------------------------------------------------------
# Figure 15: DSE & synthesis time
# ----------------------------------------------------------------------
@dataclass
class Fig15Row:
    label: str
    suite: str
    dse_hours: float
    synth_hours: float

    @property
    def total_hours(self) -> float:
        return self.dse_hours + self.synth_hours


def fig15_dse_time() -> List[Fig15Row]:
    rows = []
    for suite in PAPER_SUITE_NAMES:
        for w in get_suite(suite):
            ad = autodse(w.name, tuned=False)
            rows.append(
                Fig15Row(w.name, suite, ad.dse_hours, ad.synth_hours)
            )
        res = suite_overlay(suite)
        synth = DseConfig().time_model.synthesis_hours
        rows.append(
            Fig15Row("suite", suite, res.modeled_hours - synth, synth)
        )
    return rows


def fig15_summary(rows: Optional[List[Fig15Row]] = None) -> Dict[str, float]:
    """OverGen suite-DSE time as a fraction of AutoDSE's combined time."""
    rows = rows if rows is not None else fig15_dse_time()
    out = {}
    total_ad = total_og = 0.0
    for suite in PAPER_SUITE_NAMES:
        ad = sum(r.total_hours for r in rows if r.suite == suite and r.label != "suite")
        og = sum(r.total_hours for r in rows if r.suite == suite and r.label == "suite")
        out[f"{suite}_autodse_h"] = ad
        out[f"{suite}_overgen_h"] = og
        total_ad += ad
        total_og += og
    out["fraction"] = total_og / total_ad
    return out


# ----------------------------------------------------------------------
# Figure 16: FPGA resource breakdown
# ----------------------------------------------------------------------
@dataclass
class Fig16Row:
    label: str
    kind: str  # "overlay" or "autodse"
    lut: float
    ff: float
    bram: float
    dsp: float
    by_category: Dict[str, float]  # category -> LUT fraction of device


def _overlay_resource_row(label: str, res: DseResult) -> Fig16Row:
    est = AnalyticEstimator()
    breakdown = est.system_breakdown(res.sysadg)
    total = est.system(res.sysadg)
    util = total.utilization(XCVU9P)
    return Fig16Row(
        label=label,
        kind="overlay",
        lut=util["lut"],
        ff=util["ff"],
        bram=util["bram"],
        dsp=util["dsp"],
        by_category={
            cat: breakdown[cat].lut / XCVU9P.lut for cat in CATEGORIES
        },
    )


def fig16_overlays() -> List[Fig16Row]:
    rows = []
    for suite in PAPER_SUITE_NAMES:
        for w in get_suite(suite):
            rows.append(
                _overlay_resource_row(w.name, workload_overlay(w.name))
            )
        rows.append(_overlay_resource_row(f"{suite}-suite", suite_overlay(suite)))
    return rows


def fig16_autodse() -> List[Fig16Row]:
    rows = []
    for w in paper_workloads():
        design = autodse(w.name, tuned=True).design
        util = design.resources.utilization(XCVU9P)
        rows.append(
            Fig16Row(
                label=w.name,
                kind="autodse",
                lut=util["lut"],
                ff=util["ff"],
                bram=util["bram"],
                dsp=util["dsp"],
                by_category={},
            )
        )
    return rows


# ----------------------------------------------------------------------
# Figure 17: leave-one-out flexibility
# ----------------------------------------------------------------------
@dataclass
class Fig17Row:
    workload: str
    mapped: bool
    relative_performance: float     # vs the full suite overlay
    compile_speedup: float          # overlay compile vs HLS flow
    reconfig_speedup: float         # overlay reconfig vs FPGA reflash


def leave_one_out_overlay(suite: str, excluded: str) -> DseResult:
    workloads = [w for w in get_suite(suite) if w.name != excluded]
    return _best_of_seeds(
        workloads, SUITE_DSE_ITERATIONS, f"{suite}-minus-{excluded}"
    )


def fig17_leave_one_out(suite: str = "machsuite") -> List[Fig17Row]:
    rows = []
    for w in get_suite(suite):
        loo = leave_one_out_overlay(suite, w.name)
        variants = CACHE.memoized(
            ("variants", w.name), lambda: generate_variants(get_workload(w.name))
        )
        schedule = schedule_workload(variants, loo.sysadg.adg, loo.sysadg.params)
        full_seconds = og_seconds_suite(suite, w.name)
        if schedule is None:
            rows.append(Fig17Row(w.name, False, 0.0, 0.0, 0.0))
            continue
        sim = simulate_schedule(schedule, loo.sysadg)
        seconds = sim.seconds(loo.sysadg.params.frequency_mhz)
        # Compile/reconfig comparisons (new app on an existing overlay).
        compile_s = (
            OVERLAY_COMPILE_BASE_S
            + OVERLAY_COMPILE_PER_VARIANT_S * len(variants.variants)
        )
        hls_s = autodse(w.name, tuned=False).total_hours * 3600.0
        reconfig_s = reconfiguration_cycles(schedule) / (
            loo.sysadg.params.frequency_mhz * 1e6
        )
        rows.append(
            Fig17Row(
                workload=w.name,
                mapped=True,
                relative_performance=full_seconds / seconds,
                compile_speedup=hls_s / compile_s,
                reconfig_speedup=FPGA_REFLASH_SECONDS / reconfig_s,
            )
        )
    return rows


# ----------------------------------------------------------------------
# Figure 18: incremental workload addition
# ----------------------------------------------------------------------
@dataclass
class Fig18Row:
    added: str
    num_workloads: int
    tiles: int
    lut_per_tile_fraction: float
    datapath_fraction: float        # pe + n/w + vp share of device, per tile
    geomean_ipc: float


#: Paper Fig. 18's incremental order for MachSuite.
FIG18_ORDER = ("stencil-2d", "gemm", "stencil-3d", "ellpack", "crs")


def fig18_incremental() -> List[Fig18Row]:
    rows = []
    current: List[Workload] = []
    for name in FIG18_ORDER:
        current.append(get_workload(name))
        names = tuple(w.name for w in current)
        res = _engine_explore(list(current), "+".join(names))
        est = AnalyticEstimator()
        tile_breakdown = est.tile_breakdown(res.sysadg.adg)
        tile_lut = sum(r.lut for r in tile_breakdown.values())
        datapath = sum(
            tile_breakdown[cat].lut for cat in ("pe", "n/w", "vp")
        )
        rows.append(
            Fig18Row(
                added=f"+{name}",
                num_workloads=len(current),
                tiles=res.sysadg.params.num_tiles,
                lut_per_tile_fraction=tile_lut / XCVU9P.lut,
                datapath_fraction=datapath / XCVU9P.lut,
                geomean_ipc=res.choice.objective,
            )
        )
    return rows


def fig18_generality_cost() -> float:
    """Performance retained by the first workload once all five share the
    overlay (paper: supporting the whole suite costs mean ~8%)."""
    rows = fig18_incremental()
    first_name = FIG18_ORDER[0]
    first = _engine_explore([get_workload(first_name)], first_name)
    final = _engine_explore(
        [get_workload(n) for n in FIG18_ORDER], "+".join(FIG18_ORDER)
    )
    alone = first.choice.estimates[first_name].ipc
    shared = final.choice.estimates[first_name].ipc
    return shared / alone


# ----------------------------------------------------------------------
# Figure 19: DRAM channel scaling
# ----------------------------------------------------------------------
@dataclass
class Fig19Row:
    workload: str
    og_speedup: Dict[int, float]   # channels -> speedup vs 1 channel
    ad_speedup: Dict[int, float]


def fig19_dram_channels(channel_counts=(1, 2, 4)) -> List[Fig19Row]:
    rows = []
    for w in paper_workloads():
        res = workload_overlay(w.name)
        og: Dict[int, float] = {}
        base_cycles = None
        for channels in channel_counts:
            sysadg = res.sysadg.with_params(dram_channels=channels)
            sim = CACHE.memoized(
                ("fig19-sim", w.name, channels),
                lambda s=sysadg: simulate_schedule(
                    res.schedules[w.name], s
                ),
            )
            if base_cycles is None:
                base_cycles = sim.cycles
            og[channels] = base_cycles / sim.cycles
        ad: Dict[int, float] = {}
        ad_base = None
        for channels in channel_counts:
            design = autodse(w.name, tuned=False, dram_channels=channels).design
            if ad_base is None:
                ad_base = design.cycles
            ad[channels] = ad_base / design.cycles
        rows.append(Fig19Row(w.name, og, ad))
    return rows


# ----------------------------------------------------------------------
# Figure 20: schedule-preserving transformations
# ----------------------------------------------------------------------
@dataclass
class Fig20Result:
    suite: str
    preserved_history: List[Tuple[int, float, float]]
    nonpreserved_history: List[Tuple[int, float, float]]
    preserved_ipc: float
    nonpreserved_ipc: float
    preserved_hours: float
    nonpreserved_hours: float

    @property
    def ipc_improvement(self) -> float:
        if self.nonpreserved_ipc <= 0:
            return 0.0
        return self.preserved_ipc / self.nonpreserved_ipc

    @property
    def time_reduction(self) -> float:
        if self.nonpreserved_hours <= 0:
            return 0.0
        return 1.0 - self.preserved_hours / self.nonpreserved_hours


def fig20_schedule_preserving(suite: str) -> Fig20Result:
    def build(preserving: bool) -> DseResult:
        return _engine_explore(
            get_suite(suite),
            f"{suite}-{'p' if preserving else 'np'}",
            schedule_preserving=preserving,
        )

    on = build(True)
    off = build(False)
    return Fig20Result(
        suite=suite,
        preserved_history=on.history,
        nonpreserved_history=off.history,
        preserved_ipc=on.choice.objective,
        nonpreserved_ipc=off.choice.objective,
        preserved_hours=on.modeled_hours,
        nonpreserved_hours=off.modeled_hours,
    )


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def table2_workload_specs() -> List[Dict]:
    """Table II: size/dtype plus the best DFG's port/array/op statistics."""
    from ..ir import Op

    rows = []
    for w in paper_workloads():
        variants = CACHE.memoized(
            ("variants", w.name), lambda w=w: generate_variants(w)
        )
        best = variants.best
        counts = w.op_counts()
        unroll = best.unroll
        rows.append(
            {
                "workload": w.name,
                "suite": w.suite,
                "size": w.size_desc,
                "type": w.dtype.name,
                "ivp": len(best.input_ports),
                "ovp": len(best.output_ports),
                "arr": len(best.arrays),
                "mul": counts.get(Op.MUL, 0) * unroll,
                "add": (
                    counts.get(Op.ADD, 0)
                    + counts.get(Op.SUB, 0)
                    + counts.get(Op.MAX, 0)
                    + counts.get(Op.MIN, 0)
                )
                * unroll,
                "div": (
                    counts.get(Op.DIV, 0) + counts.get(Op.SQRT, 0)
                )
                * unroll,
            }
        )
    return rows


def table3_suite_overlays() -> List[Dict]:
    """Table III: specifications of the suite-specialized overlays."""
    from ..adg import NodeKind

    rows = []
    overlays = [(s, suite_overlay(s)) for s in PAPER_SUITE_NAMES]
    overlays.append(("general", None))
    for label, res in overlays:
        if res is None:
            sysadg = general_sysadg()
        else:
            sysadg = res.sysadg
        adg, p = sysadg.adg, sysadg.params
        int_caps = {"add": 0, "mul": 0, "div": 0}
        flt_caps = {"add": 0, "mul": 0, "div": 0, "sqrt": 0}
        for pe in adg.pes:
            ops = {(c.op.value, c.is_float) for c in pe.caps}
            for op, is_float in ops:
                target = flt_caps if is_float else int_caps
                if op in target:
                    target[op] += 1
                elif op == "sqrt" and is_float:
                    target["sqrt"] += 1
        rows.append(
            {
                "overlay": label,
                "tiles": p.num_tiles,
                "l2_banks": p.l2_banks,
                "l2_kib": p.l2_kib,
                "noc_bytes": p.noc_bytes_per_cycle,
                "pes": len(adg.pes),
                "switches": len(adg.switches),
                "avg_radix": round(adg.avg_switch_radix(), 2),
                "int_fus": "/".join(str(int_caps[k]) for k in ("add", "mul", "div")),
                "flt_fus": "/".join(
                    str(flt_caps[k]) for k in ("add", "mul", "div", "sqrt")
                ),
                "spads": len(adg.spads),
                "spad_kib": sum(s.capacity_bytes for s in adg.spads) // 1024,
                "spad_indirect": any(s.indirect for s in adg.spads),
                "in_port_bytes": sum(q.width_bytes for q in adg.in_ports),
                "out_port_bytes": sum(q.width_bytes for q in adg.out_ports),
            }
        )
    return rows


def table4_hls_ii() -> List[Dict]:
    """Table IV: HLS initiation intervals, untuned vs tuned.

    Pinned to the paper workloads: the scenario families also carry HLS
    kernel info, but Table IV reproduces the paper's seven rows.
    """
    paper_names = {w.name for w in paper_workloads()}
    rows = []
    for name, info in KERNEL_INFO.items():
        if name not in paper_names:
            continue
        if info.untuned_ii > 1:
            rows.append(
                {
                    "workload": name,
                    "cause": info.cause,
                    "untuned_ii": info.untuned_ii,
                    "tuned_ii": info.tuned_ii,
                }
            )
    return rows


def families_end_to_end() -> List[Dict]:
    """Scenario families through the whole pipeline (EXPERIMENTS.md).

    Every fsm/tdm/irregular workload is scheduled and simulated on the
    General overlay; each family's seed overlay is then emitted through
    both RTL backends and floorplanned.  Returns one row per workload
    with the family-level RTL/floorplan columns repeated.
    """
    from ..adg import SystemParams, seed_for_workloads
    from ..rtl import (
        build_design,
        design_stats,
        estimated_frequency,
        get_backend,
    )
    from ..rtl import floorplan as make_floorplan
    from ..workloads import SUITE_NAMES

    rows: List[Dict] = []
    sysadg = general_sysadg()
    for suite in SUITE_NAMES:
        if suite in PAPER_SUITE_NAMES:
            continue
        workloads = get_suite(suite)
        seed = SysADG(
            adg=seed_for_workloads(workloads),
            params=SystemParams(num_tiles=2),
            name=f"{suite}-seed",
        )
        design = build_design(seed)
        stats = design_stats(design)
        emitted = {
            name: len(get_backend(name).render_design(design).splitlines())
            for name in ("verilog", "migen")
        }
        plan = make_floorplan(seed)
        for w in workloads:
            variants = CACHE.memoized(
                ("variants", w.name), lambda w=w: generate_variants(w)
            )
            schedule = schedule_workload(variants, sysadg.adg, sysadg.params)
            sim = (
                _simulate(f"family:{suite}", schedule, sysadg)
                if schedule is not None
                else None
            )
            rows.append(
                {
                    "workload": w.name,
                    "family": suite,
                    "schedules": schedule is not None,
                    "ipc": sim.ipc if sim is not None else 0.0,
                    "modules": stats["modules"],
                    "verilog_lines": emitted["verilog"],
                    "migen_lines": emitted["migen"],
                    "feasible": plan.feasible,
                    "mhz": round(estimated_frequency(plan), 2),
                }
            )
    return rows
