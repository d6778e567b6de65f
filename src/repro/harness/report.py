"""EXPERIMENTS.md generation: paper-vs-measured for every table/figure.

Run ``python -m repro report [-o output-path]`` from the repo root to
regenerate the report (it runs every DSE and simulation in the suite).
The output depends only on the source tree and the committed
``BENCH_pipeline.json``: no environment, no artifact store and no
wall-clock reading, so ``repro report -o EXPERIMENTS.md`` followed by
``git diff --exit-code -- EXPERIMENTS.md`` is the check that the paper
tables did not move.
"""

from __future__ import annotations

import asyncio
import os
import tempfile
from collections import Counter

from ..adg import sysadg_to_dict
from ..cluster import BackendSpec, ClusterRouter, RouterConfig
from ..dse import DseConfig
from ..dse.explorer import MOVE_OUTCOMES
from ..engine import MetricsLogger, OverlayRegistry
from ..model.resource.dataset import TABLE1_COUNTS
from ..model.resource.mlp import MlEstimator
from ..rtl import estimated_frequency, floorplan
from ..search import Axis, SearchSettings, frontier_doc, run_search
from ..serve import OverlayServer, ServeClient, ServeConfig, run_load
from ..validate import CampaignConfig, ToleranceBands, fuzz_run, soak_run
from ..workloads import PAPER_SUITE_NAMES, get_suite, get_workload
from . import experiments as ex
from . import paper
from .paper import claim
from .tables import geomean, render_table


def _fig13_section() -> str:
    rows = ex.fig13_overall()
    means = ex.fig13_geomeans(rows)
    return "\n\n".join([
        "## Fig. 13 — Overall performance vs AutoDSE",
        render_table(
            ["suite", "suite-OG vs untuned AD (paper)", "(measured)",
             "suite-OG vs tuned AD (paper)", "(measured)"],
            [
                (
                    s, claim(f"fig13.vs_untuned.{s}").shown,
                    f"{means[s]['suite_og']:.2f}x",
                    claim(f"fig13.vs_tuned.{s}").shown,
                    f"{means[s]['suite_og'] / means[s]['tuned_ad']:.2f}x",
                )
                for s in PAPER_SUITE_NAMES
            ],
        ),
        render_table(
            ["workload", "suite", "tuned-AD", "general-OG", "suite-OG",
             "w/l-OG"],
            [
                (r.workload, r.suite, f"{r.tuned_ad:.2f}",
                 f"{r.general_og:.2f}" if r.general_og else "n/a",
                 f"{r.suite_og:.2f}", f"{r.workload_og:.2f}")
                for r in rows
            ],
            title="Per-workload speedup over untuned AutoDSE:",
        ),
    ])


def _fig14_section() -> str:
    rows = ex.fig14_tuning()
    return "\n\n".join([
        "## Fig. 14 — Effect of kernel tuning",
        "Paper: HLS gains far more from manual tuning than OverGen "
        "(OverGen's ISA handles variable trips / strided access natively). "
        f"Measured tuned-AD geomean gain: "
        f"{geomean([r.ad_tuned for r in rows]):.2f}x.",
        render_table(
            ["workload", "AD tuned gain", "w/l-OG vs untuned AD"],
            [(r.workload, f"{r.ad_tuned:.2f}x", f"{r.wl_og:.2f}x") for r in rows],
        ),
        "*Substitution*: the paper also hand-tunes 4 OverGen kernels "
        "(fft/gemm/stencil-2d/blur); our compiler applies its "
        "transformations automatically, so only the AutoDSE tuning axis "
        "is swept.",
    ])


def _fig15_section() -> str:
    summary = ex.fig15_summary()
    return "\n\n".join([
        "## Fig. 15 — DSE & synthesis time",
        render_table(
            ["suite", "AutoDSE total (paper)", "AutoDSE (ours, modeled)",
             "OverGen suite DSE (ours, modeled)"],
            [
                (s, claim(f"fig15.autodse_h.{s}").shown,
                 f"{summary[f'{s}_autodse_h']:.1f}h",
                 f"{summary[f'{s}_overgen_h']:.1f}h")
                for s in PAPER_SUITE_NAMES
            ],
        ),
        "OverGen/AutoDSE time fraction: paper "
        f"{claim('fig15.fraction').shown}, measured "
        f"{summary['fraction']:.0%} (toolchain costs are modeled constants; "
        "see `TimeModel`).",
    ])


def _fig16_section() -> str:
    overlays = ex.fig16_overlays()
    ad = ex.fig16_autodse()
    lut_values = [r.lut for r in overlays]
    return "\n\n".join([
        "## Fig. 16 — FPGA resource breakdown",
        f"Overlay LUT occupation: paper {claim('fig16.overlay_lut').shown}; "
        "measured "
        f"{min(lut_values):.0%}-{max(lut_values):.0%} "
        "(LUTs are the limiting resource in every design). AutoDSE designs "
        f"use {min(r.lut for r in ad):.0%}-{max(r.lut for r in ad):.0%}.",
    ])


def _fig17_section() -> str:
    rows = ex.fig17_leave_one_out()
    mapped = [r for r in rows if r.mapped]
    maps, loss, compile_x, reconfig_x = (
        claim(f"fig17.{key}").shown for key in (
            "mapped", "degradation", "compile_speedup", "reconfig_speedup"))
    return "\n\n".join([
        "## Fig. 17 — Leave-one-out flexibility (MachSuite)",
        render_table(
            ["left-out", "maps?", "rel perf", "compile speedup",
             "reconfig speedup"],
            [
                (r.workload, "yes" if r.mapped else "NO",
                 f"{r.relative_performance:.0%}" if r.mapped else "-",
                 f"{r.compile_speedup:,.0f}x" if r.mapped else "-",
                 f"{r.reconfig_speedup:,.0f}x" if r.mapped else "-")
                for r in rows
            ],
        ),
        f"Paper: {maps}, mean ~{loss} degradation, {compile_x} compile, "
        f"{reconfig_x} reconfig. Measured: {len(mapped)}/5 map.",
    ])


def _fig18_section() -> str:
    rows = ex.fig18_incremental()
    return "\n\n".join([
        "## Fig. 18 — Incremental design optimization",
        render_table(
            ["added", "tiles", "LUT/tile", "datapath LUT/tile"],
            [
                (r.added, r.tiles, f"{r.lut_per_tile_fraction:.1%}",
                 f"{r.datapath_fraction:.1%}")
                for r in rows
            ],
        ),
        f"Paper: tiles fall {claim('fig18.tiles_first').shown} -> "
        f"{claim('fig18.tiles_last').shown} while the per-tile datapath "
        f"grows; measured: {rows[0].tiles} -> {rows[-1].tiles} with "
        f"per-tile LUT "
        f"{rows[0].lut_per_tile_fraction:.1%} -> "
        f"{rows[-1].lut_per_tile_fraction:.1%}.",
    ])


def _fig19_section() -> str:
    rows = ex.fig19_dram_channels()
    og4 = geomean([r.og_speedup[4] for r in rows])
    ad4 = geomean([r.ad_speedup[4] for r in rows])
    og_gain, ad_gain = (
        claim(f"fig19.{key}").value - 1 for key in ("og_gain", "ad_gain")
    )
    gainers = [r.workload for r in rows if r.og_speedup[4] > 1.1]
    return (
        "## Fig. 19 — DRAM channel scaling\n\n"
        f"Geomean 4-channel speedup across all 19 kernels: OverGen "
        f"{og4:.2f}x, AutoDSE {ad4:.2f}x (paper: benefits concentrate in "
        f"memory-intensive kernels, mean ~{og_gain * 100:.0f}-{ad_gain:.0%} "
        "on the benefiting sets).\n"
        f"OverGen kernels gaining >10%: {', '.join(gainers)}."
    )


def _fig20_section() -> str:
    results = [ex.fig20_schedule_preserving(s) for s in PAPER_SUITE_NAMES]
    mean_ratio = geomean([r.ipc_improvement for r in results])
    return "\n\n".join([
        "## Fig. 20 — Schedule-preserving transformations",
        render_table(
            ["suite", "est IPC ratio (preserved/non)", "DSE-time reduction"],
            [
                (r.suite, f"{r.ipc_improvement:.2f}x",
                 f"{r.time_reduction:+.0%}")
                for r in results
            ],
        ),
        f"Paper: {claim('fig20.ipc_ratio').shown} estimated IPC, "
        f"~{claim('fig20.time_reduction').shown} DSE-time reduction; measured "
        f"geomean IPC ratio {mean_ratio:.2f}x.",
        *_wall_clock_lines(),
    ])


def _pareto_section(trials: int = 24, seed: int = 3) -> str:
    """Multi-objective search study: the Fig. 14-16 axes, jointly.

    Figs. 14-16 tell the paper's resource story one axis at a time —
    performance (Fig. 14), DSE time (Fig. 15), and FPGA occupation
    (Fig. 16).  The study service reports the joint trade-off: every
    evaluated overlay is an (objective, LUT) point, and the frontier
    below is the set of designs no other evaluated overlay beats on
    both axes at once.
    """
    names = ["fir", "vecmax", "bgr2grey"]
    outcome = run_search(
        [get_workload(n) for n in names],
        DseConfig(iterations=trials, seed=seed),
        SearchSettings(strategy="tpe", trials=trials, batch=4, seed=seed),
        name="pareto-report",
    )
    study = outcome.study
    axes = (Axis("objective", "max"), Axis("lut", "min"))
    doc = frontier_doc(study, axes=axes)
    return "\n\n".join([
        "## Pareto study — performance vs LUT (Figs. 14-16 jointly)",
        f"`repro dse {','.join(names)} --strategy tpe --trials {trials} "
        f"--batch 4 -s {seed} --pareto`: one TPE study over a "
        f"three-kernel mix, {len(study.trials)} trials "
        f"({len(study.feasible_trials())} feasible), axes "
        f"{' / '.join(doc['axes'])}, hypervolume "
        f"{doc['hypervolume']:,.0f}.",
        render_table(
            ["frontier trial", "objective", "LUT"],
            [
                (p["trial"], f"{p['objective']:.2f}", f"{p['lut']:,.0f}")
                for p in doc["points"]
            ],
        ),
        "Figs. 14-16 show performance, DSE time, and resource occupation "
        "as separate per-suite bars; the frontier collapses them into one "
        "answer per LUT budget (\"the best overlay that fits\").  The "
        "study is persistent and content-addressed: rerunning the same "
        "command resumes from the engine store, and the exported frontier "
        "JSON is byte-identical for any `--workers` value.",
    ])


#: The benchmark's committed traced run, written by ``python3
#: bench/run.py --seed 2 --trace 1 --out BENCH_pipeline.json``: the only
#: wall-clock figures the report quotes.
PIPELINE_BENCH = "BENCH_pipeline.json"


def _pipeline_doc():
    """BENCH_pipeline.json at the repo root, if it is a traced run.

    None when the file is missing or unreadable, has another ``schema``,
    or comes from an untraced run (a workload without ``per_layer``).
    """
    import json

    try:
        with open(os.path.join(os.getcwd(), PIPELINE_BENCH)) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(doc, dict) or doc.get("schema") != 1:
        return None
    workloads = doc.get("workloads")
    if not isinstance(workloads, dict) or not all(
        "per_layer" in w for w in workloads.values()
    ):
        return None
    return doc


def _wall_clock_lines() -> list:
    """Fig. 20's measured paragraphs: the fast path vs repair, from
    ``overlay_gen``'s traced rep, and the simulator's rates, from
    ``sim_long`` and ``sim_batch_short``."""
    doc = _pipeline_doc()
    if doc is None:
        return []
    workloads = doc["workloads"]
    run = f"`python3 bench/run.py --seed {doc['seed']} --trace 1`"
    lines = []
    gen = workloads.get("overlay_gen")
    layer = gen["per_layer"] if gen else {}
    revalidates = layer.get("scheduler.revalidate_calls", 0)
    repairs = layer.get("scheduler.repair_calls", 0)
    fast = layer.get("scheduler.revalidate_ms", 0) / max(revalidates, 1)
    slow = layer.get("scheduler.repair_ms", 0) / max(repairs, 1)
    if fast and slow:
        lines.append(
            f"Measured wall-clock ({run}, one traced `overlay_gen` rep, "
            f"{PIPELINE_BENCH}): preserved-hit share "
            f"{layer['scheduler.preserved_hit_share']:.1%}; the "
            f"schedule-preserving fast path averaged {fast:.3f} ms over "
            f"{revalidates:.0f} revalidations vs {slow:.3f} ms over "
            f"{repairs:.0f} repairs ({slow / fast:.1f}x faster), "
            f"{gen['end_to_end']['ops_per_s']['value']:.0f} candidates/s "
            f"end to end."
        )
    long, short = (
        workloads.get(name, {}).get("end_to_end")
        for name in ("sim_long", "sim_batch_short")
    )
    if long and short:
        lines.append(
            f"Simulator throughput ({run}, {PIPELINE_BENCH}): `sim_long` "
            f"steps {long['sim_cycles_per_s']['value']:,.0f} cycles/s "
            f"({long['ops_per_s']['value']:.1f} exact simulations/s); "
            f"`sim_batch_short`, `simulate_batch` over short regions, runs "
            f"{short['ops_per_s']['value']:,.0f} regions/s "
            f"({short['sim_cycles_per_s']['value']:,.0f} stepped cycles/s)."
        )
    return lines


def _fig11_12_section() -> str:
    plan = floorplan(ex.general_sysadg())
    freq = estimated_frequency(plan)
    return "\n\n".join([
        "## Fig. 11 — Stream-table one-hot bypass",
        f"Single-stream issue rate: {ex.fig11_issue_rate(False):.2f}/cycle "
        f"without the bypass, {ex.fig11_issue_rate(True):.2f}/cycle with it "
        f"(paper: {claim('fig11.no_bypass').shown} -> "
        f"{claim('fig11.bypass').shown}).",
        "## Fig. 12 — Quad-tile floorplan",
        f"```\n{plan.ascii_art()}\n```\n"
        f"Estimated clock {freq:.1f} MHz (paper: "
        f"{claim('fig12.clock_mhz').shown}, critical path in L2 MSHR logic).",
    ])


def _tables_section() -> str:
    est = MlEstimator(dataset_scale=0.05)
    rows = ex.table2_workload_specs()
    t3 = ex.table3_suite_overlays(ml=est)
    t4 = ex.table4_hls_ii()
    return "\n\n".join([
        "## Table I — ML resource-model dataset",
        render_table(
            ["family", "paper #synth", "LUT err", "FF err"],
            [
                (fam, TABLE1_COUNTS[fam],
                 f"{est.training_error[fam]['lut']:.1%}",
                 f"{est.training_error[fam]['ff']:.1%}")
                for fam in TABLE1_COUNTS
            ],
        ),
        "## Table II — Workload specifications",
        render_table(
            ["workload", "size", "type", "#ivp", "#ovp", "#arr", "#m,a,d"],
            [
                (r["workload"], r["size"], r["type"], r["ivp"], r["ovp"],
                 r["arr"], f"{r['mul']},{r['add']},{r['div']}")
                for r in rows
            ],
        ),
        "## Table III — Suite overlay specifications",
        render_table(
            ["overlay", "tiles", "L2 banks", "NoC B", "PEs", "SWs",
             "int +/x/div", "flt +/x/div/sqrt", "spad KiB", "in B", "out B"],
            [
                (r["overlay"], r["tiles"], r["l2_banks"], r["noc_bytes"],
                 r["pes"], r["switches"], r["int_fus"], r["flt_fus"],
                 r["spad_kib"], r["in_port_bytes"], r["out_port_bytes"])
                for r in t3
            ],
        ),
        "## Table III overlays — analytic → ML resource model",
        render_table(
            ["overlay", "LUT / tile", "system LUT util", "tiles that fit"],
            [
                (r["overlay"], "{:.0f} → {:.0f}".format(*r["tile_lut"]),
                 "{:.3f} → {:.3f}".format(*r["lut_util"]),
                 "{} → {}".format(*r["tiles_fit"]))
                for r in t3 if "tiles_fit" in r
            ],
        ),
        "## Table IV — HLS initiation intervals",
        render_table(
            ["workload", "cause", "untuned II", "tuned II"],
            [
                (r["workload"], r["cause"], r["untuned_ii"], r["tuned_ii"])
                for r in t4
            ],
        ),
        "(Table IV values are the paper's measured IIs, encoded as "
        "model inputs — reproduced exactly by construction.)",
    ])


def _engine_section() -> str:
    """DSE-engine accounting for the run that produced this report."""
    s = ex.ENGINE.stats
    blocks = [
        "## DSE engine — cache & run metrics",
        render_table(
            ["jobs", "cache hits", "misses", "iterations run", "seeds run",
             "crashes", "resumes", "modeled"],
            [(
                s.jobs, s.cache_hits, s.cache_misses, s.iterations_run,
                s.seeds_run, s.worker_crashes, s.resumes,
                f"{s.modeled_seconds / 3600:.1f}h",
            )],
        ),
    ]
    runs = ex.ENGINE.metrics.of_type("run_end")
    if runs:
        blocks.append(render_table(
            ["job", "seeds", "iters", "accept", "best seed", "objective"],
            [
                (r["name"], len(r["seeds"]), r["iterations"],
                 f"{r['acceptance_rate']:.0%}", r["best_seed"],
                 f"{r['objective']:.2f}")
                for r in runs
            ],
            title="Per-job annealing runs (cache misses only):",
        ))
    return "\n\n".join(blocks)


def _ledger_section() -> str:
    """Every claim of ``paper.CLAIMS`` beside its measurement.  Its drivers
    hit the engine's memory tier, so it follows :func:`_engine_section`."""
    intro = (
        "One row per numeric claim of `repro.harness.paper`.  A claim with a "
        "baseline (1.0 for a speedup) reads *winner reversed* when paper and "
        "measured fall on opposite sides of it; otherwise *same winner, "
        "within 2×* when the two overlap or differ by at most 2×, else "
        "*factor off*.  A mismatch names a mechanism only from "
        "`paper.MECHANISMS`, by the code that produces its evidence; every "
        "other mismatch reads `open`."
    )
    table = render_table(
        ["figure", "claim", "paper", "measured", "verdict", "mechanism"],
        [
            (r.claim.figure, r.claim.claim, r.claim.render(r.claim.value),
             r.claim.render(r.measured), r.verdict,
             "; ".join(map(_mechanism, r.mechanisms)))
            for r in ex.paper_ledger()
        ],
    )
    return "\n\n".join(["## Paper vs measured — ledger", intro, table])


def _anatomy_section() -> str:
    """Where the report's DSE hours and moves went.  Its runs hit the
    engine's memory tier, so it follows :func:`_engine_section`."""
    runs, moves = ex.dse_anatomy()
    intro = (
        "Where the report's DSE runs spent their modeled hours, by the kind "
        "`Explorer._charge` booked each `TimeModel` price as, and what each "
        "move came to.  The suite overlays are their best seed; `-p` and "
        "`-np` are Fig. 20's runs with and without schedule-preserving "
        "transforms.  The paper's mechanism for Fig. 20's time saving, a "
        "revalidation in place of a repair, is the *revalidate + repair* "
        "column; *re-scheduling* is the periodic full variant "
        "re-scheduling.  A no-op rejection is an edit that changed "
        "nothing, booked unswept."
    )
    hours = render_table(
        ["run", "mode", "total h", *ex.ANATOMY_HOURS, "no-op rejections"],
        [
            (r.run, r.mode, f"{r.total_hours:.2f}",
             *(f"{h:.2f}" for h in r.hours.values()), r.noops)
            for r in runs
        ],
    )
    tally = render_table(
        ["move", *MOVE_OUTCOMES],
        [
            (f"`{move}`", *(counts[o] for o in MOVE_OUTCOMES))
            for move, counts in moves.items()
        ],
        title=(
            f"Per move, summed over the {len(runs)} runs (a *repaired* "
            "proposal survived at least one schedule repair):"
        ),
    )
    return "\n\n".join([
        "## DSE anatomy — where the modeled hours and the moves went",
        intro, hours, tally,
    ])


def _audit_section() -> str:
    """Shipped schedules the engine contract rejects.  Its runs hit the
    engine's memory tier, so it follows :func:`_engine_section`."""
    rows, results, schedules = ex.legality_audit()
    kinds = Counter(f.kind for row in rows for f in row.findings)
    intro = (
        f"Every schedule the report's {results} DSE results ship "
        f"({schedules} in all), checked against its overlay by "
        "`scheduler.legality.engine_violations`, the binder's own rules: "
        "scratchpad capacity and recurrence depth (*capacity*), indirect "
        "support (*indirect*) and the engine's link with its hardware port "
        f"(*engine_link*).  {len(rows)} schedules break it ("
        + ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items()))
        + " findings).  No fresh schedule of the schedule golden test "
        "breaks it; these were carried across a DSE edit by "
        "`repair_schedule`, whose rung 0 reads only `hardware_violations` "
        "(ROADMAP item 1a), so each number the report takes from one of "
        "them rests on an illegal schedule."
    )
    table = render_table(
        ["run", "workload", "variant", "findings"],
        [
            (r.run, r.workload, r.variant, "; ".join(map(str, r.findings)))
            for r in rows
        ],
    )
    return "\n\n".join(["## Legality audit — shipped schedules", intro, table])


def _mechanism(name: str) -> str:
    where = paper.MECHANISMS.get(name)
    return f"{name} ({where})" if where else name


HEADER = """# EXPERIMENTS — paper vs measured

Generated by `python -m repro report`.  Every number below is
recomputed from scratch by this repository (DSE runs, cycle-level
simulation, analytical baselines); nothing is hard-coded except the paper's
reference values, which live only in `repro.harness.paper`, and the HLS
initiation intervals of Table IV (measured toolchain behavior that our
baseline *model* takes as input).

Absolute times are modeled (our substrate is a simulator, not a VCU118);
the comparisons preserve the paper's *shapes*: who wins, by roughly what
factor, and where the crossovers fall.
"""


def _model_fidelity_section(budget: int = 60, seed: int = 0) -> str:
    """Differential model-vs-simulator fidelity from one seeded fuzz run.

    The fuzzer draws random affine programs on randomly mutated ADGs and
    compares :func:`repro.model.perf.estimate_cycles` against the
    cycle-level simulator; the table reports agreement per bottleneck
    class (Section VI of the paper validates the bottleneck model the
    same way, workload by workload).
    """
    stats = fuzz_run(budget=budget, seed=seed)
    return "\n\n".join([
        "## Model fidelity — differential fuzzing",
        f"`repro fuzz --budget {budget} --seed {seed}`: "
        + ", ".join(f"{v} {k}" for k, v in sorted(stats.outcomes.items()))
        + f"; {stats.invariant_violations} invariant violations.",
        render_table(
            ["bottleneck class", "cases", "pass rate", "max rel err",
             "mean rel err"],
            [
                (name, s.cases, f"{s.pass_rate:.0%}",
                 f"{s.max_rel_error:.3f}", f"{s.mean_rel_error:.3f}")
                for name, s in sorted(stats.by_class.items())
            ],
            title="Model-vs-simulator agreement by bottleneck class:",
        ),
        "Memory-bound mappings cross bandwidth contention the model only "
        "approximates, so they carry a wider tolerance band. Divergences "
        "outside the band shrink to minimal repros in the corpus (`repro "
        "validate --corpus DIR` replays them).",
    ])


def _soak_section(budget: int = 48, seed: int = 3, shards: int = 4) -> str:
    """A small fixed-seed soak campaign with zero-tolerance bands.

    Zero tolerance flags every model/sim disagreement, so the campaign
    deliberately "finds" the model's known approximations; the point
    here is the campaign machinery — sharded execution, cross-shard
    dedup to one minimal repro per failure signature, and a triage
    report whose bytes do not depend on the shard split.
    """
    config = CampaignConfig(
        budget=budget,
        seed=seed,
        shards=shards,
        bands=ToleranceBands(
            compute=0.0, memory=0.0, aux=0.0, abs_floor=0.0
        ),
        shrink_budget=40,
    )
    report = soak_run(config, workers=1)
    return "\n\n".join([
        "## Soak campaign — sharded differential fuzzing",
        f"`repro soak --budget {budget} --seed {seed} --shards {shards} "
        f"--rel-tol 0 --abs-floor 0 --shrink-budget {config.shrink_budget}`: "
        f"every model/sim gap is flagged, so "
        f"the campaign reduces {report.raw_failures} raw failures to "
        f"{len(report.failures)} unique minimal repros (one per failure "
        f"signature).  The triage report below is byte-identical for any "
        f"`--shards` value, and `--promote` freezes each repro as a "
        f"pytest-collected regression case (see `tests/regression/`).",
        f"```\n{report.render()}\n```",
    ])


def _serve_section(requests: int = 128, concurrency: int = 32) -> str:
    """Overlay-compilation service under a duplicate-heavy load.

    Serves the dsp suite overlay (already built for Table III) through
    the real ``repro serve`` stack — unix socket, process worker pool,
    admission control, single-flight coalescing — and drives it with
    the bundled load generator twice: a cold pass that must compile
    every unique (op, workload) key, and a warm pass answered from the
    in-memory result cache and in-flight coalescing.  Then a v1/v2
    registry pair (v2 = v1 with the clock raised 5 MHz, a param-only
    change) takes one pass per version through one server and through
    an in-process 2-shard :class:`~repro.cluster.router.ClusterRouter`;
    only counts that do not depend on timing are printed.
    """
    suite = "dsp"
    sysadg = ex.suite_overlay(suite).sysadg
    workloads = tuple(w.name for w in get_suite(suite))[:3]
    ops = ("map", "estimate", "simulate")
    cluster_ops = ops + ("remap",)
    specs = (f"{suite}@v1", f"{suite}@v2")
    tiers = ("1 server", "2 shards")

    def server(path, workers, registry_dir=None):
        return OverlayServer(
            ServeConfig(
                socket_path=path,
                workers=workers,
                queue_limit=4 * concurrency,
                registry_dir=registry_dir,
            ),
            metrics=MetricsLogger(),
        )

    def load(path, overlay, op_mix):
        return run_load(
            lambda: ServeClient(socket_path=path),
            ops=op_mix,
            workloads=list(workloads),
            requests=requests,
            concurrency=concurrency,
            overlay=overlay,
            timeout_s=120.0,
        )

    async def drive():
        with tempfile.TemporaryDirectory() as tmp:
            single = server(f"{tmp}/serve.sock", 2)
            single.add_overlay(sysadg, name=suite)
            await single.start()
            try:
                passes = [
                    await load(single.config.socket_path, suite, ops)
                    for _ in ("cold", "warm")
                ]
            finally:
                await single.shutdown()

            registry = OverlayRegistry(f"{tmp}/registry")
            v1 = sysadg_to_dict(sysadg)
            mhz = round(v1["params"]["frequency_mhz"] + 5.0, 2)
            v2 = {**v1, "params": {**v1["params"], "frequency_mhz": mhz}}
            for doc in (v1, v2):
                registry.publish(suite, doc)
            root = str(registry.root)
            members = [
                server(f"{tmp}/{name}.sock", 0, root)
                for name in ("reference", "shard-0", "shard-1")
            ]
            router = ClusterRouter(
                RouterConfig(
                    backends=[
                        BackendSpec(index=i, socket_path=m.config.socket_path)
                        for i, m in enumerate(members[1:])
                    ],
                    socket_path=f"{tmp}/router.sock",
                    registry_dir=root,
                    # One sweep at start: no later health verdict may
                    # move a request off the shard the rule picks.
                    health_interval_s=3600.0,
                ),
                metrics=MetricsLogger(),
            )
            for member in members:
                await member.start()
            await router.start()
            paths = [members[0].config.socket_path, router.config.socket_path]
            try:
                cluster = {
                    (tier, spec): await load(path, spec, cluster_ops)
                    for spec in specs
                    for tier, path in zip(tiers, paths)
                }
            finally:
                await router.shutdown()
                for member in members:
                    await member.shutdown()
            return passes, cluster

    (cold, warm), cluster = asyncio.run(drive())

    def row(label, report, computes_before):
        # Which duplicates coalesce and which hit memory depends on
        # timing; only their sum, requests - compiles, is determined.
        compiles = report.server_stats["counters"]["computes"] - computes_before
        return (
            label, report.requests, report.errors, compiles,
            report.requests - compiles, len(report.mismatches),
        )

    cold_computes = cold.server_stats["counters"]["computes"]
    def totals(report):
        stats = report.server_stats
        counters = stats.get("aggregate", stats)["counters"]
        return (
            counters["computes"], counters["remap_preserved"],
            *(shard["routed"] for shard in stats.get("shards", [])),
        )

    # Counters are cumulative over a tier's passes: print each pass's
    # share.  The 1-server tier has no shards, so no routed counts.
    rows, seen = [], {}
    for spec in specs:
        reference = cluster[tiers[0], spec].results
        for tier in tiers:
            report = cluster[tier, spec]
            now = totals(report)
            computes, preserved, *routed = (
                n - n0 for n, n0 in zip(now, seen.get(tier, [0] * len(now)))
            )
            seen[tier] = now
            mismatches = len(report.mismatches) + sum(
                blob != reference.get(key)
                for key, blob in report.results.items()
            )
            rows.append((
                tier, spec, report.requests, report.errors, computes,
                preserved, mismatches, " / ".join(map(str, routed)) or "—",
            ))
    unique = len(ops) * len(workloads)
    return "\n\n".join([
        "## Overlay-compilation service — load test",
        f"`repro serve` + `repro submit load`: {requests} mixed requests "
        f"per pass over {concurrency} concurrent connections "
        f"(ops {'/'.join(ops)} × workloads {'/'.join(workloads)}) against "
        f"the {suite} suite overlay, served by a 2-process worker pool.",
        render_table(
            ["pass", "requests", "errors", "compiles",
             "answered without compiling", "mismatches"],
            [row("cold", cold, 0), row("warm", warm, cold_computes)],
        ),
        f"The request mix has only {unique} unique (op, workload) keys, so "
        "single-flight coalescing plus the in-memory result cache collapse "
        "every duplicate: the cold pass compiles each key once and the "
        "warm pass compiles nothing.  The load generator checks every "
        "response against the single-shot `repro map --json` / `repro "
        "simulate --json` bytes (the mismatches column).  Request rate and "
        "latency are measured by the `serve_hot` / `serve_cold` workloads "
        "of `bench/run.py`, not here.",
        f"The same load generator through the cluster router: a registry "
        f"holds `{specs[0]}` and `{specs[1]}` ({specs[1]} is {specs[0]} "
        "with the clock raised 5 MHz, the param-only bump CI's "
        "`cluster-smoke` job publishes).  Each version takes one pass of "
        f"{requests} requests (ops {'/'.join(cluster_ops)} × the same "
        "workloads), first through one `repro serve`, then through a "
        "`ClusterRouter` in front of two shards; every server here computes "
        "on one thread worker.",
        render_table(
            ["tier", "overlay", "requests", "errors", "compiles",
             "remap preserved", "mismatches", "routed per shard"],
            rows,
        ),
        "Mismatches count responses whose bytes differ from the 1-server "
        "pass on the same (op, workload, overlay), or from a duplicate in "
        "the same pass.  A shard compiles only the keys routed to it, so "
        "two shards compile what one server does.  `remap` routes on the "
        f"family name, so {specs[1]}'s remaps reach the shard that holds "
        f"{specs[0]}'s schedules and keep them.  Routed counts are the "
        "router's own `stats` (`shards[i].routed`): the router is the one "
        "place a shard is picked.",
    ])


def _families_section() -> str:
    rows = ex.families_end_to_end()
    scheduled = sum(1 for r in rows if r["schedules"])
    return "\n\n".join([
        "## Scenario families — fsm / tdm / irregular",
        "Beyond Table II, three workload families exercise overlay shapes "
        "the paper's suites do not: control-dominated predicated kernels "
        "(`fsm`), time-multiplexed DSP chains (`tdm`), and data-dependent "
        "trip counts with gathers (`irregular`).  Each workload runs the "
        "full pipeline on the General overlay (schedule -> simulate); each "
        "family's seed overlay is emitted through both RTL backends and "
        "floorplanned on the XCVU9P.",
        render_table(
            ["workload", "family", "schedules", "IPC (general)",
             "verilog lines", "migen lines", "floorplan", "est. MHz"],
            [
                (
                    r["workload"], r["family"],
                    "yes" if r["schedules"] else "NO",
                    f"{r['ipc']:.1f}",
                    r["verilog_lines"], r["migen_lines"],
                    "feasible" if r["feasible"] else "INFEASIBLE",
                    f"{r['mhz']:.1f}",
                )
                for r in rows
            ],
        ),
        f"{scheduled}/{len(rows)} family workloads schedule and simulate "
        "on the General overlay; both backends emit every family seed "
        "overlay and all floorplans fit the device.",
    ])


SECTIONS = (
    _tables_section,
    _fig11_12_section,
    _fig13_section,
    _fig14_section,
    _fig15_section,
    _fig16_section,
    _fig17_section,
    _fig18_section,
    _fig19_section,
    _fig20_section,
    _families_section,
    _pareto_section,
    _model_fidelity_section,
    _soak_section,
    _engine_section,
    _anatomy_section,
    _audit_section,
    _ledger_section,
    _serve_section,
)


def write_report(path: str) -> None:
    """Regenerate the whole report at ``path``."""
    report = "\n\n".join([HEADER] + [section() for section in SECTIONS])
    with open(path, "w", encoding="utf-8") as f:
        f.write(report + "\n")
