"""EXPERIMENTS.md generation: paper-vs-measured for every table/figure.

Run ``python -m repro report [-o output-path]`` to regenerate the report
(it runs every DSE and simulation in the suite: about a minute cold).
"""

from __future__ import annotations

import os

from ..model.resource import MlEstimator, TABLE1_COUNTS
from ..rtl import estimated_frequency, floorplan
from ..workloads import PAPER_SUITE_NAMES
from . import experiments as ex
from .tables import geomean, render_table


def _fig13_section() -> str:
    rows = ex.fig13_overall()
    means = ex.fig13_geomeans(rows)
    paper = {
        "dsp": (1.21, 0.71),
        "machsuite": (1.13, 0.37),
        "vision": (1.25, 0.65),
    }
    lines = ["## Fig. 13 — Overall performance vs AutoDSE", ""]
    lines.append(
        render_table(
            ["suite", "suite-OG vs untuned AD (paper)", "(measured)",
             "suite-OG vs tuned AD (paper)", "(measured)"],
            [
                (
                    s, f"{paper[s][0]:.2f}x",
                    f"{means[s]['suite_og']:.2f}x",
                    f"{paper[s][1]:.2f}x",
                    f"{means[s]['suite_og'] / means[s]['tuned_ad']:.2f}x",
                )
                for s in PAPER_SUITE_NAMES
            ],
        )
    )
    lines.append("")
    lines.append(
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
        )
    )
    return "\n".join(lines)


def _fig14_section() -> str:
    rows = ex.fig14_tuning()
    lines = ["## Fig. 14 — Effect of kernel tuning", ""]
    lines.append(
        "Paper: HLS gains far more from manual tuning than OverGen "
        "(OverGen's ISA handles variable trips / strided access natively). "
        f"Measured tuned-AD geomean gain: "
        f"{geomean([r.ad_tuned for r in rows]):.2f}x."
    )
    lines.append("")
    lines.append(
        render_table(
            ["workload", "AD tuned gain", "w/l-OG vs untuned AD"],
            [(r.workload, f"{r.ad_tuned:.2f}x", f"{r.wl_og:.2f}x") for r in rows],
        )
    )
    lines.append("")
    lines.append(
        "*Substitution*: the paper also hand-tunes 4 OverGen kernels "
        "(fft/gemm/stencil-2d/blur); our compiler applies its "
        "transformations automatically, so only the AutoDSE tuning axis "
        "is swept."
    )
    return "\n".join(lines)


def _fig15_section() -> str:
    summary = ex.fig15_summary()
    paper_totals = {"dsp": 52.6, "machsuite": 69.2, "vision": 92.8}
    lines = ["## Fig. 15 — DSE & synthesis time", ""]
    lines.append(
        render_table(
            ["suite", "AutoDSE total (paper)", "AutoDSE (ours, modeled)",
             "OverGen suite DSE (ours, modeled)"],
            [
                (s, f"{paper_totals[s]:.1f}h",
                 f"{summary[f'{s}_autodse_h']:.1f}h",
                 f"{summary[f'{s}_overgen_h']:.1f}h")
                for s in PAPER_SUITE_NAMES
            ],
        )
    )
    lines.append("")
    lines.append(
        f"OverGen/AutoDSE time fraction: paper 47%, measured "
        f"{summary['fraction']:.0%} (toolchain costs are modeled constants; "
        "see `TimeModel`)."
    )
    return "\n".join(lines)


def _fig16_section() -> str:
    overlays = ex.fig16_overlays()
    ad = ex.fig16_autodse()
    lines = ["## Fig. 16 — FPGA resource breakdown", ""]
    lut_values = [r.lut for r in overlays]
    lines.append(
        f"Overlay LUT occupation: paper 81-97%; measured "
        f"{min(lut_values):.0%}-{max(lut_values):.0%} "
        "(LUTs are the limiting resource in every design). AutoDSE designs "
        f"use {min(r.lut for r in ad):.0%}-{max(r.lut for r in ad):.0%}."
    )
    return "\n".join(lines)


def _fig17_section() -> str:
    rows = ex.fig17_leave_one_out()
    mapped = [r for r in rows if r.mapped]
    lines = ["## Fig. 17 — Leave-one-out flexibility (MachSuite)", ""]
    lines.append(
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
        )
    )
    lines.append("")
    lines.append(
        f"Paper: all map, mean ~50% degradation, 10^4x compile, 5.4x10^4x "
        f"reconfig. Measured: {len(mapped)}/5 map (our lane-SIMD "
        "vectorization keeps fewer, wider PEs, so the 17-instruction "
        "stencil-2d graph cannot fit an overlay that never saw it)."
    )
    return "\n".join(lines)


def _fig18_section() -> str:
    rows = ex.fig18_incremental()
    lines = ["## Fig. 18 — Incremental design optimization", ""]
    lines.append(
        render_table(
            ["added", "tiles", "LUT/tile", "datapath LUT/tile"],
            [
                (r.added, r.tiles, f"{r.lut_per_tile_fraction:.1%}",
                 f"{r.datapath_fraction:.1%}")
                for r in rows
            ],
        )
    )
    lines.append("")
    lines.append(
        "Paper: tiles fall 15 -> 10 while the per-tile datapath grows; "
        f"measured: {rows[0].tiles} -> {rows[-1].tiles} with per-tile LUT "
        f"{rows[0].lut_per_tile_fraction:.1%} -> "
        f"{rows[-1].lut_per_tile_fraction:.1%}."
    )
    return "\n".join(lines)


def _fig19_section() -> str:
    rows = ex.fig19_dram_channels()
    og4 = geomean([r.og_speedup[4] for r in rows])
    ad4 = geomean([r.ad_speedup[4] for r in rows])
    lines = ["## Fig. 19 — DRAM channel scaling", ""]
    lines.append(
        f"Geomean 4-channel speedup across all 19 kernels: OverGen "
        f"{og4:.2f}x, AutoDSE {ad4:.2f}x (paper: benefits concentrate in "
        "memory-intensive kernels, mean ~19-25% on the benefiting sets)."
    )
    gainers = [r.workload for r in rows if r.og_speedup[4] > 1.1]
    lines.append(f"OverGen kernels gaining >10%: {', '.join(gainers)}.")
    return "\n".join(lines)


def _fig20_section() -> str:
    results = [ex.fig20_schedule_preserving(s) for s in PAPER_SUITE_NAMES]
    lines = ["## Fig. 20 — Schedule-preserving transformations", ""]
    lines.append(
        render_table(
            ["suite", "est IPC ratio (preserved/non)", "DSE-time delta"],
            [
                (r.suite, f"{r.ipc_improvement:.2f}x",
                 f"{r.time_reduction:+.0%}")
                for r in results
            ],
        )
    )
    mean_ratio = geomean([r.ipc_improvement for r in results])
    lines.append("")
    lines.append(
        f"Paper: 1.09x estimated IPC, ~15% DSE-time reduction; measured "
        f"geomean IPC ratio {mean_ratio:.2f}x."
    )
    bench = _bench_doc("dse")
    if bench is not None:
        lines.append("")
        lines.append(
            f"Measured wall-clock (`repro bench --budget {bench['budget']}`"
            f", seed {bench['seed']}): preserved-hit rate "
            f"{bench['preserved_hit_rate']:.0%} over "
            f"{bench['preserved_hits'] + bench['repairs']} inner-loop "
            f"schedules; the schedule-preserving fast path averaged "
            f"{bench['fast_path_mean_s'] * 1e3:.3f} ms vs "
            f"{bench['repair_path_mean_s'] * 1e3:.3f} ms for repair "
            f"({bench['fast_path_speedup']:.1f}x faster), "
            f"{bench['candidates_per_second']:.0f} candidates/s overall."
        )
    sim = _bench_doc("sim")
    if sim is not None:
        lines.append("")
        line = (
            f"Simulator throughput (`repro bench sim --budget "
            f"{sim['budget']}`, seed {sim['seed']}, "
            f"{sim.get('core', 'object')} core): "
            f"{sim['stepped_cycles']:,} stepped cycles over "
            f"{len(sim.get('workloads', []))} regions at "
            f"{sim['cycles_per_second']:,.0f} cycles/s"
        )
        batch = sim.get("batch")
        if batch:
            line += (
                f"; one `simulate_batch` pass covers the same regions at "
                f"{sim['batch_cycles_per_second']:,.0f} cycles/s with "
                f"results byte-identical to the serial loop"
            )
        short = sim.get("short")
        if short:
            line += (
                f"; the {short['regions']} regions that do not extrapolate "
                f"run at {sim['short_regions_per_second']:,.0f} regions/s "
                f"one call each and "
                f"{sim['batch_short_regions_per_second']:,.0f} regions/s "
                f"through one `simulate_batch` call (best of 5)"
            )
        lines.append(line + ".")
    return "\n".join(lines)


def _pareto_section(trials: int = 24, seed: int = 3) -> str:
    """Multi-objective search study: the Fig. 14-16 axes, jointly.

    Figs. 14-16 tell the paper's resource story one axis at a time —
    performance (Fig. 14), DSE time (Fig. 15), and FPGA occupation
    (Fig. 16).  The study service reports the joint trade-off: every
    evaluated overlay is an (objective, LUT) point, and the frontier
    below is the set of designs no other evaluated overlay beats on
    both axes at once.
    """
    from ..dse import DseConfig
    from ..search import Axis, SearchSettings, frontier_doc, run_search
    from ..workloads import get_workload

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
    lines = ["## Pareto study — performance vs LUT (Figs. 14-16 jointly)", ""]
    lines.append(
        f"`repro dse {','.join(names)} --strategy tpe --trials {trials} "
        f"--batch 4 -s {seed} --pareto`: one TPE study over a "
        f"three-kernel mix, {len(study.trials)} trials "
        f"({len(study.feasible_trials())} feasible), axes "
        f"{' / '.join(doc['axes'])}, hypervolume "
        f"{doc['hypervolume']:,.0f}."
    )
    lines.append("")
    lines.append(
        render_table(
            ["frontier trial", "objective", "LUT"],
            [
                (p["trial"], f"{p['objective']:.2f}", f"{p['lut']:,.0f}")
                for p in doc["points"]
            ],
        )
    )
    lines.append("")
    lines.append(
        "Figs. 14-16 show performance, DSE time, and resource occupation "
        "as separate per-suite bars; the frontier collapses them into one "
        "answer per LUT budget (\"the best overlay that fits\").  The "
        "study is persistent and content-addressed: rerunning the same "
        "command resumes from the engine store, and the exported frontier "
        "JSON is byte-identical for any `--workers` value."
    )
    return "\n".join(lines)


def _bench_doc(kind: str):
    """BENCH_<kind>.json from a `repro bench` run at the repo root, if any."""
    import json
    import os

    path = os.path.join(os.getcwd(), f"BENCH_{kind}.json")
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError):
        return None
    if doc.get("kind") != kind or doc.get("schema") != 1:
        return None
    return doc


def _fig11_12_section() -> str:
    from ..sim import EngineSim, PortFifo, StreamState

    def rate(onehot: bool) -> float:
        port = PortFifo("p", capacity=1e9)
        engine = EngineSim("e", 8, onehot_bypass=onehot)
        engine.add_stream(
            StreamState("s", 1e9, 1.0, port, True, 8)
        )
        return sum(engine.step(t) for t in range(200)) / 200

    plan = floorplan(ex.general_sysadg())
    freq = estimated_frequency(plan)
    lines = ["## Fig. 11 — Stream-table one-hot bypass", ""]
    lines.append(
        f"Single-stream issue rate: {rate(False):.2f}/cycle without the "
        f"bypass, {rate(True):.2f}/cycle with it (paper: 0.5 -> 1.0)."
    )
    lines.append("")
    lines.append("## Fig. 12 — Quad-tile floorplan")
    lines.append("")
    lines.append("```")
    lines.append(plan.ascii_art())
    lines.append("```")
    lines.append(
        f"Estimated clock {freq:.1f} MHz (paper: 92.87 MHz, critical path "
        "in L2 MSHR logic)."
    )
    return "\n".join(lines)


def _tables_section() -> str:
    lines = ["## Table I — ML resource-model dataset", ""]
    est = MlEstimator(dataset_scale=0.05)
    lines.append(
        render_table(
            ["family", "paper #synth", "LUT err", "FF err"],
            [
                (fam, TABLE1_COUNTS[fam],
                 f"{est.training_error[fam]['lut']:.1%}",
                 f"{est.training_error[fam]['ff']:.1%}")
                for fam in TABLE1_COUNTS
            ],
        )
    )
    lines.append("")
    lines.append("## Table II — Workload specifications")
    lines.append("")
    rows = ex.table2_workload_specs()
    lines.append(
        render_table(
            ["workload", "size", "type", "#ivp", "#ovp", "#arr", "#m,a,d"],
            [
                (r["workload"], r["size"], r["type"], r["ivp"], r["ovp"],
                 r["arr"], f"{r['mul']},{r['add']},{r['div']}")
                for r in rows
            ],
        )
    )
    lines.append("")
    lines.append("## Table III — Suite overlay specifications")
    lines.append("")
    t3 = ex.table3_suite_overlays()
    lines.append(
        render_table(
            ["overlay", "tiles", "L2 banks", "NoC B", "PEs", "SWs",
             "int +/x/div", "flt +/x/div/sqrt", "spad KiB", "in B", "out B"],
            [
                (r["overlay"], r["tiles"], r["l2_banks"], r["noc_bytes"],
                 r["pes"], r["switches"], r["int_fus"], r["flt_fus"],
                 r["spad_kib"], r["in_port_bytes"], r["out_port_bytes"])
                for r in t3
            ],
        )
    )
    lines.append("")
    lines.append("## Table IV — HLS initiation intervals")
    lines.append("")
    t4 = ex.table4_hls_ii()
    lines.append(
        render_table(
            ["workload", "cause", "untuned II", "tuned II"],
            [
                (r["workload"], r["cause"], r["untuned_ii"], r["tuned_ii"])
                for r in t4
            ],
        )
    )
    lines.append("")
    lines.append("(Table IV values are the paper's measured IIs, encoded as "
                 "model inputs — reproduced exactly by construction.)")
    return "\n".join(lines)


def _engine_section() -> str:
    """DSE-engine accounting for the run that produced this report."""
    engine = ex.peek_engine()
    lines = ["## DSE engine — cache & run metrics", ""]
    if engine is None:
        lines.append(
            "No engine runs this session (every overlay answered from the "
            "in-process cache before the engine was built)."
        )
        return "\n".join(lines)
    s = engine.stats
    lines.append(
        render_table(
            ["jobs", "cache hits", "misses", "iterations run", "seeds run",
             "crashes", "resumes", "wall", "modeled"],
            [(
                s.jobs, s.cache_hits, s.cache_misses, s.iterations_run,
                s.seeds_run, s.worker_crashes, s.resumes,
                f"{s.wall_seconds:.1f}s", f"{s.modeled_seconds / 3600:.1f}h",
            )],
        )
    )
    runs = engine.metrics.of_type("run_end")
    if runs:
        lines.append("")
        lines.append(
            render_table(
                ["job", "seeds", "iters", "it/s", "accept", "best seed",
                 "objective"],
                [
                    (r["name"], len(r["seeds"]), r["iterations"],
                     f"{r['iterations_per_second']:.0f}",
                     f"{r['acceptance_rate']:.0%}", r["best_seed"],
                     f"{r['objective']:.2f}")
                    for r in runs
                ],
                title="Per-job annealing runs (cache misses only):",
            )
        )
    lines.append("")
    where = engine.cache_dir or "in-memory only"
    lines.append(
        f"Artifact store: {where}.  A warm-cache rerun of this report "
        "answers every overlay from the store with zero DSE iterations "
        "(`python -m repro dse` shares the same store and keys)."
    )
    return "\n".join(lines)


HEADER = """# EXPERIMENTS — paper vs measured

Generated by `python -m repro report`.  Every number below is
recomputed from scratch by this repository (DSE runs, cycle-level
simulation, analytical baselines); nothing is hard-coded except the paper's
reference values and the HLS initiation intervals of Table IV (measured
toolchain behavior that our baseline *model* takes as input).

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
    from ..validate import fuzz_run

    stats = fuzz_run(budget=budget, seed=seed)
    lines = ["## Model fidelity — differential fuzzing", ""]
    lines.append(
        f"`repro fuzz --budget {budget} --seed {seed}`: "
        + ", ".join(f"{v} {k}" for k, v in sorted(stats.outcomes.items()))
        + f"; {stats.invariant_violations} invariant violations."
    )
    lines.append("")
    lines.append(
        render_table(
            ["bottleneck class", "cases", "pass rate", "max rel err",
             "mean rel err"],
            [
                (name, s.cases, f"{s.pass_rate:.0%}",
                 f"{s.max_rel_error:.3f}", f"{s.mean_rel_error:.3f}")
                for name, s in sorted(stats.by_class.items())
            ],
            title="Model-vs-simulator agreement by bottleneck class:",
        )
    )
    lines.append("")
    lines.append(
        "Compute-bound mappings are where the bottleneck model is exact "
        "by construction; memory-bound mappings cross bandwidth "
        "contention the model only approximates, so they carry a wider "
        "tolerance band. Divergences outside the band shrink to minimal "
        "repros in the corpus (`repro validate --corpus DIR` replays "
        "them)."
    )
    return "\n".join(lines)


def _soak_section(budget: int = 48, seed: int = 3, shards: int = 4) -> str:
    """A small fixed-seed soak campaign with zero-tolerance bands.

    Zero tolerance flags every model/sim disagreement, so the campaign
    deliberately "finds" the model's known approximations; the point
    here is the campaign machinery — sharded execution, cross-shard
    dedup to one minimal repro per failure signature, and a triage
    report whose bytes do not depend on the shard split.
    """
    from ..validate import ToleranceBands
    from ..validate.soak import CampaignConfig, soak_run

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
    lines = ["## Soak campaign — sharded differential fuzzing", ""]
    lines.append(
        f"`repro soak --budget {budget} --seed {seed} --shards {shards} "
        f"--rel-tol 0 --abs-floor 0 --shrink-budget {config.shrink_budget}`: "
        f"every model/sim gap is flagged, so "
        f"the campaign reduces {report.raw_failures} raw failures to "
        f"{len(report.failures)} unique minimal repros (one per failure "
        f"signature).  The triage report below is byte-identical for any "
        f"`--shards` value, and `--promote` freezes each repro as a "
        f"pytest-collected regression case (see `tests/regression/`)."
    )
    lines.append("")
    lines.append("```")
    lines.append(report.render())
    lines.append("```")
    return "\n".join(lines)


def _serve_section(requests: int = 128, concurrency: int = 32) -> str:
    """Overlay-compilation service under a duplicate-heavy load.

    Serves the dsp suite overlay (already built for Table III) through
    the real ``repro serve`` stack — unix socket, process worker pool,
    admission control, single-flight coalescing — and drives it with
    the bundled load generator twice: a cold pass that must compile
    every unique (op, workload) key, and a warm pass answered from the
    in-memory result cache and in-flight coalescing.
    """
    import asyncio
    import tempfile

    from ..engine import MetricsLogger
    from ..serve import OverlayServer, ServeClient, ServeConfig, run_load
    from ..workloads import get_suite

    suite = "dsp"
    sysadg = ex.suite_overlay(suite).sysadg
    workloads = tuple(w.name for w in get_suite(suite))[:3]
    ops = ("map", "estimate", "simulate")

    async def drive():
        with tempfile.TemporaryDirectory() as tmp:
            server = OverlayServer(
                ServeConfig(
                    socket_path=f"{tmp}/serve.sock",
                    workers=2,
                    queue_limit=4 * concurrency,
                ),
                metrics=MetricsLogger(),
            )
            server.add_overlay(sysadg, name=suite)
            await server.start()
            try:
                factory = lambda: ServeClient(
                    socket_path=server.config.socket_path
                )
                passes = []
                for _ in ("cold", "warm"):
                    passes.append(
                        await run_load(
                            factory,
                            ops=ops,
                            workloads=list(workloads),
                            requests=requests,
                            concurrency=concurrency,
                            overlay=suite,
                            timeout_s=120.0,
                        )
                    )
                return passes
            finally:
                await server.shutdown()

    cold, warm = asyncio.run(drive())

    def counters(report):
        return report.server_stats["counters"]

    def row(label, report, base):
        lat = report.latency.as_dict()
        c = counters(report)
        return (
            label, report.requests, report.errors,
            f"{report.throughput:.0f} req/s",
            f"{lat['p50_s'] * 1e3:.1f} ms",
            f"{lat['p95_s'] * 1e3:.1f} ms",
            f"{lat['p99_s'] * 1e3:.1f} ms",
            c["computes"] - base.get("computes", 0),
            c["coalesced"] - base.get("coalesced", 0),
            c["cache_memory"] - base.get("cache_memory", 0),
        )

    lines = ["## Overlay-compilation service — load test", ""]
    lines.append(
        f"`repro serve` + `repro submit load`: {requests} mixed requests "
        f"per pass over {concurrency} concurrent connections "
        f"(ops {'/'.join(ops)} × workloads {'/'.join(workloads)}) against "
        f"the {suite} suite overlay, served by a 2-process worker pool."
    )
    lines.append("")
    lines.append(
        render_table(
            ["pass", "requests", "errors", "throughput", "p50", "p95",
             "p99", "compiles", "coalesced", "memory hits"],
            [row("cold", cold, {}), row("warm", warm, counters(cold))],
        )
    )
    lines.append("")
    unique = len(ops) * len(workloads)
    lines.append(
        f"The request mix has only {unique} unique (op, workload) keys, so "
        "single-flight coalescing plus the in-memory result cache collapse "
        "every duplicate: the cold pass compiles each key once and the "
        "warm pass compiles nothing.  Every response is byte-identical to "
        "the single-shot `repro map --json` / `repro simulate --json` "
        "path (the load generator cross-checks and the run above reported "
        f"{len(cold.mismatches) + len(warm.mismatches)} mismatches)."
    )
    return "\n".join(lines)


def _families_section() -> str:
    rows = ex.families_end_to_end()
    lines = [
        "## Scenario families — fsm / tdm / irregular",
        "",
        "Beyond Table II, three workload families exercise overlay shapes "
        "the paper's suites do not: control-dominated predicated kernels "
        "(`fsm`), time-multiplexed DSP chains (`tdm`), and data-dependent "
        "trip counts with gathers (`irregular`).  Each workload runs the "
        "full pipeline on the General overlay (schedule -> simulate); each "
        "family's seed overlay is emitted through both RTL backends and "
        "floorplanned on the XCVU9P.",
        "",
    ]
    lines.append(
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
        )
    )
    scheduled = sum(1 for r in rows if r["schedules"])
    lines.append("")
    lines.append(
        f"{scheduled}/{len(rows)} family workloads schedule and simulate "
        "on the General overlay; both backends emit every family seed "
        "overlay and all floorplans fit the device."
    )
    return "\n".join(lines)


#: Sections with no generator start at this line of the report file;
#: :func:`write_report` carries everything from it onward over unchanged.
HAND_MARKER = "<!-- hand-maintained below: not regenerated -->"

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
    _serve_section,
)


def write_report(path: str) -> None:
    """Regenerate the report at ``path``, keeping what only a human can
    write: the tail of the existing file from :data:`HAND_MARKER` on."""
    kept = ""
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            old = f.read()
        at = old.find(HAND_MARKER)
        if at >= 0:
            kept = "\n" + old[at:]
    report = "\n\n".join([HEADER] + [section() for section in SECTIONS])
    with open(path, "w", encoding="utf-8") as f:
        f.write(report + "\n" + kept)
