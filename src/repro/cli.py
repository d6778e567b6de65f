"""Command-line interface: ``python -m repro <command>``.

Commands mirror the library's main flows:

* ``workloads``            — list the Table-II workloads
* ``generate``             — run the DSE for a suite/workload set, save the design
* ``dse``                  — like ``generate`` but through the parallel engine:
  multi-seed worker pool (``--workers``), persistent artifact cache
  (``--cache-dir``), checkpoint/resume (``--resume``), JSONL metrics;
  ``--strategy`` switches to the pluggable search runtime
  (anneal/bottleneck/evolutionary/tpe) with persistent multi-objective
  studies (``--pareto``, ``--html``, ``--list-strategies``)
* ``study``                — list/show/export/merge persistent search
  studies from the artifact store; ``import`` turns ``dse_point``
  metrics JSONL into a study
* ``inspect <design>``     — render a saved design (ASCII + resources)
* ``map <design> <name>``  — compile+schedule a workload onto a saved design
* ``simulate <design> <name>`` — cycle-level simulation of a mapped workload
* ``rtl <design>``         — emit structural Verilog
* ``floorplan <design>``   — SLR floorplan + clock estimate
* ``advise <design> <name>`` — explain fit + whether re-DSE would pay (Q5)
* ``report``               — regenerate EXPERIMENTS.md
* ``bench``                — fixed-seed DSE + simulation benchmarks with
  span tracing; writes ``BENCH_dse.json``/``BENCH_sim.json`` and supports
  ``--compare BASELINE.json`` regression checks; ``bench search`` runs
  the strategy shootout and writes ``BENCH_search.json``
* ``fuzz``                 — differential model-vs-simulator fuzzing:
  generate random cases, check invariants, shrink failures, record them
  in the divergence corpus; exits 1 when new failures (or invariant
  violations) are recorded
* ``soak``                 — sharded, resumable fuzz campaign: splits the
  seed range across worker processes, checkpoints finished shards,
  merges to a deterministic triage report, and can promote minimal
  repros to committed regression tests (``--promote``)
* ``validate``             — structural invariants over the built-in
  suite + replay of the divergence corpus and (``--regression``) of
  promoted regression cases
* ``serve``                — long-lived overlay-compilation service:
  JSON-lines requests over a unix socket or localhost TCP, bounded
  queue with admission control, single-flight coalescing, process
  worker pool, per-request deadlines, graceful drain
* ``submit``               — client for ``serve``: one-shot requests
  (map/estimate/simulate/simulate_batch/remap/ping/stats/topology/
  shutdown) or a concurrent load run, optionally topology-routed
  (``--cluster``) and split over generator processes (``--shards``)
* ``registry``             — versioned overlay registry on an artifact
  store: publish / list / show / pin / unpin / rollback named overlay
  versions that ``serve --registry`` resolves as ``name@vN`` specs
* ``cluster``              — multi-shard serve: spawn N shard processes
  plus the consistent-hash front-tier router as one unit

Parallelism flag convention (backed by :mod:`repro.jobs`): every command
spells the worker-process count ``-w/--workers`` — an execution detail
that never changes results — and work *splitting* ``--shards`` (also
result-invariant: any shard count merges to identical output).

Expected user errors (unknown workload names, missing files) exit with a
clean one-line message and status 2; programming errors still traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .adg import load_sysadg, render_sysadg, save_sysadg
from .compiler import generate_variants
from .dse import DseConfig, explore
from .model.resource import XCVU9P, system_resources
from .rtl import emit_system, estimated_frequency, floorplan
from .scheduler import schedule_workload
from .workloads import SUITE_NAMES, all_workloads, get_suite, get_workload


class CliError(Exception):
    """A user-facing error: printed cleanly, exit status 2."""


def _get_workload(name: str):
    try:
        return get_workload(name)
    except KeyError as exc:
        raise CliError(str(exc.args[0]) if exc.args else str(exc)) from exc


def _cmd_workloads(args: argparse.Namespace) -> int:
    for w in all_workloads():
        marks = []
        if w.has_variable_trip:
            marks.append("variable-trip")
        from .ir import IndirectIndex

        if any(isinstance(i, IndirectIndex) for _, i, _ in w.all_accesses()):
            marks.append("indirect")
        print(
            f"{w.name:12s} {w.suite:10s} {w.size_desc:10s} {w.dtype.name:6s} "
            f"{' '.join(marks)}"
        )
    return 0


def _resolve_workloads(spec: Optional[str]):
    if not spec:
        raise CliError(
            "missing workloads argument (suite name, 'all', or "
            "comma-separated names)"
        )
    if spec in SUITE_NAMES:
        return get_suite(spec)
    if spec == "all":
        return all_workloads()
    return [_get_workload(name) for name in spec.split(",") if name]


def _cmd_generate(args: argparse.Namespace) -> int:
    workloads = _resolve_workloads(args.workloads)
    print(
        f"running DSE for {len(workloads)} workload(s): "
        f"{', '.join(w.name for w in workloads)}"
    )
    result = explore(
        workloads,
        DseConfig(iterations=args.iterations, seed=args.seed),
        name=args.name or args.workloads,
    )
    print(result.sysadg.summary())
    util = system_resources(result.sysadg).utilization(XCVU9P)
    print("utilization: " + "  ".join(f"{k}={v:.0%}" for k, v in util.items()))
    print(f"modeled DSE time: {result.modeled_hours:.1f} h")
    save_sysadg(result.sysadg, args.output)
    print(f"saved design to {args.output}")
    return 0


def _cache_dir_for(args: argparse.Namespace) -> Optional[str]:
    """The persistent store directory, honoring --no-cache/--cache-dir."""
    if getattr(args, "no_cache", False):
        return None
    return getattr(args, "cache_dir", None) or os.environ.get(
        "REPRO_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "repro-overgen"),
    )


def _cmd_dse(args: argparse.Namespace) -> int:
    from .engine import DseEngine, MetricsLogger

    if args.list_strategies:
        from .search import strategy_names

        for name in strategy_names():
            print(name)
        return 0
    if not args.workloads:
        raise CliError(
            "missing workloads argument (suite name, 'all', or "
            "comma-separated names); or use --list-strategies"
        )
    if args.strategy is not None:
        return _cmd_dse_search(args)

    workloads = _resolve_workloads(args.workloads)
    try:
        seeds = (
            [int(s) for s in args.seeds.split(",")]
            if args.seeds
            else [args.seed]
        )
    except ValueError as exc:
        raise CliError(
            f"malformed --seeds {args.seeds!r}: expected comma-separated "
            "integers"
        ) from exc
    cache_dir = _cache_dir_for(args)
    engine = DseEngine(
        cache_dir=cache_dir or None,
        workers=args.workers,
        metrics=MetricsLogger(args.metrics),
        checkpoint_every=args.checkpoint_every,
        seed_timeout=args.seed_timeout,
    )
    print(
        f"engine DSE for {len(workloads)} workload(s), seeds "
        f"{seeds}, {args.workers} worker(s), cache "
        f"{cache_dir or 'disabled'}"
    )
    res = engine.explore(
        workloads,
        DseConfig(iterations=args.iterations, seed=args.seed),
        name=args.name or args.workloads,
        seeds=seeds,
        resume=args.resume,
    )
    m = res.metrics
    if res.from_cache:
        print(f"cache hit ({m.cache_tier}): artifact {res.key[:16]} reused, "
              f"0 DSE iterations run")
    else:
        per_seed = ", ".join(
            f"seed {o.seed}: "
            + (f"{o.result.choice.objective:.2f}"
               + (" (resumed)" if o.resumed else "")
               if o.result is not None else f"CRASHED ({o.error})")
            for o in res.outcomes
        )
        print(f"seed outcomes: {per_seed}")
        print(
            f"ran {m.iterations} iterations in {m.wall_seconds:.1f}s "
            f"({m.iterations_per_second:.0f} it/s), acceptance "
            f"{m.acceptance_rate:.0%}, best seed {m.best_seed}"
        )
        if m.crashed_seeds:
            print(f"degraded to best-of-survivors (crashed: {m.crashed_seeds})")
    result = res.result
    print(result.sysadg.summary())
    util = system_resources(result.sysadg).utilization(XCVU9P)
    print("utilization: " + "  ".join(f"{k}={v:.0%}" for k, v in util.items()))
    print(f"objective {res.objective:.2f}, modeled DSE time "
          f"{result.modeled_hours:.1f} h (wall {m.wall_seconds:.1f} s)")
    save_sysadg(result.sysadg, args.output)
    print(f"saved design to {args.output}")
    if args.metrics:
        print(f"metrics stream appended to {args.metrics}")
    return 0


def _cmd_dse_search(args: argparse.Namespace) -> int:
    """The pluggable-strategy path of ``repro dse`` (``--strategy``)."""
    from .engine import MetricsLogger
    from .engine.store import ArtifactStore
    from .search import (
        SearchSettings,
        export_frontier,
        render_html,
        run_search,
        strategy_names,
    )

    if args.strategy not in strategy_names():
        raise CliError(
            f"unknown strategy {args.strategy!r}; available: "
            + ", ".join(strategy_names())
        )
    workloads = _resolve_workloads(args.workloads)
    cache_dir = _cache_dir_for(args)
    store = ArtifactStore(cache_dir) if cache_dir else None
    # The anneal strategy walks the legacy iteration schedule, so its
    # natural trial budget is --iterations; samplers default to 16.
    trials = args.trials
    if trials is None:
        trials = args.iterations if args.strategy == "anneal" else 16
    settings = SearchSettings(
        strategy=args.strategy,
        trials=trials,
        batch=args.batch,
        seed=args.seed,
        workers=args.workers,
    )
    print(
        f"search[{args.strategy}] for {len(workloads)} workload(s): "
        f"{', '.join(w.name for w in workloads)} — {trials} trial(s), "
        f"batch {args.batch}, {args.workers} worker(s), store "
        f"{cache_dir or 'disabled'}"
    )
    outcome = run_search(
        workloads,
        DseConfig(iterations=args.iterations, seed=args.seed),
        settings,
        store=store,
        metrics=MetricsLogger(args.metrics),
        rebuild_best=True,
        name=args.name or args.workloads,
    )
    study = outcome.study
    resumed = " (resumed from store)" if outcome.resumed else ""
    print(
        f"study {outcome.key[:16]}: {len(study.trials)} trial(s), "
        f"{len(study.feasible_trials())} feasible{resumed}"
    )
    best = outcome.best_trial
    if best is None:
        print("no feasible trials")
    else:
        print(
            f"best trial #{best.index}: objective {best.objective:.2f}, "
            f"lut {best.lut:.3f}, bram {best.bram:.3f}, dsp {best.dsp:.3f}"
        )
    if outcome.sysadg is not None:
        print(outcome.sysadg.summary())
        util = system_resources(outcome.sysadg).utilization(XCVU9P)
        print(
            "utilization: "
            + "  ".join(f"{k}={v:.0%}" for k, v in util.items())
        )
        save_sysadg(outcome.sysadg, args.output)
        print(f"saved design to {args.output}")
    if outcome.dse_result is not None:
        print(
            f"modeled DSE time: {outcome.dse_result.modeled_hours:.1f} h"
        )
    if args.pareto:
        with open(args.pareto, "w") as f:
            f.write(export_frontier(study))
        print(f"wrote Pareto frontier to {args.pareto}")
    if args.html:
        with open(args.html, "w") as f:
            f.write(render_html(study))
        print(f"wrote HTML report to {args.html}")
    if args.metrics:
        print(f"metrics stream appended to {args.metrics}")
    return 0


def _study_axes(spec: Optional[str]):
    from .search import DEFAULT_AXES, parse_axis

    if not spec:
        return DEFAULT_AXES
    try:
        return tuple(parse_axis(part) for part in spec.split(",") if part)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _study_resolve(store, prefix: str) -> str:
    """Full study key for a (possibly abbreviated) key prefix."""
    from .search import list_studies

    keys = [row["key"] for row in list_studies(store)]
    matches = [k for k in keys if k.startswith(prefix)]
    if not matches:
        raise CliError(f"no study matching {prefix!r} in the store")
    if len(matches) > 1:
        raise CliError(
            f"ambiguous study prefix {prefix!r}: {len(matches)} matches"
        )
    return matches[0]


def _cmd_study(args: argparse.Namespace) -> int:
    import json

    from .engine.store import ArtifactStore
    from .search import (
        export_study,
        frontier_doc,
        list_studies,
        load_study,
        merge_studies,
        render_html,
        save_study,
        study_from_points,
    )

    store = ArtifactStore(args.study_dir or _cache_dir_for(args))
    axes = _study_axes(args.axes)

    def _load(prefix: str):
        study, _state = load_study(store, _study_resolve(store, prefix))
        if study is None:
            raise CliError(f"study {prefix!r} is unreadable")
        return study

    def _write(text: str, what: str) -> None:
        if args.output:
            with open(args.output, "w") as f:
                f.write(text)
            print(f"wrote {what} to {args.output}")
        else:
            sys.stdout.write(text)

    if args.action == "list":
        rows = list_studies(store)
        if not rows:
            print(f"no studies in {store.root}")
            return 0
        for row in rows:
            print(
                f"{row['key'][:16]} {row['strategy']:12s} "
                f"seed={row['seed']} batch={row['batch']} "
                f"trials={row['trials']} "
                f"workloads={','.join(row['workloads'])}"
            )
        return 0

    if not args.keys:
        raise CliError(f"study {args.action} needs at least one study key")

    if args.action == "show":
        study = _load(args.keys[0])
        front = frontier_doc(study, axes)
        print(f"study {study.key}")
        print(
            f"strategy {study.strategy}, seed {study.seed}, "
            f"batch {study.batch}, workloads "
            f"{', '.join(study.workloads)}"
        )
        print(
            f"{len(study.trials)} trial(s), "
            f"{len(study.feasible_trials())} feasible, "
            f"frontier {len(front['points'])} point(s), "
            f"hypervolume {front['hypervolume']:.6g}"
        )
        best = study.best_trial()
        if best is not None:
            print(
                f"best trial #{best.index}: objective "
                f"{best.objective:.2f}, lut {best.lut:.3f}, "
                f"bram {best.bram:.3f}, dsp {best.dsp:.3f}"
            )
        for point in front["points"]:
            cells = "  ".join(
                f"{axis.name}={point[axis.name]:.4g}" for axis in axes
            )
            print(f"  frontier trial #{point['trial']}: {cells}")
        return 0

    if args.action == "export":
        study = _load(args.keys[0])
        if args.html:
            with open(args.html, "w") as f:
                f.write(render_html(study, axes))
            print(f"wrote HTML report to {args.html}")
        _write(export_study(study, axes), f"study {study.key[:16]}")
        return 0

    if args.action == "merge":
        if len(args.keys) < 2:
            raise CliError("study merge needs at least two study keys")
        merged = merge_studies([_load(prefix) for prefix in args.keys])
        save_study(store, merged)
        print(
            f"merged {len(args.keys)} studies -> {merged.key[:16]} "
            f"({len(merged.trials)} trial(s) after dedup)"
        )
        return 0

    if args.action == "import":
        path = args.keys[0]
        points = []
        workloads = set()
        try:
            with open(path) as f:
                for line in f:
                    line = line.strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    if record.get("event") == "dse_point":
                        points.append(record)
                    elif record.get("event") == "run_start":
                        names = record.get("workloads") or (
                            [record["name"]] if record.get("name") else []
                        )
                        workloads.update(names)
        except FileNotFoundError as exc:
            raise CliError(f"no such metrics file: {path}") from exc
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(f"cannot read metrics {path}: {exc}") from exc
        if not points:
            raise CliError(f"{path}: no dse_point events to import")
        study = study_from_points(
            points,
            workloads=sorted(workloads),
            strategy="import",
        )
        save_study(store, study)
        print(
            f"imported {len(points)} dse_point event(s) -> study "
            f"{study.key[:16]}"
        )
        return 0

    raise CliError(f"unknown study action {args.action!r}")


def _load_design(path: str):
    try:
        return load_sysadg(path)
    except FileNotFoundError as exc:
        raise CliError(f"no such design file: {path}") from exc
    except OSError as exc:
        raise CliError(f"cannot read design file {path}: {exc}") from exc


def _cmd_inspect(args: argparse.Namespace) -> int:
    sysadg = _load_design(args.design)
    print(render_sysadg(sysadg))
    util = system_resources(sysadg).utilization(XCVU9P)
    print("utilization: " + "  ".join(f"{k}={v:.0%}" for k, v in util.items()))
    return 0


def _map_workload(design_path: str, name: str):
    sysadg = _load_design(design_path)
    variants = generate_variants(_get_workload(name))
    schedule = schedule_workload(variants, sysadg.adg, sysadg.params)
    return sysadg, schedule


def _single_shot_json(op: str, design_path: str, workload: str) -> int:
    """The serve-comparable single-shot path: canonical JSON on stdout."""
    from .serve import canonical_dumps, single_shot

    sysadg = _load_design(design_path)
    doc = single_shot(op, sysadg, _get_workload(workload).name)
    if doc is None:
        print(f"{workload} does NOT map onto {sysadg.name}")
        return 1
    print(canonical_dumps(doc))
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    if args.json:
        return _single_shot_json("map", args.design, args.workload)
    sysadg, schedule = _map_workload(args.design, args.workload)
    if schedule is None:
        print(f"{args.workload} does NOT map onto {sysadg.name}")
        return 1
    print(schedule.summary())
    est = schedule.estimate
    print(f"projected IPC {est.ipc:.1f}, bottleneck {est.bottleneck}")
    print(f"configuration: {schedule.mdfg.config_words} words")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    """``repro simulate <design> w1[,w2,...]`` — one batched stepping pass."""
    if args.json:
        if "," in args.workload:
            raise CliError("--json takes a single workload, not a list")
        return _single_shot_json("simulate", args.design, args.workload)
    from .serve import simulate_batch_op
    from .serve.errors import BadRequestError
    from .serve.ops import split_workloads

    sysadg = _load_design(args.design)
    try:
        names = split_workloads(args.workload)
        docs = simulate_batch_op(sysadg, names)
    except BadRequestError as exc:
        raise CliError(str(exc)) from exc
    unmapped = 0
    for name, doc in zip(names, docs):
        if doc is None:
            print(f"{name} does NOT map onto {sysadg.name}")
            unmapped += 1
            continue
        print(
            f"{name} on {sysadg.name}: {doc['cycles']:,.0f} cycles "
            f"({doc['seconds'] * 1e6:,.1f} us), IPC {doc['ipc']:.1f}, "
            f"{doc['tiles_used']} tiles used"
        )
    return 1 if unmapped else 0


def _cmd_rtl(args: argparse.Namespace) -> int:
    from .rtl import get_backend

    sysadg = _load_design(args.design)
    try:
        backend = get_backend(args.backend)
    except KeyError as exc:
        raise CliError(str(exc.args[0]) if exc.args else str(exc)) from exc
    rtl = backend.emit_system(sysadg)
    if args.output:
        with open(args.output, "w") as f:
            f.write(rtl)
        print(
            f"wrote {args.output} ({rtl.count(chr(10))} lines, "
            f"backend {backend.name})"
        )
    else:
        sys.stdout.write(rtl)
    return 0


def _cmd_floorplan(args: argparse.Namespace) -> int:
    sysadg = _load_design(args.design)
    plan = floorplan(sysadg)
    print(plan.ascii_art())
    print(f"estimated clock: {estimated_frequency(plan):.1f} MHz")
    if not plan.feasible:
        print(
            "error: overlay exceeds XCVU9P capacity (see SLR utilization)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from .compiler import advise

    sysadg = _load_design(args.design)
    advice = advise(
        _get_workload(args.workload), sysadg.adg, sysadg.params
    )
    print(advice.summary())
    return 0 if advice.best_mapped is not None else 1


def _cmd_report(args: argparse.Namespace) -> int:
    from .harness.report import generate_report

    report = generate_report()
    with open(args.output, "w") as f:
        f.write(report)
    print(f"wrote {args.output}")
    return 0


def _bands(args: argparse.Namespace):
    from dataclasses import replace

    from .validate import ToleranceBands

    bands = ToleranceBands().scaled(args.rel_tol)
    if getattr(args, "abs_floor", None) is not None:
        bands = replace(bands, abs_floor=args.abs_floor)
    return bands


#: What each ``repro bench <what>`` selects from ``profile.bench.BENCHES``.
_BENCH_KINDS = {"core": ("dse", "sim"), "sim": ("sim",), "search": ("search",)}


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from .engine import MetricsLogger
    from .profile import bench

    kinds = _BENCH_KINDS[args.what]
    baseline = None
    if args.compare:
        try:
            with open(args.compare) as f:
                baseline = json.load(f)
        except FileNotFoundError as exc:
            raise CliError(f"no such baseline file: {args.compare}") from exc
        except (OSError, json.JSONDecodeError) as exc:
            raise CliError(
                f"cannot read baseline {args.compare}: {exc}"
            ) from exc
        kind = baseline.get("kind")
        if kind not in bench.BENCHES:
            raise CliError(
                f"{args.compare}: not a BENCH report (missing/unknown 'kind')"
            )
        if kind not in kinds:
            raise CliError(
                f"{args.compare}: kind {kind!r} baseline does not apply to "
                f"`repro bench {args.what}`; run `repro bench "
                f"{'core' if kind == 'dse' else kind}`"
            )
    if args.max_overhead is not None and "dse" not in kinds:
        raise CliError(
            "--max-overhead gates the tracer overhead the dse bench "
            f"measures; `repro bench {args.what}` does not run it"
        )

    docs = bench.run_bench(
        kinds,
        bench.BUDGETS[args.budget],
        seed=args.seed,
        out_dir=args.out_dir,
        trace_path=args.trace,
        metrics=MetricsLogger(args.metrics) if args.metrics else None,
    )
    _print_bench(docs, args.budget)
    paths = [bench.bench_path(args.out_dir, kind) for kind in docs]
    print("wrote " + " and ".join(paths))
    if args.trace:
        print(f"wrote Chrome trace to {args.trace}")
    rc = 0
    if "sim" in docs and not docs["sim"]["batch"]["identical_to_serial"]:
        print("FAIL: batched results diverged from serial simulation")
        rc = 1
    if args.max_overhead is not None:
        ratio = docs["dse"]["overhead"]["ratio"]
        if ratio > args.max_overhead:
            print(
                f"FAIL: tracer overhead ratio {ratio:.3f} exceeds "
                f"--max-overhead {args.max_overhead}"
            )
            rc = 1
    if baseline is not None:
        cmp = bench.compare_reports(
            docs[baseline["kind"]], baseline, tolerance=args.max_regression
        )
        for row in cmp["rows"]:
            ratio = (
                f"{row['ratio']:.2f}x" if row["ratio"] is not None else "n/a"
            )
            print(
                f"  {row['status']:12s} {row['metric']}: "
                f"{row['current']} vs baseline {row['baseline']} ({ratio})"
            )
        if cmp["ok"]:
            print(
                f"compare vs {args.compare}: OK "
                f"(tolerance {args.max_regression})"
            )
        else:
            print(
                f"FAIL: regression vs {args.compare} in "
                f"{', '.join(cmp['regressions'])}"
            )
            rc = 1
    return rc


def _print_bench(docs, budget: str) -> None:
    """One summary block per bench document."""
    if "dse" in docs:
        d = docs["dse"]
        o = d["overhead"]
        print(
            f"dse[{budget}]: {d['iterations']} candidates in "
            f"{d['wall_seconds']:.2f}s ({d['candidates_per_second']:.0f}/s), "
            f"preserved-hit rate {d['preserved_hit_rate']:.0%}"
        )
        print(
            f"  fast path {d['fast_path_mean_s'] * 1e3:.3f} ms vs repair "
            f"{d['repair_path_mean_s'] * 1e3:.3f} ms "
            f"({d['fast_path_speedup']:.1f}x), warm-memo rerun "
            f"{d['memo_speedup']:.1f}x faster"
        )
        print(
            f"tracer overhead: disabled/no-tracer ratio {o['ratio']:.3f} "
            f"({o['calls']} span calls, min of {o['repeats']})"
        )
    if "sim" in docs:
        s = docs["sim"]
        batch = s["batch"]
        print(
            f"sim[{budget}] core={s['core']}: {s['stepped_cycles']:,} "
            f"cycles in {s['wall_seconds']:.2f}s "
            f"({s['cycles_per_second']:,.0f} cycles/s)"
        )
        print(
            f"  batch: {batch['pairs']} regions, "
            f"{s['batch_cycles_per_second']:,.0f} cycles/s, "
            f"identical to serial: {batch['identical_to_serial']}"
        )
    if "search" in docs:
        doc = docs["search"]
        for strat in sorted(doc["strategies"]):
            row = doc["strategies"][strat]
            print(
                f"search[{budget}] {strat:12s}: best objective "
                f"{row['best_objective']:.2f}, hypervolume "
                f"{row['hypervolume']:.4g}, {row['feasible']}/{row['trials']} "
                f"feasible, {row['wall_seconds']:.2f}s"
            )
        print(f"best strategy: {doc['best_strategy']}")


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .engine import MetricsLogger
    from .validate import fuzz_run

    stats = fuzz_run(
        budget=args.budget,
        seed=args.seed,
        corpus_dir=args.corpus,
        bands=_bands(args),
        metrics=MetricsLogger(args.metrics),
        max_mutations=args.max_mutations,
    )
    print(stats.render())
    # A failure is "new" when this run added it to the corpus; without a
    # corpus there is no memory, so every failure counts as new.
    new_failures = (
        sum(1 for f in stats.failures if f.was_new)
        if args.corpus
        else len(stats.failures)
    )
    if new_failures:
        print(f"new failures: {new_failures}")
    return 1 if (stats.invariant_violations or new_failures) else 0


def _cmd_soak(args: argparse.Namespace) -> int:
    from .engine import MetricsLogger
    from .validate.soak import CampaignConfig, SoakError, soak_run

    config = CampaignConfig(
        budget=args.budget,
        seed=args.seed,
        shards=args.shards,
        max_mutations=args.max_mutations,
        shrink_budget=args.shrink_budget,
        bands=_bands(args),
    )
    try:
        report = soak_run(
            config,
            state_dir=args.state,
            corpus_dir=args.corpus,
            workers=args.workers,
            resume=args.resume,
            metrics=MetricsLogger(args.metrics),
            promote_dir=args.promote,
            promote_dry_run=args.dry_run,
        )
    except SoakError as exc:
        print(f"soak failed: {exc}", file=sys.stderr)
        return 1
    text = report.render()
    print(text)
    if args.report:
        with open(args.report, "w") as f:
            f.write(text + "\n")
        print(f"wrote triage report to {args.report}")
    # Execution detail (how the split went) stays out of the triage
    # report so it is shard-count independent; surface it here instead.
    if report.cached_shards:
        print(
            f"resumed: shard(s) {report.cached_shards} answered from "
            f"checkpoints"
        )
    if report.crashed_shards:
        print(f"DEGRADED: shard(s) {report.crashed_shards} crashed")
    if report.corpus_migrated:
        print(
            f"corpus migration dropped {report.corpus_migrated} "
            f"redundant entr{'y' if report.corpus_migrated == 1 else 'ies'}"
        )
    if report.promoted:
        verb = "would promote" if report.promote_dry_run else "promoted"
        print(
            f"{verb} {len(report.promoted)} regression case(s): "
            + ", ".join(report.promoted)
        )
    print(f"new failures: {report.new_failures}")
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .engine import MetricsLogger
    from .serve import OverlayServer, ServeConfig, run_until_shutdown

    if not args.designs and not args.registry:
        raise CliError(
            "serve needs at least one design file or --registry DIR"
        )
    config = ServeConfig(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        workers=args.workers,
        default_timeout_s=args.default_timeout,
        drain_timeout_s=args.drain_timeout,
        cache_dir=args.cache_dir,
        registry_dir=args.registry,
    )
    server = OverlayServer(config, metrics=MetricsLogger(args.metrics))

    async def _run() -> None:
        for path in args.designs:
            try:
                name = server.load_design(path)
            except FileNotFoundError as exc:
                raise CliError(f"no such design file: {path}") from exc
            print(
                f"loaded overlay {name!r} from {path} "
                f"(fingerprint {server.overlays[name].fingerprint[:16]})"
            )
        if args.registry:
            print(f"registry attached: {args.registry}")
        started = asyncio.get_running_loop().create_task(
            run_until_shutdown(server)
        )
        while server.endpoint is None and not started.done():
            await asyncio.sleep(0.01)
        if server.endpoint is not None:
            kind, where = server.endpoint
            print(f"serving on {kind} {where}", flush=True)
        await started

    asyncio.run(_run())
    c = server.counters
    print(
        f"drained: {c['requests']} requests "
        f"({c['responses_ok']} ok, {c['responses_error']} errors, "
        f"{c['computes']} compiles, {c['coalesced']} coalesced)"
    )
    return 0


def _client_factory(args: argparse.Namespace):
    from .serve import ServeClient

    if not args.socket and args.port == 0:
        raise CliError("submit needs --socket PATH or --host/--port")
    return lambda: ServeClient(
        socket_path=args.socket, host=args.host, port=args.port
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .serve import (
        COMPUTE_OPS,
        ServeConnectionError,
        ServeError,
        canonical_dumps,
        run_load_sharded,
    )

    factory = _client_factory(args)

    if args.op == "load":
        ops = tuple(o for o in args.ops.split(",") if o)
        bad = [o for o in ops if o not in COMPUTE_OPS]
        if bad or not ops:
            raise CliError(
                f"--ops must be a comma list from "
                f"{', '.join(COMPUTE_OPS)}; got {args.ops!r}"
            )
        workloads = tuple(w for w in args.load_workloads.split(",") if w)
        if not workloads:
            raise CliError("--workloads must name at least one workload")
        overlays = None
        if args.overlays:
            overlays = tuple(o for o in args.overlays.split(",") if o)
        elif args.overlay:
            overlays = (args.overlay,)
        if args.shards < 1:
            raise CliError("--shards must be >= 1")

        try:
            report = run_load_sharded(
                {"socket": args.socket, "host": args.host, "port": args.port},
                ops=ops,
                workloads=workloads,
                requests=args.requests,
                concurrency=args.concurrency,
                load_shards=args.shards,
                overlays=overlays,
                timeout_s=args.timeout,
                expect_errors=args.expect_errors,
                cluster=args.cluster,
            )
        except ServeConnectionError as exc:
            raise CliError(str(exc)) from exc
        except ServeError as exc:
            print(f"load failed: {exc}", file=sys.stderr)
            return 1
        print(report.render())
        if args.json:
            print(json.dumps(report.as_dict(), sort_keys=True))
        if report.mismatches:
            print("FAIL: duplicate requests returned divergent results")
            return 1
        computes = report.computes
        if (
            args.assert_coalescing
            and computes is not None
            and computes >= report.requests
        ):
            print(
                f"FAIL: no coalescing/caching observed "
                f"({computes} compiles for {report.requests} requests)"
            )
            return 1
        return 0

    if args.op in COMPUTE_OPS and not args.workload:
        raise CliError(f"op {args.op!r} requires a workload name")

    async def _one():
        async with factory() as client:
            return await client.request(
                args.op,
                workload=args.workload,
                overlay=args.overlay,
                timeout_s=args.timeout,
            )

    try:
        result = asyncio.run(_one())
    except ServeConnectionError as exc:
        raise CliError(str(exc)) from exc
    except ServeError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    if args.json or args.op in ("stats", "ping", "shutdown", "topology"):
        print(canonical_dumps(result))
    else:
        for key, value in sorted(result.items()):
            print(f"{key}: {value}")
    return 0


def _cmd_registry(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .cluster import OverlayRegistry, RegistryError, split_spec
    from .serve import canonical_dumps

    registry = OverlayRegistry(args.root)
    try:
        if args.registry_op == "publish":
            design_doc = json.loads(Path(args.design).read_text())
            entry = registry.publish(args.name, design_doc, note=args.note)
            print(
                f"published {entry.spec} "
                f"(fingerprint {entry.fingerprint[:16]})"
            )
            return 0
        if args.registry_op == "list":
            rows = registry.list_doc()
            if args.json:
                print(canonical_dumps(rows))
                return 0
            if not rows:
                print("registry is empty")
                return 0
            for row in rows:
                pin_note = (
                    f" (pinned v{row['pinned']})" if row["pinned"] else ""
                )
                print(
                    f"{row['name']}: {row['versions']} versions, "
                    f"latest v{row['latest']}{pin_note}"
                )
            return 0
        if args.registry_op == "show":
            name, _selector = split_spec(args.spec)
            pinned = registry.pinned(name)
            versions = registry.versions(name)
            if not versions:
                raise CliError(f"unknown overlay name {name!r}")
            for entry in versions:
                marker = " *" if pinned == entry.version else ""
                print(
                    f"{entry.spec}{marker}  {entry.fingerprint[:16]}  "
                    f"{entry.note or '-'}"
                )
            return 0
        if args.registry_op == "pin":
            name, selector = split_spec(args.spec)
            if selector is None:
                raise CliError("pin needs an explicit name@vN spec")
            entry = registry.pin(name, registry.lookup(args.spec).version)
            print(f"pinned {name} -> {entry.spec}")
            return 0
        if args.registry_op == "unpin":
            registry.unpin(args.name)
            print(f"unpinned {args.name} (bare name resolves to latest)")
            return 0
        if args.registry_op == "rollback":
            entry = registry.rollback(args.name, args.to_version)
            print(f"rolled back {args.name} -> {entry.spec}")
            return 0
    except (RegistryError, FileNotFoundError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    raise CliError(f"unknown registry op {args.registry_op!r}")


def _cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from .cluster import ClusterLauncher, LauncherConfig

    if args.cluster_op != "serve":
        raise CliError(f"unknown cluster op {args.cluster_op!r}")
    config = LauncherConfig(
        run_dir=args.run_dir,
        shards=args.shards,
        designs=[str(Path(p).resolve()) for p in args.designs],
        registry_dir=(
            str(Path(args.registry).resolve()) if args.registry else None
        ),
        cache_dir=(
            str(Path(args.cache_dir).resolve()) if args.cache_dir else None
        ),
        workers=args.workers,
        queue_limit=args.queue_limit,
        default_timeout_s=args.default_timeout,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        health_interval_s=args.health_interval,
        failover_retries=args.failover_retries,
        metrics_path=args.metrics,
    )
    try:
        launcher = ClusterLauncher(config)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    async def _run() -> None:
        backends = await asyncio.get_running_loop().run_in_executor(
            None, launcher.spawn_shards
        )
        for spec in backends:
            print(f"shard {spec.index} up on {spec.describe()}")
        await launcher.run()

    try:
        asyncio.run(_run())
    except RuntimeError as exc:
        launcher.terminate()
        raise CliError(str(exc)) from exc
    router = launcher.router
    if router is not None:
        c = router.counters
        print(
            f"cluster drained: {c['requests']} requests routed "
            f"({c['retries']} retries, {c['failovers']} failovers)"
        )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .validate import validate_run

    report = validate_run(corpus_dir=args.corpus, bands=_bands(args))
    print(report.render())
    rc = 0 if report.ok else 1
    if args.regression:
        from .validate import replay_promoted_dir

        rows = replay_promoted_dir(args.regression)
        changed = [(n, e, a) for n, e, a in rows if a != e]
        print(
            f"promoted regression cases: {len(rows) - len(changed)}/"
            f"{len(rows)} reproduce their recorded failure key"
        )
        for name, expected, actual in changed:
            print(f"  CHANGED {name}: expected {expected!r}, got {actual!r}")
        if changed:
            rc = 1
    return rc


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="OverGen reproduction: domain-specific overlay generation",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Option groups shared by several commands, each declared once.
    def group() -> argparse.ArgumentParser:
        return argparse.ArgumentParser(add_help=False)

    dse_run = group()
    dse_run.add_argument(
        "workloads", nargs="?", default=None,
        help="suite name (dsp/machsuite/vision), 'all', or comma-separated names",
    )
    dse_run.add_argument("-o", "--output", default="overlay.json")
    dse_run.add_argument("-n", "--iterations", type=int, default=150)
    dse_run.add_argument("-s", "--seed", type=int, default=2)
    dse_run.add_argument("--name", default=None)

    bands = group()
    bands.add_argument(
        "--rel-tol", type=float, default=None,
        help="override every per-class relative tolerance (0 flags any "
             "model/sim gap beyond the absolute floor)",
    )
    bands.add_argument(
        "--abs-floor", type=float, default=None,
        help="absolute cycle gap always forgiven (default 64; 0 disables)",
    )

    fuzzing = group()
    fuzzing.add_argument(
        "--corpus", default=None,
        help="divergence-corpus directory (minimal repros persist here)",
    )
    fuzzing.add_argument(
        "--max-mutations", type=int, default=6,
        help="max random ADG mutations per case",
    )

    endpoint = group()
    endpoint.add_argument(
        "--socket", default=None,
        help="endpoint unix socket path (overrides --host/--port)",
    )
    endpoint.add_argument("--host", default="127.0.0.1")
    endpoint.add_argument(
        "--port", type=int, default=0,
        help="TCP port (listeners: 0 picks a free one, printed at startup)",
    )

    shard = group()
    shard.add_argument(
        "--workers", type=int, default=2,
        help="compile worker processes per shard (0 = in-process threads)",
    )
    shard.add_argument(
        "--queue-limit", type=int, default=64,
        help="requests in service per shard before admission control "
             "sheds load with 'overloaded' (default 64)",
    )
    shard.add_argument(
        "--default-timeout", type=float, default=30.0,
        help="deadline for requests that carry no timeout_s (seconds)",
    )
    shard.add_argument(
        "--cache-dir", default=None,
        help="persist served results in this artifact store directory",
    )
    shard.add_argument(
        "--registry", default=None, metavar="DIR",
        help="overlay registry root; name@version specs resolve from it",
    )
    shard.add_argument(
        "--metrics", default=None,
        help="append serve events to this JSONL file (cluster: the "
             "router's; shards get per-shard files in --run-dir)",
    )

    sub.add_parser("workloads", help="list the Table-II workloads").set_defaults(
        func=_cmd_workloads
    )

    gen = sub.add_parser(
        "generate", parents=[dse_run], help="run the overlay DSE and save it"
    )
    gen.set_defaults(func=_cmd_generate)

    dse = sub.add_parser(
        "dse",
        parents=[dse_run],
        help="engine DSE: parallel multi-seed, cached, checkpoint/resume",
    )
    dse.add_argument(
        "--strategy", default=None,
        help="run the pluggable search runtime with this strategy "
             "(anneal | bottleneck | evolutionary | tpe) instead of the "
             "multi-seed engine",
    )
    dse.add_argument(
        "--list-strategies", action="store_true",
        help="list the registered search strategies and exit",
    )
    dse.add_argument(
        "--trials", type=int, default=None,
        help="search trial budget (default: --iterations for anneal, "
             "16 for the samplers)",
    )
    dse.add_argument(
        "--batch", type=int, default=1,
        help="proposals per ask/tell round (search path only; results "
             "are identical for any --workers)",
    )
    dse.add_argument(
        "--pareto", nargs="?", const="pareto.json", default=None,
        metavar="PATH",
        help="write the study's Pareto-frontier JSON (default PATH: "
             "pareto.json)",
    )
    dse.add_argument(
        "--html", default=None, metavar="PATH",
        help="write the self-contained HTML study report",
    )
    dse.add_argument(
        "--seeds",
        default=None,
        help="comma-separated annealing seeds (best-of-N); default: --seed",
    )
    dse.add_argument(
        "-w", "--workers", type=int, default=1, dest="workers",
        help="worker processes for multi-seed runs",
    )
    dse.add_argument(
        "--cache-dir", default=None,
        help="persistent artifact store (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-overgen)",
    )
    dse.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent artifact store",
    )
    dse.add_argument(
        "--resume", action="store_true",
        help="resume interrupted seeds from their last checkpoint",
    )
    dse.add_argument(
        "--checkpoint-every", type=int, default=25,
        help="annealer iterations between checkpoints (0 disables)",
    )
    dse.add_argument(
        "--seed-timeout", type=float, default=None,
        help="per-seed wall-clock budget in seconds (pool path only); a "
             "timed-out seed is recorded as a failure and the job "
             "degrades to best-of-survivors",
    )
    dse.add_argument(
        "--metrics", default=None,
        help="append engine events to this JSONL file",
    )
    dse.set_defaults(func=_cmd_dse)

    ins = sub.add_parser("inspect", help="render a saved design")
    ins.add_argument("design")
    ins.set_defaults(func=_cmd_inspect)

    mp = sub.add_parser("map", help="schedule a workload onto a saved design")
    mp.add_argument("design")
    mp.add_argument("workload")
    mp.add_argument(
        "--json", action="store_true",
        help="print the canonical result document (the byte-identity "
             "reference for served results)",
    )
    mp.set_defaults(func=_cmd_map)

    sim = sub.add_parser("simulate", help="simulate a workload on a design")
    sim.add_argument("design")
    sim.add_argument(
        "workload",
        help="workload name, or a comma-separated list for one batched "
             "stepping pass (list form is plain output only, not --json)",
    )
    sim.add_argument(
        "--json", action="store_true",
        help="print the canonical result document (the byte-identity "
             "reference for served results)",
    )
    sim.set_defaults(func=_cmd_simulate)

    rtl = sub.add_parser("rtl", help="emit structural RTL")
    rtl.add_argument("design")
    rtl.add_argument("-o", "--output", default=None)
    rtl.add_argument(
        "--backend", default="verilog",
        help="RTL backend name: 'verilog' (golden-stable structural "
             "Verilog) or 'migen' (LiteX-flavoured structural Python)",
    )
    rtl.set_defaults(func=_cmd_rtl)

    fp = sub.add_parser("floorplan", help="SLR floorplan + clock estimate")
    fp.add_argument("design")
    fp.set_defaults(func=_cmd_floorplan)

    adv = sub.add_parser(
        "advise", help="explain how well a workload fits a saved design"
    )
    adv.add_argument("design")
    adv.add_argument("workload")
    adv.set_defaults(func=_cmd_advise)

    rep = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    rep.add_argument("-o", "--output", default="EXPERIMENTS.md")
    rep.set_defaults(func=_cmd_report)

    study = sub.add_parser(
        "study",
        help="inspect, export, merge, and import persistent search studies",
    )
    study.add_argument(
        "action",
        choices=("list", "show", "export", "merge", "import"),
        help="list studies; show/export one; merge several into a new "
             "study; import dse_point metrics JSONL as a study",
    )
    study.add_argument(
        "keys", nargs="*",
        help="study key prefixes (or, for import, a metrics JSONL path)",
    )
    study.add_argument(
        "--study-dir", default=None,
        help="store directory (default: $REPRO_CACHE_DIR or "
             "~/.cache/repro-overgen)",
    )
    study.add_argument(
        "-o", "--output", default=None,
        help="write export output here instead of stdout",
    )
    study.add_argument(
        "--axes", default=None,
        help="comma-separated objective axes as name:sense (default: "
             "objective:max,lut:min,dsp:min,bram:min)",
    )
    study.add_argument(
        "--html", default=None, metavar="PATH",
        help="with export: also write the HTML report here",
    )
    study.set_defaults(func=_cmd_study, cache_dir=None, no_cache=False)

    bench = sub.add_parser(
        "bench",
        help="fixed-seed DSE + simulation benchmarks with span tracing",
    )
    bench.add_argument(
        "what", nargs="?", choices=("core", "search", "sim"), default="core",
        help="core: DSE+simulation benchmarks (default); search: the "
             "strategy shootout (writes BENCH_search.json); sim: the "
             "simulation benchmark only (writes BENCH_sim.json)",
    )
    bench.add_argument(
        "--budget", choices=("smoke", "small", "full"), default="small",
        help="benchmark size (default: small)",
    )
    bench.add_argument("-s", "--seed", type=int, default=2)
    bench.add_argument(
        "--out-dir", default=".",
        help="directory for BENCH_dse.json / BENCH_sim.json",
    )
    bench.add_argument(
        "--trace", default=None,
        help="also write a Chrome trace-event file here (chrome://tracing)",
    )
    bench.add_argument(
        "--metrics", default=None,
        help="append bench + trace_summary events to this JSONL file",
    )
    bench.add_argument(
        "--compare", default=None,
        help="regression-check against a stored BENCH_*.json baseline",
    )
    bench.add_argument(
        "--max-overhead", type=float, default=None,
        help="fail if disabled-tracer/no-tracer span ratio exceeds this "
             "(needs the dse bench: `bench core`)",
    )
    bench.add_argument(
        "--max-regression", type=float, default=0.25,
        help="allowed relative drop before --compare fails (default 0.25)",
    )
    bench.set_defaults(func=_cmd_bench)

    fuzz = sub.add_parser(
        "fuzz",
        parents=[bands, fuzzing],
        help="differential model-vs-simulator fuzzing (generate, check, "
             "shrink, record)",
    )
    fuzz.add_argument(
        "--budget", type=int, default=100, help="number of cases to draw"
    )
    fuzz.add_argument("-s", "--seed", type=int, default=0)
    fuzz.add_argument(
        "--metrics", default=None,
        help="append fuzz events to this JSONL file",
    )
    fuzz.set_defaults(func=_cmd_fuzz)

    soak = sub.add_parser(
        "soak",
        parents=[bands, fuzzing],
        help="sharded resumable fuzz campaign: checkpointed shards, "
             "deterministic merged triage report, regression promotion",
    )
    soak.add_argument(
        "--budget", type=int, default=200,
        help="total cases across all shards (default 200)",
    )
    soak.add_argument("-s", "--seed", type=int, default=0)
    soak.add_argument(
        "--shards", type=int, default=4,
        help="independent seed-range slices (default 4); the merged "
             "report is identical for any shard count",
    )
    soak.add_argument(
        "-w", "--workers", type=int, default=None, dest="workers",
        help="worker processes (default: min(shards, cpu count))",
    )
    soak.add_argument(
        "--state", default=None,
        help="campaign state directory; finished shards checkpoint here "
             "(required for --resume)",
    )
    soak.add_argument(
        "--resume", action="store_true",
        help="answer already-finished shards from --state checkpoints",
    )
    soak.add_argument(
        "--promote", default=None, metavar="DIR",
        help="freeze each deduped minimal repro as a committed regression "
             "case (JSON + generated pytest module) under DIR",
    )
    soak.add_argument(
        "--dry-run", action="store_true",
        help="with --promote: name the cases without writing files",
    )
    soak.add_argument(
        "--report", default=None, metavar="FILE",
        help="also write the triage report to FILE (byte-identical for "
             "identical campaigns)",
    )
    soak.add_argument(
        "--shrink-budget", type=int, default=120,
        help="max oracle evaluations per shrink (default 120)",
    )
    soak.add_argument(
        "--metrics", default=None,
        help="append campaign events to this JSONL file",
    )
    soak.set_defaults(func=_cmd_soak)

    srv = sub.add_parser(
        "serve",
        parents=[endpoint, shard],
        help="serve map/estimate/simulate requests over loaded overlays "
             "(JSON-lines, coalescing, admission control, graceful drain)",
    )
    srv.add_argument(
        "designs", nargs="*",
        help="design JSON file(s) to serve (may be empty with --registry)",
    )
    srv.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="max seconds graceful drain waits for in-flight requests",
    )
    srv.set_defaults(func=_cmd_serve)

    sb = sub.add_parser(
        "submit",
        parents=[endpoint],
        help="submit requests to a running 'repro serve' (one-shot or load)",
    )
    sb.add_argument(
        "op",
        choices=("map", "estimate", "simulate", "simulate_batch", "remap",
                 "ping", "stats", "topology", "shutdown", "load"),
    )
    sb.add_argument("workload", nargs="?", default=None)
    sb.add_argument(
        "--overlay", default=None,
        help="overlay name (optional when the server holds exactly one)",
    )
    sb.add_argument(
        "--timeout", type=float, default=None,
        help="per-request deadline in seconds",
    )
    sb.add_argument(
        "--json", action="store_true",
        help="print the canonical result document",
    )
    sb.add_argument(
        "--requests", type=int, default=64,
        help="[load] total requests to fire (default 64)",
    )
    sb.add_argument(
        "--concurrency", type=int, default=16,
        help="[load] concurrent connections (default 16)",
    )
    sb.add_argument(
        "--ops", default="map,estimate,simulate",
        help="[load] comma list of compute ops to mix",
    )
    sb.add_argument(
        "--workloads", dest="load_workloads", default="vecmax",
        help="[load] comma list of workload names to mix",
    )
    sb.add_argument(
        "--expect-errors", action="store_true",
        help="[load] do not fail the run when requests error "
             "(for admission-control experiments)",
    )
    sb.add_argument(
        "--assert-coalescing", action="store_true",
        help="[load] fail unless compiles < requests in server stats",
    )
    sb.add_argument(
        "--overlays", default=None,
        help="[load] comma list of overlay specs to mix (overrides "
             "--overlay; registry name@vN specs work here)",
    )
    sb.add_argument(
        "--cluster", action="store_true",
        help="[load] fetch the cluster topology and route each request "
             "directly to its owning shard (per-shard latency + balance)",
    )
    sb.add_argument(
        "--shards", type=int, default=1,
        help="[load] load-generator processes; the deterministic request "
             "plan is split across them and reports merge (default 1)",
    )
    sb.set_defaults(func=_cmd_submit)

    reg = sub.add_parser(
        "registry",
        help="versioned overlay registry: publish/pin/rollback named "
             "overlay versions on an artifact store",
    )
    reg.add_argument(
        "--root", required=True,
        help="registry/store root directory (shards share it)",
    )
    regsub = reg.add_subparsers(dest="registry_op", required=True)
    rpub = regsub.add_parser(
        "publish", help="register a design JSON as the next version"
    )
    rpub.add_argument("name", help="overlay family name")
    rpub.add_argument("design", help="design JSON file")
    rpub.add_argument("--note", default=None)
    rlist = regsub.add_parser("list", help="list registered names")
    rlist.add_argument("--json", action="store_true")
    rshow = regsub.add_parser("show", help="list every version of a name")
    rshow.add_argument("spec", help="overlay name (or name@vN)")
    rpin = regsub.add_parser("pin", help="pin a name to one version")
    rpin.add_argument("spec", help="name@vN")
    runpin = regsub.add_parser("unpin", help="remove a name's pin")
    runpin.add_argument("name")
    rroll = regsub.add_parser(
        "rollback", help="move the pin to an earlier version"
    )
    rroll.add_argument("name")
    rroll.add_argument(
        "--to-version", type=int, default=None,
        help="explicit version (default: one before the active one)",
    )
    reg.set_defaults(func=_cmd_registry)

    clu = sub.add_parser(
        "cluster",
        help="multi-shard serve: spawn N serve shards + the consistent-"
             "hash front-tier router as one unit",
    )
    clusub = clu.add_subparsers(dest="cluster_op", required=True)
    cserve = clusub.add_parser(
        "serve",
        parents=[endpoint, shard],
        help="spawn shards and route until shutdown",
    )
    cserve.add_argument(
        "designs", nargs="*",
        help="design JSON file(s) every shard preloads "
             "(may be empty with --registry)",
    )
    cserve.add_argument(
        "--run-dir", required=True,
        help="directory for shard sockets, logs, and metrics",
    )
    cserve.add_argument(
        "--shards", type=int, default=2,
        help="backend serve shard processes (default 2)",
    )
    cserve.add_argument(
        "--health-interval", type=float, default=2.0,
        help="seconds between router health sweeps (default 2)",
    )
    cserve.add_argument(
        "--failover-retries", type=int, default=2,
        help="bounded retries on overloaded/unreachable shards",
    )
    cserve.set_defaults(func=_cmd_cluster)

    val = sub.add_parser(
        "validate",
        parents=[bands],
        help="structural invariants on the built-in suite + corpus replay",
    )
    val.add_argument(
        "--corpus", default=None,
        help="divergence-corpus directory to replay",
    )
    val.add_argument(
        "--regression", default=None, metavar="DIR",
        help="also replay promoted regression cases under DIR (from "
             "'repro soak --promote'); exits 1 on behaviour changes",
    )
    val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
