"""Commands that produce designs and studies: ``generate``, ``dse`` (one
path: the engine runs one search study per seed, ``--strategy`` picks
what searches), ``study``."""

from __future__ import annotations

import argparse
import sys
from contextlib import closing
from typing import Optional

from ..dse import DseConfig
from . import common
from .common import CliError, cache_dir_for, print_design, resolve_workloads


def _dse_config(args: argparse.Namespace) -> DseConfig:
    return DseConfig(iterations=args.iterations, seed=args.seed)


def _explore(args, workloads, engine, seeds, settings=None, resume=False):
    """Best-of-``seeds`` DSE through ``engine``: the one body ``generate``
    and ``dse`` share."""
    return engine.explore(
        workloads,
        _dse_config(args),
        name=args.name or args.workloads,
        seeds=seeds,
        resume=resume,
        settings=settings,
    )


def _save_design(args, res, terse=False) -> int:
    """Print and save the best seed's design; 1 when the run found none."""
    if res.outcome.sysadg is None:
        print("no feasible trials; no design written", file=sys.stderr)
        return 1
    # Only a strategy that returns a DseResult (the annealer, which is
    # all ``generate`` runs) models toolchain time.
    hours = res.result.modeled_hours if res.result is not None else None
    if terse:
        note = f"modeled DSE time: {hours:.1f} h"
    else:
        note = f"objective {res.objective:.2f}"
        if hours is not None:
            note += f", modeled DSE time {hours:.1f} h"
        note += f" (wall {res.metrics.wall_seconds:.1f} s)"
    print_design(res.outcome.sysadg, note=note, output=args.output)
    return 0


def _print_engine_run(res) -> None:
    m = res.metrics
    if res.from_cache:
        print(f"cache hit ({m.cache_tier}): artifact {res.key[:16]} reused, "
              f"0 DSE iterations run")
    else:
        print("seed outcomes: " + ", ".join(
            f"seed {o.seed}: " + _seed_cell(o) for o in res.outcomes
        ))
        print(
            f"ran {m.iterations} iterations in {m.wall_seconds:.1f}s "
            f"({m.iterations_per_second:.0f} it/s), acceptance "
            f"{m.acceptance_rate:.0%}, best seed {m.best_seed}"
        )
        if m.crashed_seeds:
            print(f"degraded to best-of-survivors (crashed: {m.crashed_seeds})")
    study = res.outcome.study
    print(
        f"study {res.outcome.key[:16]}: {len(study.trials)} trial(s), "
        f"{len(study.feasible_trials())} feasible"
    )
    _print_best_trial(study)


def _print_best_trial(study) -> None:
    best = study.best_trial()
    if best is not None:
        print(
            f"best trial #{best.index}: objective {best.objective:.2f}, "
            f"lut {best.lut:.3f}, bram {best.bram:.3f}, dsp {best.dsp:.3f}"
        )


def _seed_cell(o) -> str:
    if o.outcome is None:
        return f"CRASHED ({o.error})"
    objective = o.outcome.objective
    cell = "infeasible" if objective is None else f"{objective:.2f}"
    return cell + (" (resumed)" if o.outcome.resumed else "")


def run_generate(args: argparse.Namespace) -> int:
    """``dse`` with one seed, one process and no store, tersely reported."""
    from ..search import DseEngine

    workloads = resolve_workloads(args.workloads)
    print(
        f"running DSE for {len(workloads)} workload(s): "
        f"{', '.join(w.name for w in workloads)}"
    )
    res = _explore(args, workloads, DseEngine(), [args.seed])
    return _save_design(args, res, terse=True)


def run_dse(args: argparse.Namespace) -> int:
    from ..engine import MetricsLogger
    from ..search import (
        DseEngine,
        SearchSettings,
        export_frontier,
        render_html,
        strategy_names,
    )

    if args.list_strategies:
        for name in strategy_names():
            print(name)
        return 0
    if not args.workloads:
        raise CliError(
            "missing workloads argument (suite name, 'all', or "
            "comma-separated names); or use --list-strategies"
        )
    if args.strategy not in strategy_names():
        raise CliError(
            f"unknown strategy {args.strategy!r}; available: "
            + ", ".join(strategy_names())
        )
    # The annealer walks the iteration schedule, so its natural trial
    # budget is --iterations; the samplers default to SearchSettings'.
    trials = args.trials
    if trials is None:
        trials = (
            args.iterations
            if args.strategy == "anneal"
            else SearchSettings().trials
        )
    for flag, value in (("--trials", trials), ("--batch", args.batch)):
        if value < 1:
            raise CliError(f"{flag} must be at least 1 (got {value})")
    settings = SearchSettings(
        strategy=args.strategy, trials=trials, batch=args.batch
    )
    workloads = resolve_workloads(args.workloads)
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
    cache_dir = cache_dir_for(args)
    print(
        f"engine DSE [{args.strategy}] for {len(workloads)} workload(s), "
        f"seeds {seeds}, {trials} trial(s), batch {args.batch}, "
        f"{args.workers} worker(s), cache {cache_dir or 'disabled'}"
    )
    with closing(MetricsLogger(args.metrics)) as metrics:
        engine = DseEngine(
            cache_dir=cache_dir or None,
            workers=args.workers,
            metrics=metrics,
            checkpoint_every=args.checkpoint_every,
            seed_timeout=args.seed_timeout,
        )
        res = _explore(
            args, workloads, engine, seeds, settings, resume=args.resume
        )
    _print_engine_run(res)
    rc = _save_design(args, res)
    if args.pareto:
        with open(args.pareto, "w") as f:
            f.write(export_frontier(res.outcome.study))
        print(f"wrote Pareto frontier to {args.pareto}")
    if args.html:
        with open(args.html, "w") as f:
            f.write(render_html(res.outcome.study))
        print(f"wrote HTML report to {args.html}")
    if args.metrics:
        print(f"metrics stream appended to {args.metrics}")
    return rc


def _study_axes(spec: Optional[str]):
    from ..search import DEFAULT_AXES, parse_axis

    if not spec:
        return DEFAULT_AXES
    try:
        return tuple(parse_axis(part) for part in spec.split(",") if part)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _study_resolve(store, prefix: str) -> str:
    """Full study key for a (possibly abbreviated) key prefix."""
    from ..search import list_studies

    keys = [row["key"] for row in list_studies(store)]
    matches = [k for k in keys if k.startswith(prefix)]
    if not matches:
        raise CliError(f"no study matching {prefix!r} in the store")
    if len(matches) > 1:
        raise CliError(
            f"ambiguous study prefix {prefix!r}: {len(matches)} matches"
        )
    return matches[0]


def run_study(args: argparse.Namespace) -> int:
    from ..engine.store import ArtifactStore
    from ..search import (
        export_study,
        frontier_doc,
        list_studies,
        load_study,
        merge_studies,
        render_html,
        save_study,
    )

    store = ArtifactStore(args.study_dir or cache_dir_for(args))
    axes = _study_axes(args.axes)

    def _load(prefix: str):
        study, _state = load_study(store, _study_resolve(store, prefix))
        if study is None:
            raise CliError(f"study {prefix!r} is unreadable")
        return study

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
        _print_best_trial(study)
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
        text = export_study(study, axes)
        if args.output:
            with open(args.output, "w") as f:
                f.write(text)
            print(f"wrote study {study.key[:16]} to {args.output}")
        else:
            sys.stdout.write(text)
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

    raise CliError(f"unknown study action {args.action!r}")


def add_parsers(sub) -> None:
    gen = sub.add_parser(
        "generate", parents=[common.dse_run], help="run the overlay DSE and save it"
    )
    gen.set_defaults(func=run_generate)

    dse = sub.add_parser(
        "dse",
        parents=[common.dse_run],
        help="engine DSE: parallel multi-seed, cached, checkpoint/resume",
    )
    dse.add_argument(
        "--strategy", default="anneal",
        help="what searches each seed "
             "(anneal | bottleneck | evolutionary | tpe)",
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
        help="proposals per ask/tell round (results are identical for "
             "any --workers)",
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
        help="comma-separated search seeds (best-of-N); default: --seed",
    )
    dse.add_argument(
        "-w", "--workers", type=int, default=1, dest="workers",
        help="worker processes: across seeds when there are several, "
             "else across one study's batch",
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
        help="trials between saves of a seed's study (0: only the "
             "finished study)",
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
    dse.set_defaults(func=run_dse)

    study = sub.add_parser(
        "study",
        help="inspect, export, and merge persistent search studies",
    )
    study.add_argument(
        "action",
        choices=("list", "show", "export", "merge"),
        help="list studies; show/export one; merge several into a new "
             "study",
    )
    study.add_argument("keys", nargs="*", help="study key prefixes")
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
    study.set_defaults(func=run_study, cache_dir=None, no_cache=False)
