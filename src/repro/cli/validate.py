"""The differential-testing commands: ``fuzz``, ``soak``, ``validate``."""

from __future__ import annotations

import argparse
import sys

from . import common


def _bands(args: argparse.Namespace):
    from dataclasses import replace

    from ..validate import ToleranceBands

    bands = ToleranceBands().scaled(args.rel_tol)
    if args.abs_floor is not None:
        bands = replace(bands, abs_floor=args.abs_floor)
    return bands


def _config(args: argparse.Namespace, **split):
    from ..validate.soak import CampaignConfig

    return CampaignConfig(
        budget=args.budget,
        seed=args.seed,
        max_mutations=args.max_mutations,
        bands=_bands(args),
        **split,
    )


def _campaign(
    args: argparse.Namespace, config, report_path=None, **run
) -> int:
    """Run one campaign and print its triage report."""
    from ..engine import MetricsLogger
    from ..validate.soak import SoakError, soak_run

    try:
        report = soak_run(
            config,
            corpus_dir=args.corpus,
            metrics=MetricsLogger(args.metrics),
            **run,
        )
    except SoakError as exc:
        print(f"soak failed: {exc}", file=sys.stderr)
        return 1
    text = report.render()
    print(text)
    if report_path:
        with open(report_path, "w") as f:
            f.write(text + "\n")
        print(f"wrote triage report to {report_path}")
    # Execution detail (how the split went) stays out of the triage
    # report so it is shard-count independent; surface it here instead.
    if report.cached_shards:
        print(
            f"resumed: shard(s) {report.cached_shards} answered from "
            f"checkpoints"
        )
    if report.crashed_shards:
        print(f"DEGRADED: shard(s) {report.crashed_shards} crashed")
    if report.promoted:
        verb = "would promote" if report.promote_dry_run else "promoted"
        print(
            f"{verb} {len(report.promoted)} regression case(s): "
            + ", ".join(report.promoted)
        )
    print(f"new failures: {report.new_failures}")
    return 0 if report.ok else 1


def run_fuzz(args: argparse.Namespace) -> int:
    # The campaign with one shard, one worker and no state.
    return _campaign(args, _config(args), workers=1)


def run_soak(args: argparse.Namespace) -> int:
    return _campaign(
        args,
        _config(args, shards=args.shards, shrink_budget=args.shrink_budget),
        report_path=args.report,
        workers=args.workers,
        state_dir=args.state,
        resume=args.resume,
        promote_dir=args.promote,
        promote_dry_run=args.dry_run,
    )


def run_validate(args: argparse.Namespace) -> int:
    from ..validate import validate_run

    report = validate_run(corpus_dir=args.corpus)
    print(report.render())
    return 0 if report.ok else 1


def add_parsers(sub) -> None:
    fuzz = sub.add_parser(
        "fuzz",
        parents=[common.bands, common.fuzzing],
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
    fuzz.set_defaults(func=run_fuzz)

    soak = sub.add_parser(
        "soak",
        parents=[common.bands, common.fuzzing],
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
    soak.set_defaults(func=run_soak)

    val = sub.add_parser(
        "validate",
        help="structural invariants on the built-in suite + corpus replay",
    )
    val.add_argument(
        "--corpus", default=None,
        help="divergence-corpus directory to replay",
    )
    val.set_defaults(func=run_validate)
