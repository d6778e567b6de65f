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


def run_fuzz(args: argparse.Namespace) -> int:
    from ..engine import MetricsLogger
    from ..validate import fuzz_run

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


def run_soak(args: argparse.Namespace) -> int:
    from ..engine import MetricsLogger
    from ..validate.soak import CampaignConfig, SoakError, soak_run

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


def run_validate(args: argparse.Namespace) -> int:
    from ..validate import validate_run

    report = validate_run(corpus_dir=args.corpus, bands=_bands(args))
    print(report.render())
    rc = 0 if report.ok else 1
    if args.regression:
        from ..validate import replay_promoted_dir

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
        parents=[common.bands],
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
    val.set_defaults(func=run_validate)
