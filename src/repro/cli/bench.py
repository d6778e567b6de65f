"""``repro bench``: run the fixed-seed benchmarks, gate on a baseline."""

from __future__ import annotations

import argparse
import json

from .common import CliError

#: What each ``repro bench <what>`` selects from ``profile.bench.BENCHES``.
_BENCH_KINDS = {"core": ("dse", "sim"), "sim": ("sim",), "search": ("search",)}


def _load_baseline(path: str, what: str):
    from ..profile.bench import BENCHES

    try:
        with open(path) as f:
            baseline = json.load(f)
    except FileNotFoundError as exc:
        raise CliError(f"no such baseline file: {path}") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read baseline {path}: {exc}") from exc
    kind = baseline.get("kind")
    if kind not in BENCHES:
        raise CliError(
            f"{path}: not a BENCH report (missing/unknown 'kind')"
        )
    if kind not in _BENCH_KINDS[what]:
        raise CliError(
            f"{path}: kind {kind!r} baseline does not apply to "
            f"`repro bench {what}`; run `repro bench "
            f"{'core' if kind == 'dse' else kind}`"
        )
    return baseline


def run_bench(args: argparse.Namespace) -> int:
    from ..engine import MetricsLogger
    from ..profile import bench

    kinds = _BENCH_KINDS[args.what]
    baseline = None
    if args.compare:
        baseline = _load_baseline(args.compare, args.what)
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
    print(bench.render_bench(docs, args.budget))
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
        print(bench.render_comparison(cmp, args.compare))
        if not cmp["ok"]:
            rc = 1
    return rc


def add_parsers(sub) -> None:
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
    bench.set_defaults(func=run_bench)
