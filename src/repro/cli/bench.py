"""``repro bench``: the deterministic search-strategy shootout.

Host time is measured by ``bench/`` (``python3 bench/run.py``), not here.
"""

from __future__ import annotations

import argparse
import json
import os


def run_bench(args: argparse.Namespace) -> int:
    from ..search import shootout

    doc = shootout(args.budget, args.seed)
    for strat in sorted(doc["strategies"]):
        row = doc["strategies"][strat]
        print(
            f"search[{args.budget}] {strat:12s}: best objective "
            f"{row['best_objective']:.2f}, hypervolume "
            f"{row['hypervolume']:.4g}, {row['feasible']}/{row['trials']} "
            f"feasible"
        )
    print(f"best strategy: {doc['best_strategy']}")
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "BENCH_search.json")
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")
    return 0


def add_parsers(sub) -> None:
    bench = sub.add_parser(
        "bench",
        help="deterministic search-strategy shootout (writes "
             "BENCH_search.json)",
    )
    bench.add_argument(
        "--budget", choices=("smoke", "small", "full"), default="small",
        help="workloads and trials per strategy (default: small)",
    )
    bench.add_argument("-s", "--seed", type=int, default=2)
    bench.add_argument(
        "--out-dir", default=".",
        help="directory for BENCH_search.json",
    )
    bench.set_defaults(func=run_bench)
