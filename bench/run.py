"""The end-to-end benchmark of the OverGen pipeline.

    python bench/run.py --seed 2            # all workloads -> bench/out/results.json
    python bench/run.py --seed 2 --trace    # plus a separate traced pass
    python bench/run.py --workload serve_hot --seed 7 --seconds 12 --trace 0

Each workload runs in its own fresh interpreter (``worker.py``) with
``PYTHONHASHSEED=0`` and a private ``REPRO_KERNEL_CACHE``, so the C
stepping kernel is always compiled, never loaded from an earlier run.
End-to-end numbers always come from an untraced process; ``--trace``
starts a second process per workload for the per-layer table and a
Chrome trace.  With ``--workload`` the last line printed is one JSON
object ``{correct, attempted, failed, metrics}`` holding exactly the
metrics ``BENCHMARK.json`` lists (end-to-end, or per-layer with
``--trace 1``).  Exit status: 0 all outputs correct, 1 some op's output
differs from ``bench/expected.json``, 2 the environment cannot run it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, NoReturn, Optional

import inputs
import spec

OUT_DIR = os.path.join(inputs.HERE, "out")
WORKER = os.path.join(inputs.HERE, "worker.py")
#: A workload process that runs longer than this is killed.
WORKER_TIMEOUT_S = 170


def die(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def environment() -> Dict[str, Any]:
    try:
        commit: Optional[str] = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=inputs.ROOT, check=True,
            capture_output=True, text=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "load_1min": os.getloadavg()[0],
        "git_commit": commit,
    }


def run_worker(
    workload: str, args: argparse.Namespace, trace: bool, layers: List[str]
) -> Dict[str, Any]:
    """One workload in a fresh process; returns the document it printed."""
    run_dir = os.path.join(OUT_DIR, f"run-{os.getpid()}-{workload}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = {
        k: v for k, v in os.environ.items()
        if k not in ("REPRO_SIM_CORE", "REPRO_CACHE_DIR")
    }
    env.update(
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(
            p for p in (inputs.SRC, os.environ.get("PYTHONPATH")) if p
        ),
        REPRO_KERNEL_CACHE=os.path.join(run_dir, "kernel"),
        TMPDIR=run_dir,
    )
    min_reps = spec.MIN_REPS.get(workload, spec.DEFAULT_MIN_REPS)
    if args.smoke:
        min_reps = 1
    if trace:
        min_reps = max(min_reps, 2)  # one plain rep, one traced
    command = [
        sys.executable, WORKER,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--min-reps", str(min_reps),
        "--trace", str(int(trace)),
        "--connections", str(args.connections),
        # Relative: a unix socket path has ~100 characters to live in.
        "--out-dir", os.path.relpath(run_dir, inputs.ROOT),
        "--layers", ",".join(layers),
        "--started", repr(time.time()),
    ]
    proc = subprocess.Popen(
        command, cwd=inputs.ROOT, env=env, stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = ""
    finally:
        # The worker's server and pool processes share its session.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode == 2:
        raise SystemExit(2)
    if proc.returncode != 0 or not stdout.strip():
        die(f"workload {workload} ended with status {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def show(doc: Dict[str, Any], specs: List[Dict[str, Any]], units: Dict[str, str]) -> None:
    name = doc["workload"]
    info = doc["info"]
    print(f"{name}: {info['reps']} reps, {doc['attempted']} ops attempted, "
          f"{doc['failed']} failed")
    for reason in doc["reasons"]:
        print(f"  FAILED {reason}")
    for entry in specs:
        metric = doc["end_to_end"].get(entry["name"])
        if metric is None:
            continue
        note = ""
        if entry["name"] == "op_p95_ms":
            note = (f"  ({info['latency_samples']} samples, "
                    f"{info['p95_tail_samples']} beyond)")
        print(f"  {entry['name']:<22}{metric['value']:>16.4f} {entry['unit']}{note}")
    if "op_p99_ms" in info:
        print(f"  {'op_p99_ms (info)':<22}{info['op_p99_ms']:>16.4f} ms")
    for layer, value in doc.get("per_layer", {}).items():
        print(f"  {layer:<34}{value:>16.4f} {units[layer]}")
    if "trace" in info:
        print(f"  chrome trace: {info['trace']}")


def main() -> int:
    if not os.path.isdir(os.path.join(inputs.SRC, "repro")):
        die(f"no program to benchmark: {inputs.SRC}/repro is missing")
    benchmark = spec.load_benchmark()
    names = spec.workload_names(benchmark)
    nproc = os.cpu_count() or 1

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload and end with the result line")
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(benchmark["run_seconds"]),
                        help="time box of the timed reps, per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="also (with --workload: only) run the traced pass")
    parser.add_argument("--smoke", action="store_true",
                        help="1 s box, 1 rep: checks plumbing, not speed")
    parser.add_argument("--connections", type=int, default=min(2, nproc),
                        help="load-generator connections of the serve workloads")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "results.json"))
    args = parser.parse_args()
    if args.smoke:
        args.seconds = 1.0
    if not 1 <= args.connections <= nproc:
        die(f"--connections {args.connections} is outside 1..nproc ({nproc}): "
            "the generator would compete with the server for cores")

    specs = spec.end_to_end_specs(benchmark)
    layers = [entry["name"] for entry in benchmark["per_layer"]]
    units = {e["name"]: e["unit"] for e in benchmark["per_layer"]}
    driver = args.workload is not None
    selected = [args.workload] if driver else list(names)
    passes = [bool(args.trace)] if driver else [False] + [True] * bool(args.trace)

    results: Dict[str, Any] = {}
    for trace in passes:
        for workload in selected:
            doc = run_worker(workload, args, trace, layers)
            show(doc, [] if trace else specs, units)
            if trace and workload in results:
                # End-to-end numbers stay those of the untraced process.
                results[workload]["per_layer"] = doc["per_layer"]
                results[workload]["info"]["trace"] = doc["info"]["trace"]
                for key in ("attempted", "failed"):
                    results[workload][key] += doc[key]
                results[workload]["reasons"] += doc["reasons"]
            else:
                results[workload] = doc

    failed = sum(doc["failed"] for doc in results.values())
    if driver:
        doc = results[args.workload]
        if args.trace:
            metrics = {
                n: {"value": doc["per_layer"][n], "unit": units[n]}
                for n in layers
            }
        else:
            metrics = {
                e["name"]: {
                    "value": doc["end_to_end"][e["name"]]["value"],
                    "unit": e["unit"],
                }
                for e in benchmark["end_to_end"]
            }
        print(json.dumps({
            "correct": failed == 0,
            "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": metrics,
        }))
    else:
        for doc in results.values():
            for entry in specs:
                if entry["name"] in doc["end_to_end"]:
                    doc["end_to_end"][entry["name"]]["unit"] = entry["unit"]
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as f:
            json.dump({
                "schema": 1,
                "seed": args.seed,
                "seconds": args.seconds,
                "environment": environment(),
                "workloads": results,
            }, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {os.path.relpath(args.out)}; "
              f"{failed} failed ops across {len(results)} workloads")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
