"""Fixed-seed DSE, simulation and search benchmarks: ``repro bench``.

:func:`run_bench` runs any subset of the :data:`BENCHES` kinds under one
:class:`~repro.profile.Tracer` and writes one ``BENCH_<kind>.json`` each:

* **DSE** — one fixed-seed annealing run.  Reports wall seconds,
  candidates/sec, the preserved-hit rate, and the measured mean wall
  time of the schedule-preserving fast path (``scheduler.revalidate``)
  versus the repair path (``scheduler.repair``).
* **Simulation** — cycle-level simulation of a workload set on the
  deterministic general overlay.  Reports cycles stepped per wall
  second, serially and through ``simulate_batch``, and — because that
  figure is dominated by the one long region — regions per second over
  the regions that do not extrapolate, serially and through one batch.
* **Search** — every registered strategy on the same trial budget;
  solution quality is deterministic per (budget, seed).

Every document carries ``schema``, ``kind`` and its own ``spans``
(schema documented in README).  ``compare_reports`` implements the
``--compare BASELINE.json`` regression mode (``render_comparison`` and
``render_bench`` are the text the CLI prints), and ``measure_overhead``
times the disabled-tracer ``span()`` fast path against a no-tracer run
(the CI gate asserts the ratio stays near 1.0).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from .tracer import (
    SpanStat,
    Tracer,
    current,
    install,
    span,
    tracing,
    uninstall,
)

#: Version of the BENCH_*.json document layout.
BENCH_SCHEMA = 1

#: Metrics compared by ``--compare`` (all higher-is-better rates/ratios;
#: raw wall seconds are machine-dependent and deliberately excluded).
COMPARED_METRICS: Dict[str, Tuple[str, ...]] = {
    "dse": ("candidates_per_second", "fast_path_speedup"),
    "sim": (
        "cycles_per_second",
        "batch_cycles_per_second",
        "short_regions_per_second",
        "batch_short_regions_per_second",
    ),
    # The strategy shootout compares solution quality, which is
    # deterministic per (budget, seed) — regressions here mean a search
    # code change, not machine noise.
    "search": (
        "anneal_best_objective",
        "bottleneck_best_objective",
        "evolutionary_best_objective",
        "tpe_best_objective",
    ),
}

#: Strategies the ``bench search`` shootout runs, in report order.
SEARCH_STRATEGIES: Tuple[str, ...] = (
    "anneal",
    "bottleneck",
    "evolutionary",
    "tpe",
)


@dataclass(frozen=True)
class BenchBudget:
    """One named benchmark size (what CI calls ``--budget``)."""

    name: str
    dse_workloads: Tuple[str, ...]
    dse_iterations: int
    sim_workloads: Tuple[str, ...]
    overhead_calls: int
    #: Per-strategy trial budget of the ``bench search`` shootout.
    search_trials: int = 8


BUDGETS: Dict[str, BenchBudget] = {
    "smoke": BenchBudget(
        name="smoke",
        dse_workloads=("fir",),
        dse_iterations=8,
        sim_workloads=("fir", "vecmax"),
        overhead_calls=20_000,
        search_trials=6,
    ),
    "small": BenchBudget(
        name="small",
        dse_workloads=("fir", "mm"),
        dse_iterations=40,
        sim_workloads=("fir", "mm", "bgr2grey", "vecmax"),
        overhead_calls=50_000,
        search_trials=12,
    ),
    "full": BenchBudget(
        name="full",
        dse_workloads=("cholesky", "fft", "fir", "solver", "mm"),
        dse_iterations=150,
        sim_workloads=(
            "fir", "mm", "fft", "gemm", "stencil-2d", "bgr2grey", "blur",
            "vecmax",
        ),
        overhead_calls=200_000,
        search_trials=32,
    ),
}


def measure_overhead(calls: int, repeats: int = 5) -> Dict[str, Any]:
    """Time the ``span()`` no-op path with no tracer vs a disabled tracer.

    Both paths must resolve to the same single-global-load check; the CI
    gate (``--max-overhead``) fails when the disabled-tracer loop is
    measurably slower than the no-tracer loop.  Takes the min over
    ``repeats`` to suppress scheduler noise.
    """

    def loop() -> float:
        t0 = perf_counter()
        for _ in range(calls):
            with span("bench.overhead"):
                pass
        return perf_counter() - t0

    previous = current()
    disabled_tracer = Tracer(enabled=False)
    no_tracer = disabled = float("inf")
    try:
        # Interleave the two configurations so slow clock/thermal drift
        # hits both equally instead of biasing whichever ran second.
        for _ in range(repeats):
            uninstall()
            loop()  # warm-up
            no_tracer = min(no_tracer, loop())
            install(disabled_tracer)
            loop()  # warm-up
            disabled = min(disabled, loop())
    finally:
        if previous is not None:
            install(previous)
        else:
            uninstall()
    return {
        "calls": calls,
        "repeats": repeats,
        "no_tracer_s": no_tracer,
        "disabled_tracer_s": disabled,
        "ratio": disabled / no_tracer if no_tracer > 0 else 1.0,
    }


def _span_stats(tracer: Tracer, mark: int) -> Dict[str, Dict[str, float]]:
    """Per-name aggregates of the spans recorded after the first ``mark``.

    ``Tracer.spans`` is in start order and the bench kinds run one after
    another, so the tail is exactly one kind's share of the run's tracer.
    """
    stats: Dict[str, SpanStat] = {}
    for s in tracer.spans()[mark:]:
        stats.setdefault(s.name, SpanStat()).absorb(s.duration)
    return {name: st.as_dict() for name, st in stats.items()}


def bench_dse(budget: BenchBudget, seed: int, tracer: Tracer) -> Dict[str, Any]:
    """Fixed-seed DSE benchmark: one in-process annealing run."""
    from ..dse import DseConfig, Explorer
    from ..workloads import get_workload

    overhead = measure_overhead(budget.overhead_calls)
    mark = len(tracer.spans())
    workloads = [get_workload(n) for n in budget.dse_workloads]
    config = DseConfig(iterations=budget.dse_iterations, seed=seed)

    t0 = perf_counter()
    result = Explorer(workloads, config, name=f"bench-{budget.name}").run()
    wall = perf_counter() - t0

    stats = result.stats
    spans = _span_stats(tracer, mark)
    fast_mean = spans.get("scheduler.revalidate", {}).get("mean_s", 0.0)
    repair_mean = spans.get("scheduler.repair", {}).get("mean_s", 0.0)
    inner_total = stats.preserved_hits + stats.repairs
    return {
        "schema": BENCH_SCHEMA,
        "kind": "dse",
        "budget": budget.name,
        "seed": seed,
        "workloads": list(budget.dse_workloads),
        "iterations": stats.iterations,
        "accepted": stats.accepted,
        "objective": result.choice.objective,
        "modeled_hours": result.modeled_hours,
        "wall_seconds": wall,
        "candidates_per_second": (
            stats.iterations / wall if wall > 0 else 0.0
        ),
        "preserved_hits": stats.preserved_hits,
        "repairs": stats.repairs,
        "preserved_hit_rate": (
            stats.preserved_hits / inner_total if inner_total else 0.0
        ),
        "fast_path_mean_s": fast_mean,
        "repair_path_mean_s": repair_mean,
        "fast_path_speedup": (
            repair_mean / fast_mean if fast_mean > 0 and repair_mean > 0 else 0.0
        ),
        "overhead": overhead,
        "spans": spans,
        "counters": tracer.counters(),
    }


def bench_sim(budget: BenchBudget, seed: int, tracer: Tracer) -> Dict[str, Any]:
    """Simulation benchmark on the deterministic general overlay."""
    from ..adg import general_overlay
    from ..compiler import generate_variants
    from ..scheduler import schedule_workload
    from ..sim import simulate_batch, simulate_schedule, vector_core_available
    from ..workloads import get_workload

    mark = len(tracer.spans())
    sysadg = general_overlay()
    rows = []
    pairs = []
    total_stepped = 0
    total_wall = 0.0
    for name in budget.sim_workloads:
        schedule = schedule_workload(
            generate_variants(get_workload(name)), sysadg.adg, sysadg.params
        )
        if schedule is None:
            rows.append({"workload": name, "skipped": "does not map"})
            continue
        pairs.append((schedule, name))
        t0 = perf_counter()
        result = simulate_schedule(schedule, sysadg)
        wall = perf_counter() - t0
        total_stepped += result.stepped_cycles
        total_wall += wall
        rows.append(
            {
                "workload": name,
                "variant": result.variant,
                "cycles": result.cycles,
                "stepped_cycles": result.stepped_cycles,
                "extrapolated": result.extrapolated,
                "wall_seconds": wall,
                "cycles_per_second": (
                    result.stepped_cycles / wall if wall > 0 else 0.0
                ),
            }
        )
    # Batched pass: the same regions stepped through simulate_batch in one
    # call (the shape serve/soak consume), compared for byte-identity.
    serial = {name: row for row in rows for name in [row.get("workload")]}
    t0 = perf_counter()
    batch_results = simulate_batch([(s, sysadg) for s, _ in pairs])
    batch_wall = perf_counter() - t0
    batch_stepped = sum(r.stepped_cycles for r in batch_results)
    identical = all(
        r.cycles == serial[name]["cycles"]
        and r.stepped_cycles == serial[name]["stepped_cycles"]
        for r, (_, name) in zip(batch_results, pairs)
    )
    # What batching itself buys: the regions that do not extrapolate
    # (per-call cost is a real share of their time), serial loop vs one
    # batch, best of 5 each.
    short = [
        (s, sysadg) for s, name in pairs if not serial[name]["extrapolated"]
    ]
    short_serial_wall = short_batch_wall = float("inf")
    for _ in range(5):
        t0 = perf_counter()
        for schedule, _ in short:
            simulate_schedule(schedule, sysadg)
        short_serial_wall = min(short_serial_wall, perf_counter() - t0)
        t0 = perf_counter()
        simulate_batch(short)
        short_batch_wall = min(short_batch_wall, perf_counter() - t0)
    return {
        "schema": BENCH_SCHEMA,
        "kind": "sim",
        "budget": budget.name,
        "seed": seed,
        "overlay": "general",
        "core": "vector" if vector_core_available() else "object",
        "workloads": list(budget.sim_workloads),
        "regions": rows,
        "stepped_cycles": total_stepped,
        "wall_seconds": total_wall,
        "cycles_per_second": total_stepped / total_wall if total_wall > 0 else 0.0,
        "batch": {
            "pairs": len(pairs),
            "stepped_cycles": batch_stepped,
            "wall_seconds": batch_wall,
            "identical_to_serial": identical,
        },
        "batch_cycles_per_second": (
            batch_stepped / batch_wall if batch_wall > 0 else 0.0
        ),
        "short": {
            "regions": len(short),
            "serial_wall_seconds": short_serial_wall,
            "batch_wall_seconds": short_batch_wall,
        },
        "short_regions_per_second": (
            len(short) / short_serial_wall if short_serial_wall > 0 else 0.0
        ),
        "batch_short_regions_per_second": (
            len(short) / short_batch_wall if short_batch_wall > 0 else 0.0
        ),
        "spans": _span_stats(tracer, mark),
    }


def bench_search(
    budget: BenchBudget, seed: int, tracer: Tracer
) -> Dict[str, Any]:
    """Strategy shootout: every registered strategy, same trial budget.

    Solution-quality numbers (best objective, hypervolume, frontier
    size) are deterministic per (budget, seed); wall-clock rates are
    recorded for context but deliberately not regression-compared.
    """
    from ..dse import DseConfig
    from ..search import SearchSettings, frontier_doc, run_search
    from ..workloads import get_workload

    mark = len(tracer.spans())
    workloads = [get_workload(n) for n in budget.dse_workloads]
    trials = budget.search_trials
    config = DseConfig(iterations=trials, seed=seed)
    rows: Dict[str, Dict[str, Any]] = {}
    for strat in SEARCH_STRATEGIES:
        t0 = perf_counter()
        outcome = run_search(
            workloads,
            config,
            SearchSettings(
                strategy=strat,
                trials=trials,
                batch=1 if strat == "anneal" else 4,
                seed=seed,
            ),
            store=None,
            resume=False,
            name=f"bench-search-{budget.name}",
        )
        wall = perf_counter() - t0
        study = outcome.study
        front = frontier_doc(study)
        best = outcome.best_trial
        rows[strat] = {
            "trials": len(study.trials),
            "feasible": len(study.feasible_trials()),
            "best_objective": best.objective if best else 0.0,
            "hypervolume": front["hypervolume"],
            "frontier_size": len(front["points"]),
            "wall_seconds": wall,
            "trials_per_second": (
                len(study.trials) / wall if wall > 0 else 0.0
            ),
        }
    best_strategy = max(
        rows, key=lambda s: (rows[s]["best_objective"], s)
    )
    doc: Dict[str, Any] = {
        "schema": BENCH_SCHEMA,
        "kind": "search",
        "budget": budget.name,
        "seed": seed,
        "workloads": list(budget.dse_workloads),
        "trials": trials,
        "strategies": rows,
        "best_strategy": best_strategy,
        "spans": _span_stats(tracer, mark),
    }
    # Flattened copies of the compared metrics (compare_reports reads
    # top-level keys only).
    for strat, row in rows.items():
        doc[f"{strat}_best_objective"] = row["best_objective"]
        doc[f"{strat}_hypervolume"] = row["hypervolume"]
    return doc


#: The bench kinds, in the order a multi-kind run executes them.
BENCHES: Dict[str, Callable[[BenchBudget, int, Tracer], Dict[str, Any]]] = {
    "dse": bench_dse,
    "sim": bench_sim,
    "search": bench_search,
}

#: Bulky per-kind fields kept out of the ``bench_<kind>`` metrics event.
_EVENT_OMITS = ("spans", "counters", "regions", "strategies")


def bench_path(out_dir: str, kind: str) -> str:
    return os.path.join(out_dir, f"BENCH_{kind}.json")


def run_bench(
    kinds: Sequence[str],
    budget: BenchBudget,
    seed: int = 2,
    out_dir: str = ".",
    trace_path: Optional[str] = None,
    metrics: Optional[Any] = None,
) -> Dict[str, Dict[str, Any]]:
    """Run the named bench kinds; write one ``BENCH_<kind>.json`` each.

    Returns ``{kind: document}``.  ``metrics`` is an
    ``engine.metrics.MetricsLogger``-compatible object (anything with
    ``emit``); the tracer's aggregate lands there as one
    ``trace_summary`` event alongside one ``bench_<kind>`` event per kind.
    """
    os.makedirs(out_dir, exist_ok=True)
    tracer = Tracer()
    with tracing(tracer):
        docs = {kind: BENCHES[kind](budget, seed, tracer) for kind in kinds}
    for kind, doc in docs.items():
        with open(bench_path(out_dir, kind), "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
    if trace_path:
        tracer.write_chrome_trace(trace_path)
    if metrics is not None:
        tracer.flush_to_metrics(metrics)
        for kind, doc in docs.items():
            metrics.emit(
                f"bench_{kind}",
                **{k: v for k, v in doc.items() if k not in _EVENT_OMITS},
            )
    return docs


def compare_reports(
    current_doc: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.25,
) -> Dict[str, Any]:
    """Regression-check ``current_doc`` against a stored baseline.

    Compares the rate/ratio metrics for the baseline's ``kind``; a metric
    whose current/baseline ratio drops below ``1 - tolerance`` is a
    regression, above ``1 + tolerance`` an improvement, else unchanged.
    A metric the baseline has but the current run lacks (or reports as
    zero) has ratio 0 and is a regression; a metric absent (or zero) in
    the *baseline* is reported as ``missing`` and never fails the check.
    """
    kind = baseline.get("kind")
    if kind not in COMPARED_METRICS:
        raise ValueError(f"baseline has unknown kind {kind!r}")
    if current_doc.get("kind") != kind:
        raise ValueError(
            f"kind mismatch: current {current_doc.get('kind')!r} "
            f"vs baseline {kind!r}"
        )
    rows = []
    regressions = []
    for metric in COMPARED_METRICS[kind]:
        base = baseline.get(metric)
        cur = current_doc.get(metric)
        ratio = (cur or 0.0) / base if base else None
        if ratio is None:
            status = "missing"
        elif ratio <= 1 - tolerance:
            status = "regression"
            regressions.append(metric)
        elif ratio >= 1 + tolerance:
            status = "improvement"
        else:
            status = "unchanged"
        rows.append(
            {
                "metric": metric,
                "baseline": base,
                "current": cur,
                "ratio": ratio,
                "status": status,
            }
        )
    return {
        "kind": kind,
        "tolerance": tolerance,
        "rows": rows,
        "regressions": regressions,
        "ok": not regressions,
    }


def render_comparison(cmp: Dict[str, Any], baseline_path: str) -> str:
    """One line per compared metric plus the OK / FAIL verdict line."""
    lines = []
    for row in cmp["rows"]:
        ratio = f"{row['ratio']:.2f}x" if row["ratio"] is not None else "n/a"
        lines.append(
            f"  {row['status']:12s} {row['metric']}: "
            f"{row['current']} vs baseline {row['baseline']} ({ratio})"
        )
    if cmp["ok"]:
        lines.append(
            f"compare vs {baseline_path}: OK (tolerance {cmp['tolerance']})"
        )
    else:
        lines.append(
            f"FAIL: regression vs {baseline_path} in "
            f"{', '.join(cmp['regressions'])}"
        )
    return "\n".join(lines)


def render_bench(docs: Dict[str, Dict[str, Any]], budget: str) -> str:
    """One summary block per bench document, in ``BENCHES`` order."""
    lines = []
    if "dse" in docs:
        d = docs["dse"]
        o = d["overhead"]
        lines += [
            f"dse[{budget}]: {d['iterations']} candidates in "
            f"{d['wall_seconds']:.2f}s ({d['candidates_per_second']:.0f}/s), "
            f"preserved-hit rate {d['preserved_hit_rate']:.0%}",
            f"  fast path {d['fast_path_mean_s'] * 1e3:.3f} ms vs repair "
            f"{d['repair_path_mean_s'] * 1e3:.3f} ms "
            f"({d['fast_path_speedup']:.1f}x)",
            f"tracer overhead: disabled/no-tracer ratio {o['ratio']:.3f} "
            f"({o['calls']} span calls, min of {o['repeats']})",
        ]
    if "sim" in docs:
        s = docs["sim"]
        batch = s["batch"]
        lines += [
            f"sim[{budget}] core={s['core']}: {s['stepped_cycles']:,} "
            f"cycles in {s['wall_seconds']:.2f}s "
            f"({s['cycles_per_second']:,.0f} cycles/s)",
            f"  batch: {batch['pairs']} regions, "
            f"{s['batch_cycles_per_second']:,.0f} cycles/s, "
            f"identical to serial: {batch['identical_to_serial']}",
            f"  short: {s['short']['regions']} regions, "
            f"{s['short_regions_per_second']:,.0f} regions/s serial, "
            f"{s['batch_short_regions_per_second']:,.0f} regions/s batched",
        ]
    if "search" in docs:
        doc = docs["search"]
        for strat in sorted(doc["strategies"]):
            row = doc["strategies"][strat]
            lines.append(
                f"search[{budget}] {strat:12s}: best objective "
                f"{row['best_objective']:.2f}, hypervolume "
                f"{row['hypervolume']:.4g}, {row['feasible']}/{row['trials']} "
                f"feasible, {row['wall_seconds']:.2f}s"
            )
        lines.append(f"best strategy: {doc['best_strategy']}")
    return "\n".join(lines)
