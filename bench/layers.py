"""Per-layer metrics of one traced rep.

Inputs are the rep's spans (bench-owned ``ext.*`` spans around public
calls plus the spans ``repro.profile`` already records inside the
program), the counts the workload noted at the same boundaries, and, for
the serve workloads, one record per request.  Every metric named in
``BENCHMARK.json``'s ``per_layer`` list gets a value; a layer the
workload never enters reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from stats import Span, covered, median, self_time, span_totals

#: metric -> span names whose busy time it sums (ms over one rep).
SPAN_MS: Dict[str, Tuple[str, ...]] = {
    "compiler.variants_ms": ("ext.generate_variants",),
    "compiler.lower_ms": ("compiler.lower",),
    "scheduler.schedule_ms": ("ext.schedule_workload",),
    "scheduler.bind_ms": ("scheduler.bind",),
    "scheduler.place_route_ms": ("scheduler.place_route",),
    "scheduler.repair_ms": ("scheduler.repair",),
    "scheduler.revalidate_ms": ("scheduler.revalidate",),
    "dse.explore_ms": ("ext.explore",),
    "dse.system_ms": ("dse.system",),
    "dse.propose_ms": ("dse.propose",),
    "dse.upgrade_ms": ("dse.upgrade",),
    "dse.full_schedule_ms": ("dse.full_schedule",),
    "search.run_ms": ("ext.run_search",),
    "search.ask_ms": ("search.ask",),
    "search.eval_ms": ("search.eval",),
    "search.tell_ms": ("search.tell",),
    "jobs.run_ms": ("jobs.run",),
    "sim.simulate_ms": ("ext.simulate_schedule", "ext.simulate_batch"),
    "sim.region_ms": ("sim.region",),
    "rtl.build_design_ms": ("ext.build_design",),
    "rtl.emit_verilog_ms": ("ext.emit_verilog",),
    "rtl.emit_migen_ms": ("ext.emit_migen",),
    "rtl.floorplan_ms": ("ext.floorplan",),
}

#: metric -> span names whose calls it counts.
SPAN_CALLS: Dict[str, Tuple[str, ...]] = {
    "compiler.variants_calls": ("ext.generate_variants",),
    "compiler.lower_calls": ("compiler.lower",),
    "scheduler.schedule_calls": ("ext.schedule_workload",),
    "scheduler.repair_calls": ("scheduler.repair",),
    "scheduler.revalidate_calls": ("scheduler.revalidate",),
    "dse.system_calls": ("dse.system",),
    "jobs.job_calls": ("jobs.job",),
    "sim.simulate_calls": ("ext.simulate_schedule", "ext.simulate_batch"),
}

#: Layers whose spans attribute ``search.eval`` time (``jobs.*`` only
#: wraps them, so it does not count as attribution).
ATTRIBUTING = ("compiler.", "scheduler.", "dse.", "sim.")


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def eval_unattributed_share(spans: Sequence[Span]) -> float:
    """Share of ``search.eval`` wall that no layer span inside it covers."""
    evals = [(s, e) for name, s, e, _ in spans if name == "search.eval"]
    inner = [
        (s, e) for name, s, e, _ in spans if name.startswith(ATTRIBUTING)
    ]
    total = sum(e - s for s, e in evals)
    return share(sum(self_time(parent, inner) for parent in evals), total)


def coverage_share(
    units: Sequence[Tuple[float, float]], spans: Sequence[Span]
) -> float:
    """Share of the rep's timed intervals that any span covers."""
    inner = [(s, e) for _name, s, e, _tid in spans]
    total = sum(e - s for s, e in units)
    return share(sum(covered(unit, inner) for unit in units), total)


def serve_metrics(requests: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Client/server/wire split and cache tiers from per-request records."""
    if not requests:
        return {}
    client = [r["client_s"] for r in requests]
    server = [r["served"].get("latency_s", 0.0) for r in requests]
    tiers = [r["served"].get("cache") for r in requests]
    n = len(requests)
    return {
        "serve.client_p50_ms": median(client) * 1e3,
        "serve.server_p50_ms": median(server) * 1e3,
        "serve.wire_p50_ms": median(
            [c - s for c, s in zip(client, server)]
        ) * 1e3,
        "serve.queue_wait_p50_ms": median(
            [r["served"].get("queue_wait_s", 0.0) for r in requests]
        ) * 1e3,
        "serve.tier_compute_share": tiers.count("compute") / n,
        "serve.tier_memory_share": tiers.count("memory") / n,
        "serve.coalesced_share": sum(
            1 for r in requests if r["served"].get("coalesced")
        ) / n,
    }


def layer_metrics(
    names: Sequence[str],
    spans: Sequence[Span],
    units: Sequence[Tuple[float, float]],
    notes: Dict[str, float],
    requests: Sequence[Dict[str, Any]],
) -> Dict[str, float]:
    """Every per-layer metric in ``names`` for one traced rep."""
    totals = span_totals(spans)

    def busy_ms(keys: Tuple[str, ...]) -> float:
        return sum(totals.get(k, (0, 0.0))[1] for k in keys) * 1e3

    def calls(keys: Tuple[str, ...]) -> float:
        return float(sum(totals.get(k, (0, 0.0))[0] for k in keys))

    out: Dict[str, float] = {name: 0.0 for name in names}
    for metric, keys in SPAN_MS.items():
        out[metric] = busy_ms(keys)
    for metric, keys in SPAN_CALLS.items():
        out[metric] = calls(keys)
    note = notes.get
    lower_calls = out["compiler.lower_calls"]
    out["compiler.mdfgs_out"] = note("compiler.mdfgs_out", 0.0)
    out["compiler.lowers_per_trial"] = share(lower_calls, note("search.trials", 0.0))
    out["scheduler.unmapped_share"] = share(
        note("scheduler.unmapped", 0.0), out["scheduler.schedule_calls"]
    )
    preserved = note("dse.preserved_hits", 0.0)
    out["scheduler.preserved_hit_share"] = share(
        preserved, preserved + note("dse.repairs", 0.0)
    )
    out["dse.accept_share"] = share(
        note("dse.accepted", 0.0), note("dse.iterations", 0.0)
    )
    out["dse.modeled_hours"] = note("dse.modeled_hours", 0.0)
    out["search.feasible_share"] = share(
        note("search.feasible", 0.0), note("search.trials", 0.0)
    )
    out["search.hypervolume"] = share(
        note("search.hypervolume_sum", 0.0), note("search.studies", 0.0)
    )
    out["search.eval_unattributed_share"] = eval_unattributed_share(spans)
    out["sim.stepped_cycles"] = note("sim.stepped_cycles", 0.0)
    out["sim.extrapolated_share"] = share(
        note("sim.extrapolated", 0.0), note("sim.results", 0.0)
    )
    items = note("sim.batch_items", 0.0)
    default_ms = busy_ms(("ext.simulate_batch",))
    nodedupe_ms = note("sim.batch_nodedupe_s", 0.0) * 1e3
    out["sim.batch_ms_per_item"] = share(default_ms, items)
    out["sim.batch_nodedupe_ms_per_item"] = share(nodedupe_ms, items)
    out["sim.fingerprint_share"] = (
        1.0 - nodedupe_ms / default_ms if default_ms and nodedupe_ms else 0.0
    )
    out["rtl.verilog_bytes"] = note("rtl.verilog_bytes", 0.0)
    out["rtl.modules"] = note("rtl.modules", 0.0)
    out.update(serve_metrics(requests))
    for key in ("serve.computes", "serve.shed", "serve.loadgen_cpu_share"):
        out[key] = note(key, 0.0)
    out["bench.coverage_share"] = coverage_share(units, spans)
    return {name: out[name] for name in names}


def median_layers(reps: List[Dict[str, float]]) -> Dict[str, float]:
    """Per-metric median over the traced reps of one run."""
    return {name: median([rep[name] for rep in reps]) for name in reps[0]}
