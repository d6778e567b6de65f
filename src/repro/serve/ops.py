"""The compute ops served by ``repro serve`` — and the single-shot path.

Each op is a pure function of ``(overlay design, workload)`` returning a
plain-JSON *result document*.  The same functions back three callers:

* the server's worker-pool processes (:func:`compute_op` is a
  module-level function, so it pickles to worker processes);
* the single-shot CLI path (``repro map/simulate --json``), which is the
  byte-identity reference the load tests compare against;
* the artifact store, which persists result documents keyed by
  :func:`result_key` so a restarted server answers warm.

Result documents deliberately contain only JSON scalars/containers and
are rendered with :func:`~repro.serve.protocol.canonical_dumps`, so
"identical result" is a byte comparison, not a float-tolerance argument.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..adg import SysADG, sysadg_from_dict, sysadg_to_dict
from ..compiler import generate_variants
from ..engine.hashing import (
    CODE_SCHEMA_VERSION,
    fingerprint,
    workload_fingerprint,
)
from ..scheduler import revalidate_schedule, schedule_workload
from ..sim import simulate_batch, simulate_schedule
from ..workloads import get_workload
from .errors import BadRequestError, UnmappableError
from .protocol import COMPUTE_OPS, PROTOCOL_VERSION


def overlay_fingerprint(sysadg: SysADG) -> str:
    """Content digest of a full system design (ADG + system params)."""
    return fingerprint(sysadg_to_dict(sysadg))


def result_key(overlay_fp: str, workload_fp: str, op: str) -> str:
    """Content address of one served result.

    This is both the single-flight coalescing key (two in-flight
    requests with the same key share one compile) and the artifact-store
    key (a previously served result is returned without recomputing).
    """
    return fingerprint(
        {
            "kind": "serve_result",
            "protocol": PROTOCOL_VERSION,
            "schema": CODE_SCHEMA_VERSION,
            "overlay": overlay_fp,
            "workload": workload_fp,
            "op": op,
        }
    )


def _resolve_workload(name: str):
    try:
        return get_workload(name)
    except KeyError as exc:
        msg = str(exc.args[0]) if exc.args else str(exc)
        raise BadRequestError(msg) from exc


def _schedule(sysadg: SysADG, workload_name: str):
    workload = _resolve_workload(workload_name)
    variants = generate_variants(workload)
    schedule = schedule_workload(variants, sysadg.adg, sysadg.params)
    if schedule is None:
        raise UnmappableError(
            f"{workload_name} does not map onto {sysadg.name}"
        )
    return schedule


def _estimate_doc(schedule) -> Dict[str, Any]:
    est = schedule.estimate
    doc: Dict[str, Any] = {
        "ipc": est.ipc if est else 0.0,
        "bottleneck": est.bottleneck if est else "none",
        "tiles_used": est.tiles_used if est else 0.0,
        "insts_per_cycle": est.insts_per_cycle if est else 0.0,
        "factors": dict(sorted(est.factors.items())) if est else {},
    }
    return doc


def _schedule_doc(
    op: str, sysadg: SysADG, workload_name: str, schedule
) -> Dict[str, Any]:
    return {
        "op": op,
        "overlay": sysadg.name,
        "workload": workload_name,
        "variant": schedule.mdfg.variant,
        "summary": schedule.summary(),
        "placed": len(schedule.placement),
        "routes": len(schedule.routes),
        "config_words": schedule.mdfg.config_words,
        "estimate": _estimate_doc(schedule),
    }


def map_op(sysadg: SysADG, workload_name: str) -> Dict[str, Any]:
    """Compile + schedule ``workload_name`` onto the overlay."""
    schedule = _schedule(sysadg, workload_name)
    return _schedule_doc("map", sysadg, workload_name, schedule)


def estimate_op(sysadg: SysADG, workload_name: str) -> Dict[str, Any]:
    """Schedule + bottleneck-model estimate only (no cycle simulation)."""
    schedule = _schedule(sysadg, workload_name)
    return {
        "op": "estimate",
        "overlay": sysadg.name,
        "workload": workload_name,
        "variant": schedule.mdfg.variant,
        "estimate": _estimate_doc(schedule),
    }


def _simulate_doc(
    sysadg: SysADG, workload_name: str, result
) -> Dict[str, Any]:
    return {
        "op": "simulate",
        "overlay": sysadg.name,
        "workload": workload_name,
        "variant": result.variant,
        "cycles": result.cycles,
        "seconds": result.seconds(sysadg.params.frequency_mhz),
        "ipc": result.ipc,
        "instructions": result.instructions,
        "tiles_used": result.tiles_used,
        "extrapolated": result.extrapolated,
        "fabric_stalls": result.fabric_stalls,
    }


def simulate_op(sysadg: SysADG, workload_name: str) -> Dict[str, Any]:
    """Full cycle-level simulation of the scheduled workload."""
    schedule = _schedule(sysadg, workload_name)
    result = simulate_schedule(schedule, sysadg)
    return _simulate_doc(sysadg, workload_name, result)


def simulate_batch_op(
    sysadg: SysADG, workload_names: Sequence[str]
) -> List[Optional[Dict[str, Any]]]:
    """Batched :func:`simulate_op`: one stepping pass over many workloads.

    Returns one document per input name (field-identical to the doc
    :func:`simulate_op` would serve for that name) in input order, with
    ``None`` for workloads that do not map onto the overlay.  A name
    listed twice is stepped once (:func:`repro.sim.simulate_batch`'s
    dedupe: same overlay object, workload and variant, equal schedule).
    """
    schedules: List[Optional[Any]] = []
    for name in workload_names:
        try:
            schedules.append(_schedule(sysadg, name))
        except UnmappableError:
            schedules.append(None)
    items = [(s, sysadg) for s in schedules if s is not None]
    stepped = iter(simulate_batch(items))
    docs: List[Optional[Dict[str, Any]]] = []
    for name, schedule in zip(workload_names, schedules):
        if schedule is None:
            docs.append(None)
        else:
            docs.append(_simulate_doc(sysadg, name, next(stepped)))
    return docs


def split_workloads(workload_field: str) -> List[str]:
    """Split a request's comma-separated ``workload`` field."""
    names = [n.strip() for n in workload_field.split(",") if n.strip()]
    if not names:
        raise BadRequestError(
            f"no workload names in {workload_field!r}"
        )
    return names


def simulate_batch_doc(
    sysadg: SysADG, workload_field: str
) -> Dict[str, Any]:
    """Wire form of :func:`simulate_batch_op` for one request.

    ``results[i]`` is field-identical to the document ``simulate`` would
    serve for ``workloads[i]`` (``null`` when unmappable), so a client
    fanning a batch out as N ``simulate`` requests and a client sending
    one ``simulate_batch`` can be diffed doc-for-doc.
    """
    names = split_workloads(workload_field)
    return {
        "op": "simulate_batch",
        "overlay": sysadg.name,
        "workloads": list(names),
        "results": simulate_batch_op(sysadg, names),
    }


def _remap_schedule(
    sysadg: SysADG, workload_name: str, prior_schedule
) -> Tuple[Any, str]:
    """(schedule, path) where path ∈ preserved / recompiled / cold.

    The OverGen Fig. 18 story as an op: when the caller holds the
    schedule served for a *previous version* of this overlay,
    :func:`~repro.scheduler.revalidate_schedule` keeps it wholesale
    (no placement, no routing — the ``fast_path_speedup`` measured in
    BENCH_dse.json) and only a failed revalidation pays for a full
    recompile.
    """
    if prior_schedule is not None:
        kept = revalidate_schedule(
            prior_schedule, sysadg.adg, sysadg.params
        )
        if kept is not None:
            return kept, "preserved"
        return _schedule(sysadg, workload_name), "recompiled"
    return _schedule(sysadg, workload_name), "cold"


def remap_op(sysadg: SysADG, workload_name: str) -> Dict[str, Any]:
    """Single-shot ``remap`` (no prior schedule: always a cold compile).

    The result document deliberately omits the preservation path — it
    depends on server-side schedule history, and result documents must
    be byte-identical across serving configurations.  The server
    reports the path out-of-band (``served.remap`` + counters).
    """
    schedule, _path = _remap_schedule(sysadg, workload_name, None)
    return _schedule_doc("remap", sysadg, workload_name, schedule)


def remap_compute(
    design_doc: Dict[str, Any],
    workload_name: str,
    prior_schedule=None,
) -> Tuple[Dict[str, Any], str, Any]:
    """Worker-pool entry for ``remap``: (doc, path, schedule).

    Returns the schedule itself (plain picklable dataclass) so the
    server can retain it as the prior for the overlay's *next* version.
    """
    sysadg = sysadg_from_dict(design_doc)
    schedule, path = _remap_schedule(sysadg, workload_name, prior_schedule)
    return _schedule_doc("remap", sysadg, workload_name, schedule), path, schedule


def _simulate_batch_entry(
    sysadg: SysADG, workload_field: str
) -> Dict[str, Any]:
    return simulate_batch_doc(sysadg, workload_field)


_OPS = {
    "map": map_op,
    "estimate": estimate_op,
    "simulate": simulate_op,
    "simulate_batch": _simulate_batch_entry,
    "remap": remap_op,
}


def run_op(op: str, sysadg: SysADG, workload_name: str) -> Dict[str, Any]:
    """Dispatch one compute op against an in-memory design."""
    if op not in _OPS:
        raise BadRequestError(
            f"unknown compute op {op!r}; expected one of "
            f"{', '.join(COMPUTE_OPS)}"
        )
    return _OPS[op](sysadg, workload_name)


def compute_op(
    op: str, design_doc: Dict[str, Any], workload_name: str
) -> Dict[str, Any]:
    """Worker-process entry point: rebuild the design, run the op.

    Takes the serialized design document (not a ``SysADG``) so the job
    pickles cheaply and deterministically to pool workers.
    """
    return run_op(op, sysadg_from_dict(design_doc), workload_name)


def workload_fp(workload_name: str) -> str:
    """Fingerprint of a registry workload's full body, by name.

    A comma-separated list (the ``simulate_batch`` workload field) gets
    a batch fingerprint over the per-name fingerprints, order included.
    """
    if "," in workload_name:
        return fingerprint(
            {
                "kind": "workload_batch",
                "workloads": [
                    workload_fp(n) for n in split_workloads(workload_name)
                ],
            }
        )
    return workload_fingerprint(_resolve_workload(workload_name))


def single_shot(
    op: str, sysadg: SysADG, workload_name: str
) -> Optional[Dict[str, Any]]:
    """The CLI reference path: same doc the server serves, no service.

    Returns ``None`` for an unmappable workload (the CLI renders that as
    a non-zero exit, the server as a structured ``unmappable`` error).
    """
    try:
        return run_op(op, sysadg, workload_name)
    except UnmappableError:
        return None
