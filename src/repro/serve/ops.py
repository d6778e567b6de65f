"""The compute ops served by ``repro serve`` — and the single-shot path.

Each op is a pure function of ``(overlay design, workload)`` returning a
plain-JSON *result document*.  The same functions back three callers:

* the server's compute workers, through :func:`compute_op` /
  :func:`remap_compute`.  A job names its overlay by content
  fingerprint; the worker keeps what it built in :data:`RESIDENT` (the
  deserialised design, and the schedule of every kernel it has placed on
  it), so the overlay is built once per worker and a kernel is scheduled
  once per (overlay, kernel), whichever op asks first;
* the single-shot CLI path (``repro map/simulate --json``), which holds
  nothing between calls and is the byte-identity reference every served
  document is compared against;
* the artifact store, which persists result documents keyed by
  :func:`result_key` so a restarted server answers warm.

Result documents deliberately contain only JSON scalars/containers and
are rendered with :func:`~repro.serve.protocol.canonical_dumps`, so
"identical result" is a byte comparison, not a float-tolerance argument.
"""

from __future__ import annotations

import threading
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


class OverlayNotResident(Exception):
    """This compute worker does not hold the overlay a job named.

    The server answers by sending the same job again with the design
    document attached; nothing else ever carries a design to a worker.
    """


class ResidentStore:
    """What one compute process keeps of the overlays it has served.

    ``overlay fingerprint -> (SysADG, {workload fingerprint -> Schedule |
    UnmappableError})``, keyed only by the content fingerprints behind
    :func:`result_key`, so an entry can never answer for another design
    or another workload body.  Held schedules are never mutated.
    """

    #: Overlays held at once.  The oldest goes first, with its schedules.
    MAX_OVERLAYS = 8

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._held: Dict[str, Tuple[SysADG, Dict[str, Any]]] = {}

    def hold(
        self, overlay_fp: str, design_doc: Optional[Dict[str, Any]] = None
    ) -> Tuple[SysADG, Dict[str, Any]]:
        """The resident design and its schedules, built from
        ``design_doc`` when this process does not hold it yet."""
        held = self._held.get(overlay_fp)
        if held is not None:
            return held
        if design_doc is None:
            raise OverlayNotResident(overlay_fp)
        built = (sysadg_from_dict(design_doc), {})
        with self._lock:  # insert and evict as one step
            held = self._held.setdefault(overlay_fp, built)
            while len(self._held) > self.MAX_OVERLAYS:
                del self._held[next(iter(self._held))]
        return held


#: The one store of this process.  Module level because a pool worker has
#: nowhere else to keep state between jobs; the ``workers=0`` thread
#: executor shares it with every server in the process, which content
#: keys make safe.
RESIDENT = ResidentStore()


class _Lookup:
    """One compute's window onto a resident overlay's schedules;
    ``reused`` says whether every schedule it asked for was held."""

    def __init__(self, schedules: Dict[str, Any]) -> None:
        self.schedules = schedules
        self.reused = True


def _schedule(
    sysadg: SysADG, workload_name: str, lookup: Optional[_Lookup] = None
):
    """Lower and place ``workload_name`` — once per resident overlay when
    a ``lookup`` is given, afresh (the reference path) when not."""
    workload = _resolve_workload(workload_name)
    if lookup is None:
        return _place(sysadg, workload)
    key = workload_fingerprint(workload)
    held = lookup.schedules.get(key)
    if held is None:
        lookup.reused = False
        try:
            held = _place(sysadg, workload)
        except UnmappableError as exc:
            held = exc
        lookup.schedules[key] = held
    if isinstance(held, UnmappableError):
        # Raised many times: drop the frames the last raise attached.
        raise held.with_traceback(None)
    return held


def _place(sysadg: SysADG, workload):
    variants = generate_variants(workload)
    schedule = schedule_workload(variants, sysadg.adg, sysadg.params)
    if schedule is None:
        raise UnmappableError(
            f"{workload.name} does not map onto {sysadg.name}"
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


def map_op(
    sysadg: SysADG, workload_name: str, lookup: Optional[_Lookup] = None
) -> Dict[str, Any]:
    """Compile + schedule ``workload_name`` onto the overlay."""
    schedule = _schedule(sysadg, workload_name, lookup)
    return _schedule_doc("map", sysadg, workload_name, schedule)


def estimate_op(
    sysadg: SysADG, workload_name: str, lookup: Optional[_Lookup] = None
) -> Dict[str, Any]:
    """Schedule + bottleneck-model estimate only (no cycle simulation)."""
    schedule = _schedule(sysadg, workload_name, lookup)
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


def simulate_op(
    sysadg: SysADG, workload_name: str, lookup: Optional[_Lookup] = None
) -> Dict[str, Any]:
    """Full cycle-level simulation of the scheduled workload."""
    schedule = _schedule(sysadg, workload_name, lookup)
    result = simulate_schedule(schedule, sysadg)
    return _simulate_doc(sysadg, workload_name, result)


def simulate_batch_op(
    sysadg: SysADG,
    workload_names: Sequence[str],
    lookup: Optional[_Lookup] = None,
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
            schedules.append(_schedule(sysadg, name, lookup))
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
    sysadg: SysADG, workload_field: str, lookup: Optional[_Lookup] = None
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
        "results": simulate_batch_op(sysadg, names, lookup),
    }


def _remap_schedule(
    sysadg: SysADG,
    workload_name: str,
    prior_schedule,
    lookup: Optional[_Lookup] = None,
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
        # Revalidation stamps the schedule it keeps in place, and under
        # the thread executor the prior *is* the schedule resident for
        # the previous version: stamp a copy.
        kept = revalidate_schedule(
            prior_schedule.clone(), sysadg.adg, sysadg.params
        )
        if kept is not None:
            return kept, "preserved"
        return _schedule(sysadg, workload_name, lookup), "recompiled"
    return _schedule(sysadg, workload_name, lookup), "cold"


def remap_op(
    sysadg: SysADG, workload_name: str, lookup: Optional[_Lookup] = None
) -> Dict[str, Any]:
    """Single-shot ``remap`` (no prior schedule: always a cold compile).

    The result document deliberately omits the preservation path — it
    depends on server-side schedule history, and result documents must
    be byte-identical across serving configurations.  The server
    reports the path out-of-band (``served.remap`` + counters).
    """
    schedule, _path = _remap_schedule(sysadg, workload_name, None, lookup)
    return _schedule_doc("remap", sysadg, workload_name, schedule)


def remap_compute(
    overlay_fp: str,
    workload_name: str,
    prior_schedule=None,
    design_doc: Optional[Dict[str, Any]] = None,
) -> Tuple[Dict[str, Any], str, Any]:
    """Compute-worker entry for ``remap``: (doc, path, schedule).

    The overlay is named and held as in :func:`compute_op`.  Returns the
    schedule itself (plain picklable dataclass) so the server can retain
    it as the prior for the overlay's *next* version.
    """
    sysadg, schedules = RESIDENT.hold(overlay_fp, design_doc)
    schedule, path = _remap_schedule(
        sysadg, workload_name, prior_schedule, _Lookup(schedules)
    )
    return _schedule_doc("remap", sysadg, workload_name, schedule), path, schedule


_OPS = {
    "map": map_op,
    "estimate": estimate_op,
    "simulate": simulate_op,
    "simulate_batch": simulate_batch_doc,
    "remap": remap_op,
}


def run_op(
    op: str,
    sysadg: SysADG,
    workload_name: str,
    lookup: Optional[_Lookup] = None,
) -> Dict[str, Any]:
    """Dispatch one compute op against an in-memory design."""
    if op not in _OPS:
        raise BadRequestError(
            f"unknown compute op {op!r}; expected one of "
            f"{', '.join(COMPUTE_OPS)}"
        )
    return _OPS[op](sysadg, workload_name, lookup)


def compute_op(
    op: str,
    overlay_fp: str,
    workload_name: str,
    design_doc: Optional[Dict[str, Any]] = None,
) -> Tuple[Dict[str, Any], bool]:
    """Compute-worker entry point: ``(result document, schedule reused)``.

    The job names its overlay by fingerprint.  A worker that holds it
    (:data:`RESIDENT`) runs the op on the resident design, scheduling
    only kernels it has not placed on it before; one that does not raises
    :class:`OverlayNotResident` unless ``design_doc`` is attached, so a
    design is pickled to, and deserialised in, a worker once while it
    stays resident.
    """
    sysadg, schedules = RESIDENT.hold(overlay_fp, design_doc)
    lookup = _Lookup(schedules)
    return run_op(op, sysadg, workload_name, lookup), lookup.reused


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
