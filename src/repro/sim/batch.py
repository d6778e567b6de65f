"""``simulate_batch``: the simulator's one stepping driver.

This is the shape the layers above the simulator actually consume:
``repro.serve``'s simulate op answers per-overlay workload sets, soak
campaigns replay thousands of fuzz regions, and DSE trial batches score
many candidates against the same workload list.  One batch call

* resolves the core and validates the options once,
* builds one :class:`~repro.sim.simulator.Region` per *unique* item — a
  repeated (same overlay object, workload, variant, equal placement and
  routes) pair is answered from the first stepped instance; the key is
  identity plus two dict compares because fingerprinting overlay
  *content* costs ~35 ms per item, more than the 0.2–4 ms
  re-simulation it could save,
* packs every region batch-major and steps them all in **one** call to
  the compiled kernel (:func:`repro.sim.vector.step_batch`); the object
  core stays the reference loop, per region, and steps what the kernel
  cannot (``core="object"``, no C compiler, a tile shape outside the
  packed model), and
* returns results byte-identical to stepping each pair alone (golden-
  tested), raising what the first failing item, in item order, would
  have raised alone.

``simulate_batch`` is the one entry point: ``simulate_schedule`` is the
batch of one, and a caller that wants processes shards its own work
through :mod:`repro.jobs` and calls this inside each job.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..profile.tracer import add_counter, span
from .ckernel import STATUS_DEADLOCK, STATUS_HARD_CAP, STATUS_STUCK, load_error
from .simulator import Region, SimResult, SimulationError, _resolve_core
from .vector import pack_batch, packable, step_batch, vector_core_available

__all__ = ["simulate_batch"]


def simulate_batch(
    items: Sequence[Tuple[Any, Any]],
    *,
    dedupe: bool = True,
    onehot_bypass: bool = True,
    exact: bool = False,
    max_exact_cycles: int = 200_000,
    measure_window: int = 4_000,
    core: Optional[str] = None,
) -> List[SimResult]:
    """Simulate ``[(schedule, sysadg), ...]`` pairs in one batched pass.

    Long regions are stepped exactly for ``max_exact_cycles`` and
    extrapolated at the steady-state rate measured from cycle
    ``measure_window`` on; ``exact=True`` forces full runs.  ``core``
    selects the stepping implementation: ``"object"`` is the reference
    per-cycle Python model, ``"vector"`` the packed-array compiled core
    (bit-identical cycle counts, 10-100x faster), and ``"auto"``
    (default, also via ``$REPRO_SIM_CORE``) uses the vector core when a
    C compiler is available and falls back to objects.

    ``dedupe=True`` (default) answers a repeated pair — same ``sysadg``
    object, workload and variant, and the same or an equal schedule
    (placement and routes) — with the first instance's result object.
    """
    core_name = _resolve_core(core)
    if not items:
        return []
    if not exact and max_exact_cycles <= 1:
        mdfg = items[0][0].mdfg
        raise SimulationError(
            f"{mdfg.workload}/{mdfg.variant}: max_exact_cycles="
            f"{max_exact_cycles} leaves no room to measure a steady-state "
            "rate (need at least 2 cycles)"
        )
    if not exact and measure_window >= max_exact_cycles:
        # The steady-state window must open before the exact-cycle cap, or
        # the extrapolation rate would be measured from cycle 0 and include
        # the dispatch/config warm-up transient.  Clamp the window start to
        # half the cap: the first half absorbs warm-up, the second half is
        # the measurement.
        measure_window = max(1, max_exact_cycles // 2)
    hard_cap = max_exact_cycles if not exact else 1 << 62

    # ``items`` keeps every sysadg alive for the call, so ids are unique.
    slots: List[int] = []  # item -> index of the unique pair that answers it
    unique: List[Tuple[Any, Any]] = []
    seen: Dict[Tuple[int, str, str], List[Tuple[Any, int]]] = {}
    for schedule, sysadg in items:
        slot = None
        if dedupe:
            mdfg = schedule.mdfg
            firsts = seen.setdefault(
                (id(sysadg), mdfg.workload, mdfg.variant), []
            )
            for first, at in firsts:
                if schedule is first or (
                    schedule.placement == first.placement
                    and schedule.routes == first.routes
                ):
                    slot = at
                    break
            else:
                firsts.append((schedule, len(unique)))
        if slot is None:
            slot = len(unique)
            unique.append((schedule, sysadg))
        slots.append(slot)

    use_kernel = core_name != "object" and vector_core_available()
    regions: List[Region] = []
    packed: List[Region] = []  # stepped by the kernel, in one call
    unpacked: List[Region] = []  # stepped by the object loop, one by one
    #: what the first pair that cannot even be stepped raises; the pairs
    #: after it are moot, the ones before it may still fail first
    unsteppable: Optional[SimulationError] = None
    for schedule, sysadg in unique:
        try:
            region = Region.build(schedule, sysadg, onehot_bypass)
        except SimulationError as exc:
            unsteppable = exc
            break
        if use_kernel and packable(*region.tile):
            packed.append(region)
        elif core_name == "vector":
            reason = load_error() or "tile shape outside the packed model"
            unsteppable = SimulationError(
                f"{region.name}: vector core unavailable ({reason}); "
                "use core='auto' or 'object'"
            )
            break
        else:
            unpacked.append(region)
        regions.append(region)

    attrs = {"regions": len(regions)}
    if len(regions) == 1:
        attrs.update(
            workload=regions[0].mdfg.workload, variant=regions[0].mdfg.variant
        )
    with span("sim.region", **attrs):
        if packed:
            outcomes = step_batch(
                pack_batch([r.tile for r in packed]),
                exact,
                hard_cap,
                measure_window,
            )
            for region, (status, now, w_firings, w_cycle) in zip(
                packed, outcomes
            ):
                region.now = now
                region.window_firings = w_firings
                region.window_cycle = w_cycle
                region.extrapolated = status == STATUS_HARD_CAP
                if status == STATUS_DEADLOCK:
                    region.error = region.no_progress()
                elif status == STATUS_STUCK:
                    # The object loop would spin forever here (fabric
                    # drained, write streams starved, no future event);
                    # the vector core surfaces it instead of hanging.
                    region.error = SimulationError(
                        f"{region.name}: stalled with drained fabric and "
                        f"no future event at cycle {now}"
                    )
        for region in unpacked:
            try:
                region.step_object(exact, hard_cap, measure_window)
            except SimulationError as exc:
                region.error = exc
                break  # later regions are moot: this one raises first

    results: List[SimResult] = []
    for region in regions:
        if region.error is not None:
            raise region.error
        results.append(region.result())
    if unsteppable is not None:
        raise unsteppable
    add_counter("sim.regions", len(regions))
    add_counter("sim.cycles_stepped", sum(r.now for r in regions))
    return [results[slot] for slot in slots]
