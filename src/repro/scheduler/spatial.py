"""Top-level spatial scheduler: full scheduling, repair, and relaxation.

Mapping a variant is two steps: bind its streams and arrays to engines and
ports, then place its compute and route its fabric edges.  The estimated
IPC reads only the binding, so a variant is priced before it is routed,
and it never exceeds an IPC ceiling that reads no binding at all.
`schedule_mdfg` maps one variant.  `schedule_workload` binds and prices a
variant family in ceiling order, only while a ceiling could still beat the
best estimate, places and routes best estimate first and returns the first
variant that maps ("relax DFG complexity", Fig. 3).
`repair_schedule` is the preservation ladder that carries an existing
schedule onto an edited ADG (Section V-B; the DSE calls it once per
workload every iteration): rung 0, :func:`revalidate_schedule`, returns
the same schedule re-stamped in a ``scheduler.revalidate`` span; when it
fails, rung 1 reroutes only the broken routes and rung 2 reschedules the
same variant, both in one ``scheduler.repair`` span.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Set, Tuple

from ..adg import ADG, SystemParams
from ..compiler import VariantSet
from ..dfg import MDFG
from ..model.perf import ipc_ceiling
from ..profile.tracer import add_counter, span
from .binder import bind_memory
from .legality import Finding, edit_violations
from .placer import _check_delay_skew, _value_width_bits, place_and_route
from .router import RoutingState, find_route
from .schedule import (
    EdgeKey,
    Schedule,
    ScheduleAttempt,
    ScheduleError,
    ScheduleFailure,
)


def _bind(mdfg: MDFG, adg: ADG) -> Schedule:
    """A schedule of ``mdfg`` holding only its memory binding.

    Raises:
        ScheduleError: if a stream or array finds no engine or port.
    """
    with span("scheduler.bind", workload=mdfg.workload, variant=mdfg.variant):
        schedule = Schedule(mdfg=mdfg, adg_version=adg.version)
        bind_memory(mdfg, adg, schedule)
    return schedule


def _place_route(schedule: Schedule, adg: ADG) -> None:
    """Complete a bound schedule: place compute, route every fabric edge.

    Leaves every stream's engine as bound, so an estimate taken from the
    binding still holds.

    Raises:
        ScheduleError: if an instruction, route or skew cannot be mapped.
    """
    mdfg = schedule.mdfg
    with span(
        "scheduler.place_route", workload=mdfg.workload, variant=mdfg.variant
    ):
        place_and_route(mdfg, adg, schedule, RoutingState(adg))


def attempt_schedule(
    mdfg: MDFG,
    adg: ADG,
    params: Optional[SystemParams] = None,
) -> ScheduleAttempt:
    """Map ``mdfg`` onto ``adg``, reporting failure as data (never raises).

    On an infeasible mapping the returned attempt carries a
    :class:`ScheduleFailure` naming the stage that gave up (binding /
    placement / routing / skew) and the constraint it hit — what the DSE
    logs and the over-subscription tests assert on.
    """
    try:
        schedule = _bind(mdfg, adg)
        _place_route(schedule, adg)
    except ScheduleError as exc:
        return ScheduleAttempt(
            failure=ScheduleFailure(stage=exc.stage, reason=str(exc))
        )
    if params is not None:
        schedule.reprice(adg, params)
    return ScheduleAttempt(schedule=schedule)


def schedule_mdfg(
    mdfg: MDFG,
    adg: ADG,
    params: Optional[SystemParams] = None,
) -> Optional[Schedule]:
    """Map ``mdfg`` onto ``adg``; returns None when unschedulable."""
    return attempt_schedule(mdfg, adg, params).schedule


def schedule_workload(
    variants: VariantSet,
    adg: ADG,
    params: SystemParams,
    beat: Optional[float] = None,
) -> Optional[Schedule]:
    """Best-performing schedulable variant of a workload (None if none).

    The winner maps with the highest estimated IPC, ties in family order.
    No estimate exceeds its variant's binding-free :func:`ipc_ceiling`, so
    variants are bound and priced in ``(-ceiling, index)`` order, a failed
    binding skipped, until the best ``(-ipc, index)`` sorts before every
    unpriced ``(-ceiling, index)``; then that variant is placed and routed,
    and the first that maps wins.  Placement and routing never move a
    stream's engine, so a variant is returned with the estimate it was
    routed under.  This is the "relax DFG complexity" loop: aggressive
    variants that fail to map lose to less aggressive ones that succeed.
    With ``beat`` (an incumbent's IPC), the walk stops, returning None, as
    soon as the head of that merged order, an estimate or a ceiling, is no
    higher: the winner is returned only when its IPC is above ``beat``.
    Counters ``scheduler.variants`` and ``scheduler.bound`` add the family
    size and the variants left unbound.
    """
    mdfgs = variants.variants
    with span("scheduler.order", workload=variants.workload.name):
        unpriced = sorted(  # pop() takes the highest ceiling
            ((-ipc_ceiling(mdfg, params), i) for i, mdfg in enumerate(mdfgs)),
            reverse=True,
        )
    priced: List[Tuple[float, int, Schedule]] = []  # a heap
    best = None
    while best is None and (priced or unpriced):
        routable = priced and (not unpriced or priced[0][:2] < unpriced[-1])
        head = priced[0][0] if routable else unpriced[-1][0]  # -ipc, -ceiling
        if beat is not None and -head <= beat:
            break
        if routable:
            schedule = heapq.heappop(priced)[2]
            try:
                _place_route(schedule, adg)
                best = schedule
            except ScheduleError:
                pass
            continue
        index = unpriced.pop()[1]
        mdfg = mdfgs[index]
        try:
            schedule = _bind(mdfg, adg)
        except ScheduleError:
            continue
        with span("scheduler.price", workload=mdfg.workload, variant=mdfg.variant):
            schedule.reprice(adg, params)
        heapq.heappush(priced, (-schedule.estimate.ipc, index, schedule))
    add_counter("scheduler.variants", len(mdfgs))
    add_counter("scheduler.bound", len(unpriced))
    return best


# ----------------------------------------------------------------------
# The preservation ladder (Section V-B): keep what survived the ADG edit.
# ----------------------------------------------------------------------
def revalidate_schedule(
    schedule: Schedule,
    adg: ADG,
    params: SystemParams,
    broken: Optional[List[Finding]] = None,
) -> Optional[Schedule]:
    """Rung 0 of the ladder: the schedule-preserving fast path.

    When the edited ``adg`` still provides everything the schedule needs
    (:func:`edit_violations` finds nothing), stamp the new ADG (its
    ``version`` and ``stamp``), refresh the performance estimate in place,
    and return the *same* object — no dict copies, no routing, no
    placement.  Returns ``None``, and extends ``broken`` (when given) by the
    findings, when the schedule did not survive.
    """
    with span(
        "scheduler.revalidate",
        workload=schedule.mdfg.workload,
        variant=schedule.mdfg.variant,
    ):
        findings = edit_violations(schedule, adg)
        if findings:
            if broken is not None:
                broken.extend(findings)
            return None
        schedule.adg_version = adg.version
        schedule.clean_at = adg.stamp
        schedule.reprice(adg, params)
        return schedule


def repair_schedule(
    schedule: Schedule,
    adg: ADG,
    params: SystemParams,
) -> Optional[Schedule]:
    """The preservation ladder: ``schedule`` carried onto the edited ``adg``.

    Rung 0 is :func:`revalidate_schedule`: a schedule that survived whole
    comes back as the same object, re-stamped.  Otherwise, in one
    ``scheduler.repair`` span, rung 1 keeps every placement and reroutes
    the broken routes when missing links are all that broke (read from
    rung 0's findings, not walked again), and rung 2 reschedules the same
    variant from scratch.  Any result but ``schedule`` itself is a new
    object; None when even rung 2 cannot map the variant.
    """
    broken: List[Finding] = []
    kept = revalidate_schedule(schedule, adg, params, broken)
    if kept is not None:
        return kept
    mdfg = schedule.mdfg
    with span("scheduler.repair", workload=mdfg.workload, variant=mdfg.variant):
        if all(f.kind == "missing_link" for f in broken):
            bad_edges = {f.piece for f in broken}
            repaired = _reroute_only(schedule, adg, bad_edges)
            if repaired is not None:
                repaired.reprice(adg, params)
                return repaired
        return schedule_mdfg(mdfg, adg, params)


def _reroute_only(
    schedule: Schedule, adg: ADG, bad_edges: Set[EdgeKey]
) -> Optional[Schedule]:
    """Keep all placements; recompute just the broken routes."""
    repaired = Schedule(
        mdfg=schedule.mdfg,
        adg_version=adg.version,
        placement=dict(schedule.placement),
        routes={
            key: path
            for key, path in schedule.routes.items()
            if key not in bad_edges
        },
        delay_fifo_needed={},
    )
    state = RoutingState(adg)
    for key, path in repaired.routes.items():
        state.claim_path(path, key[0])
    mdfg = schedule.mdfg
    for key in sorted(bad_edges):
        src_dfg, dst_dfg, _slot = key
        src_hw = repaired.placement.get(src_dfg)
        dst_hw = repaired.placement.get(dst_dfg)
        if src_hw is None or dst_hw is None:
            return None
        width = _value_width_bits(mdfg, src_dfg)
        path = find_route(adg, state, src_hw, dst_hw, src_dfg, width)
        if path is None:
            return None
        state.claim_path(path, src_dfg)
        repaired.routes[key] = path
    try:
        _check_delay_skew(mdfg, adg, repaired)
    except ScheduleError:
        return None
    return repaired
