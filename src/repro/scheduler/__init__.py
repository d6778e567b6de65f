"""The spatial scheduler: mDFG -> ADG mapping with memory-aware binding."""

from .binder import bind_memory
from .legality import Finding, hardware_violations, schedule_violations
from .placer import place_and_route, topo_compute_order
from .router import RoutingState, find_route, route_distances
from .schedule import (
    EdgeKey,
    Schedule,
    ScheduleAttempt,
    ScheduleError,
    ScheduleFailure,
)
from .spatial import (
    attempt_schedule,
    repair_schedule,
    revalidate_schedule,
    schedule_mdfg,
    schedule_workload,
)

__all__ = [
    "EdgeKey",
    "Finding",
    "RoutingState",
    "Schedule",
    "ScheduleAttempt",
    "ScheduleError",
    "ScheduleFailure",
    "attempt_schedule",
    "bind_memory",
    "find_route",
    "hardware_violations",
    "place_and_route",
    "repair_schedule",
    "revalidate_schedule",
    "route_distances",
    "schedule_mdfg",
    "schedule_violations",
    "schedule_workload",
    "topo_compute_order",
]
