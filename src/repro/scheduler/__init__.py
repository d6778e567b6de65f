"""The spatial scheduler: mDFG -> ADG mapping with memory-aware binding."""

from .binder import bind_engines, bind_memory
from .legality import engine_violations, hardware_violations, schedule_violations
from .router import RoutingState, find_route, route_distances
from .schedule import Schedule, ScheduleError, ScheduleFailure
from .spatial import (
    attempt_schedule,
    repair_schedule,
    revalidate_schedule,
    schedule_mdfg,
    schedule_workload,
)
