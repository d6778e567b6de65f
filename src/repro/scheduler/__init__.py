"""The spatial scheduler: mDFG -> ADG mapping with memory-aware binding,
and the mapping advisor that explains a workload's fit on an overlay."""

from .advisor import MappingAdvice, REDSE_GAIN_THRESHOLD, VariantVerdict, advise
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
