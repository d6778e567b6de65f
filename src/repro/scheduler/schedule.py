"""Schedule data structures: the result of mapping an mDFG onto an ADG.

A schedule records, for every mDFG entity, which hardware it occupies:

* compute nodes -> processing elements (dedicated: one instruction per PE),
* DFG ports -> hardware vector ports,
* streams and array nodes -> stream engines,
* fabric value edges -> link-level routes through switches.

Schedules are consulted by the DSE both to evaluate candidates (via the
performance model) and to *preserve* mappings across hardware mutations
(Section V-B); :meth:`Schedule.routes_through` supports those
transformations, and :mod:`repro.scheduler.legality` says whether a
schedule is still legal after one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import Dict, List, Optional, Tuple

from ..adg import ADG, SystemParams
from ..dfg import MDFG
from ..model.perf import (
    BottleneckProfile,
    MemoryBinding,
    PerfEstimate,
    bottleneck_profile,
)

#: A routed fabric edge: (src dfg node, dst dfg node, operand slot).
EdgeKey = Tuple[int, int, int]


@dataclass
class Schedule:
    """A complete mapping of one mDFG variant onto one tile ADG."""

    mdfg: MDFG
    adg_version: int
    #: dfg node id -> adg node id (compute->PE, dfg port->hw port,
    #: stream/array -> engine).
    placement: Dict[int, int] = field(default_factory=dict)
    #: fabric edge -> path of adg node ids (inclusive of endpoints).
    routes: Dict[EdgeKey, Tuple[int, ...]] = field(default_factory=dict)
    #: per-PE maximum operand-arrival skew (needs delay FIFOs this deep).
    delay_fifo_needed: Dict[int, int] = field(default_factory=dict)
    estimate: Optional[PerfEstimate] = None

    #: ``(engines, stream_engine, profile)`` of the last :meth:`profile`:
    #: the ADG's engine nodes and the binding, the only inputs the profile
    #: reads.  Not a field, so never compared or pickled; a clone carries
    #: it (it holds no ADG, so a clone keeps no parent alive).
    _profile = None
    #: ``(profile, params, estimate)`` of the last :meth:`reprice`.
    _priced = None
    #: The :attr:`repro.adg.ADG.stamp` rung 0 last found this schedule clean
    #: on, or None; kept like ``_profile``, and :meth:`reroute` drops it.
    clean_at = None

    def __getstate__(self) -> Dict[str, object]:
        local = ("_profile", "_priced", "clean_at")
        return {k: v for k, v in self.__dict__.items() if k not in local}

    # ------------------------------------------------------------------
    def profile(self, adg: ADG) -> BottleneckProfile:
        """:func:`bottleneck_profile` of this schedule's binding on ``adg``,
        rebuilt only when an engine node (compared by identity) or the
        binding changed: an edit that leaves every engine alone, on this
        ADG or a clone of it, keeps the profile the schedule was priced
        with."""
        engines = adg.engines
        binding = self.binding()
        kept = self._profile
        if (
            kept is None
            or kept[1] != binding.stream_engine
            or len(kept[0]) != len(engines)
            or not all(map(is_, kept[0], engines))
        ):
            profile = bottleneck_profile(self.mdfg, binding, adg)
            kept = self._profile = (engines, binding.stream_engine, profile)
        return kept[2]

    def reprice(self, adg: ADG, params: SystemParams) -> None:
        """Set ``estimate`` to ``profile(adg).at(params)``, kept as it is
        when neither the profile nor ``params`` moved."""
        profile, kept = self.profile(adg), self._priced
        if not (kept and kept[0] is profile and kept[1] == params
                and kept[2] is self.estimate):
            self.estimate = profile.at(params)
            self._priced = (profile, params, self.estimate)

    def reroute(self, key: EdgeKey, path: Tuple[int, ...]) -> None:
        """Rewrite one route in place; the schedule is no longer known
        clean on any stamp."""
        self.routes[key] = path
        self.clean_at = None

    def clone(self) -> "Schedule":
        """Deep-enough copy: mutating the clone's maps leaves this intact."""
        copy = Schedule(
            mdfg=self.mdfg,
            adg_version=self.adg_version,
            placement=dict(self.placement),
            routes=dict(self.routes),
            delay_fifo_needed=dict(self.delay_fifo_needed),
            estimate=self.estimate,
        )
        copy._profile = self._profile
        copy._priced = self._priced
        copy.clean_at = self.clean_at
        return copy

    def binding(self) -> MemoryBinding:
        """Memory binding (stream -> engine) view for the perf model."""
        stream_ids = {s.node_id for s in self.mdfg.streams}
        return MemoryBinding(
            {nid: self.placement[nid] for nid in stream_ids if nid in self.placement}
        )

    def routes_through(self, adg_node: int) -> List[EdgeKey]:
        """Routed edges whose path passes through ``adg_node``."""
        return [
            key
            for key, path in self.routes.items()
            if adg_node in path
        ]

    def summary(self) -> str:
        est = f" ipc={self.estimate.ipc:.1f}" if self.estimate else ""
        return (
            f"Schedule({self.mdfg.workload}/{self.mdfg.variant}: "
            f"{len(self.placement)} placed, {len(self.routes)} routes{est})"
        )


class ScheduleError(Exception):
    """Raised internally when a mapping step cannot be satisfied.

    ``stage`` names the mapping phase that gave up — ``"binding"`` (memory
    streams/arrays to engines), ``"placement"`` (compute to PEs),
    ``"routing"`` (fabric values through switches), or ``"skew"`` (operand
    delay-FIFO depth).  Callers that want the failure as data instead of
    control flow use :func:`repro.scheduler.attempt_schedule`, which
    converts this exception into a :class:`ScheduleFailure`.
    """

    def __init__(self, message: str, stage: str = "schedule") -> None:
        super().__init__(message)
        self.stage = stage


@dataclass(frozen=True)
class ScheduleFailure:
    """Why a variant did not map: a structured, raise-free diagnosis."""

    stage: str                   # binding | placement | routing | skew | schedule
    reason: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.stage}: {self.reason}"


@dataclass
class ScheduleAttempt:
    """Result of trying to map one mDFG variant.

    Exactly one of ``schedule`` / ``failure`` is set.
    """

    schedule: Optional[Schedule] = None
    failure: Optional[ScheduleFailure] = None

    @property
    def ok(self) -> bool:
        return self.schedule is not None
