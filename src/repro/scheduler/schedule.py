"""Schedule data structures: the result of mapping an mDFG onto an ADG.

A schedule records, for every mDFG entity, which hardware it occupies:

* compute nodes -> processing elements (dedicated: one instruction per PE),
* DFG ports -> hardware vector ports,
* streams and array nodes -> stream engines,
* fabric value edges -> link-level routes through switches.

Schedules are consulted by the DSE both to evaluate candidates (via the
performance model) and to *preserve* mappings across hardware mutations
(Section V-B); :meth:`Schedule.hardware_in_use` and
:meth:`Schedule.routes_through` support those transformations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..adg import ADG
from ..dfg import MDFG
from ..model.perf import MemoryBinding, PerfEstimate

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

    # ------------------------------------------------------------------
    def clone(self) -> "Schedule":
        """Deep-enough copy: mutating the clone's maps leaves this intact."""
        return Schedule(
            mdfg=self.mdfg,
            adg_version=self.adg_version,
            placement=dict(self.placement),
            routes=dict(self.routes),
            delay_fifo_needed=dict(self.delay_fifo_needed),
            estimate=self.estimate,
        )

    def binding(self) -> MemoryBinding:
        """Memory binding (stream -> engine) view for the perf model."""
        stream_ids = {s.node_id for s in self.mdfg.streams}
        return MemoryBinding(
            {nid: self.placement[nid] for nid in stream_ids if nid in self.placement}
        )

    def hardware_in_use(self) -> Set[int]:
        """Every ADG node this schedule occupies or routes through."""
        used: Set[int] = set(self.placement.values())
        for path in self.routes.values():
            used.update(path)
        return used

    def routes_through(self, adg_node: int) -> List[EdgeKey]:
        """Routed edges whose path passes through ``adg_node``."""
        return [
            key
            for key, path in self.routes.items()
            if adg_node in path
        ]

    # ------------------------------------------------------------------
    def is_valid_for(self, adg: ADG) -> bool:
        """Cheap validity check against (a possibly mutated) ``adg``.

        Verifies that every placed node and routed link still exists.
        Capability/width/capacity checks are the scheduler's job; this is
        the fast path used by schedule repair to find broken pieces.
        """
        for hw in self.placement.values():
            if not adg.has_node(hw):
                return False
        for path in self.routes.values():
            for src, dst in zip(path, path[1:]):
                if not adg.has_link(src, dst):
                    return False
        return True

    def broken_pieces(self, adg: ADG) -> Tuple[Set[int], Set[EdgeKey]]:
        """(dfg nodes with missing hardware, edges with missing links)."""
        bad_nodes = {
            dfg_id
            for dfg_id, hw in self.placement.items()
            if not adg.has_node(hw)
        }
        bad_edges = set()
        for key, path in self.routes.items():
            if any(not adg.has_node(n) for n in path) or any(
                not adg.has_link(s, d) for s, d in zip(path, path[1:])
            ):
                bad_edges.add(key)
        return bad_nodes, bad_edges

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
