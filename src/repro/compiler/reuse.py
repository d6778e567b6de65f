"""Compiler reuse analysis (Section IV-B of the paper).

For every array access the analyzer computes:

* **traffic** — how many times the access executes: the product of all loop
  trip counts (every innermost iteration issues it once).
* **footprint** — how many distinct elements it touches: the span of the
  affine expression joined over all loop bounds (for the paper's FIR
  example ``a[io*32+ii+j]`` this yields 128+128-1 = 255).
* **stationary reuse** — if the innermost loop variable does not appear in
  the index, the same element is re-read ``trip(innermost)`` times in a row
  and can be held stationary in the port FIFO.
* **recurrent reuse** — a read/write pair on the same index expression whose
  index omits some loop: the data cycles through the pipeline once per
  iteration of the omitted loop and can use the recurrence engine when the
  concurrent working set fits on chip.

Indirect accesses ``a[b[i]]`` follow the paper's simplifying assumptions:
``b`` is affine-analyzable and the indirected accesses are uniform over
``a``, so traffic is the trip product and footprint is ``len(a)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..ir import (
    Affine,
    IndexExpr,
    IndirectIndex,
    Load,
    Statement,
    Workload,
    loads_in,
)


@dataclass(frozen=True)
class AccessInfo:
    """Reuse facts for one array access."""

    array: str
    index: IndexExpr
    is_write: bool
    traffic: int
    footprint: int
    stationary_reuse: int
    indirect: bool

    @property
    def general_reuse(self) -> float:
        if self.footprint <= 0:
            return 1.0
        return max(1.0, self.traffic / self.footprint)


@dataclass(frozen=True)
class RecurrenceInfo:
    """A read-modify-write recurrence on ``array`` (Section IV-B).

    Attributes:
        array: the recurring array.
        carried_over: name of the outermost loop variable absent from the
            index (the loop that carries the recurrence).
        recurrences: times each element recurs (product of absent trips).
        depth: concurrent elements in flight (product of trips of present
            loops *inner* to the carrying loop) — the on-chip buffer needed
            for the recurrence engine to be legal.
    """

    array: str
    index: Affine
    carried_over: str
    recurrences: int
    depth: int


def affine_span(workload: Workload, affine: Affine) -> int:
    """Distinct elements covered by ``affine`` over the full iteration space.

    Computed by joining per-loop bounds: with non-negative coefficients the
    touched interval is ``[const, const + sum(coeff * (trip-1))]``.  Negative
    coefficients widen the low side symmetrically.
    """
    lo = affine.const
    hi = affine.const
    for var, coeff in affine.coeffs:
        extent = coeff * (workload.loop(var).trip - 1)
        if extent >= 0:
            hi += extent
        else:
            lo += extent
    return hi - lo + 1


def access_traffic(workload: Workload) -> int:
    """Executions of an innermost-body access.

    Variable-trip loops count at their average (effective) trip so that
    bandwidth math stays consistent with the iteration counts the region
    actually executes.
    """
    return int(round(workload.effective_trip_product))


def stationary_factor(workload: Workload, affine: Affine) -> int:
    """Port-FIFO (stationary) reuse: innermost trips with an unchanged index."""
    if affine.involves(workload.innermost.var):
        return 1
    return workload.innermost.trip


def analyze_access(
    workload: Workload, array: str, index: IndexExpr, is_write: bool
) -> AccessInfo:
    """Compute the reuse facts for one access."""
    traffic = access_traffic(workload)
    if isinstance(index, IndirectIndex):
        footprint = workload.array(array).size
        stationary = 1
        indirect = True
    else:
        assert isinstance(index, Affine)
        footprint = min(affine_span(workload, index), workload.array(array).size)
        stationary = stationary_factor(workload, index)
        indirect = False
    return AccessInfo(
        array=array,
        index=index,
        is_write=is_write,
        traffic=traffic,
        footprint=footprint,
        stationary_reuse=stationary,
        indirect=indirect,
    )


def find_recurrence(workload: Workload, stmt: Statement) -> Optional[RecurrenceInfo]:
    """Detect an outer-loop read-modify-write recurrence for ``stmt``.

    Requires: the statement both reads and writes ``target`` at the same
    index, the index *does* vary with the innermost loop (otherwise it is a
    plain accumulator reduction), and at least one loop variable is absent
    from the index (that loop carries the recurrence).
    """
    index = stmt.target_index
    if not isinstance(index, Affine):
        return None

    reads_target = any(
        isinstance(l, Load) and l.array == stmt.target_array and l.index == index
        for l in loads_in(stmt.expr)
    )
    if not reads_target:
        return None
    if not index.involves(workload.innermost.var):
        return None  # innermost reduction: handled by a PE accumulator
    absent = [l for l in workload.loops if not index.involves(l.var)]
    if not absent:
        return None
    carrier = absent[0]  # outermost absent loop carries the recurrence
    recurrences = 1
    for loop in absent:
        recurrences *= loop.trip
    carrier_depth = workload.loop_depth(carrier.var)
    depth = 1
    for loop in workload.loops[carrier_depth + 1 :]:
        if index.involves(loop.var):
            depth *= loop.trip
    return RecurrenceInfo(
        array=stmt.target_array,
        index=index,
        carried_over=carrier.var,
        recurrences=recurrences,
        depth=depth,
    )


@dataclass
class WorkloadReuse:
    """Aggregated reuse analysis for a whole region."""

    accesses: List[AccessInfo]
    recurrences: List[RecurrenceInfo]

    def __post_init__(self) -> None:
        self._by_key = {  # reversed: the first of equal keys wins
            (a.array, a.index, a.is_write): a for a in reversed(self.accesses)
        }

    def access(self, array: str, index: IndexExpr, is_write: bool) -> AccessInfo:
        """The first analysed access of ``array[index]`` (read or write)."""
        return self._by_key[array, index, is_write]

    def for_array(self, array: str) -> List[AccessInfo]:
        return [a for a in self.accesses if a.array == array]

    def recurrence_for(self, array: str) -> Optional[RecurrenceInfo]:
        for rec in self.recurrences:
            if rec.array == array:
                return rec
        return None


def analyze_workload(workload: Workload) -> WorkloadReuse:
    """Run reuse analysis over every access of the region."""
    accesses = [
        analyze_access(workload, array, index, is_write)
        for array, index, is_write in workload.all_accesses()
    ]
    recurrences = []
    for stmt in workload.statements:
        rec = find_recurrence(workload, stmt)
        if rec is not None:
            recurrences.append(rec)
    return WorkloadReuse(accesses=accesses, recurrences=recurrences)
