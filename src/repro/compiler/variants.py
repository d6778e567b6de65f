"""Pre-generation of transformation variants (Section V-A).

During DSE, recompiling each workload for every candidate hardware would
dominate exploration time.  Instead the compiler pre-generates a *family* of
mDFGs per region — different unroll degrees, recurrence-engine versus
memory read-modify-write forms — and the DSE schedules whichever member maps
best onto the current ADG.  Only one member needs to schedule for the
hardware to be considered valid for that workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence

from ..dfg import MDFG, StreamKind
from ..ir import Workload
from ..profile.tracer import span
from .lowering import LoweringError, _lower, max_unroll, takes_recurrence_engine
from .reuse import analyze_workload


#: Families :func:`generate_variants` keeps per process: every registered
#: workload with room to spare, so fuzz and soak loops over generated
#: bodies cannot grow the memo without limit.
VARIANT_MEMO_SIZE = 256


@dataclass(frozen=True)
class VariantSet:
    """All pre-compiled mDFG variants of one workload region.

    Variants are ordered most-aggressive first (highest instruction
    bandwidth); the "relax DFG complexity" fallback of Fig. 3 is simply a
    walk down this tuple.  A family is shared by every caller of
    :func:`generate_variants`, so it is read-only.
    """

    workload: Workload
    variants: Sequence[MDFG] = ()

    def __post_init__(self) -> None:
        ordered = sorted(
            self.variants, key=lambda m: (-m.insts_per_cycle, m.variant)
        )
        object.__setattr__(self, "variants", tuple(ordered))

    @property
    def best(self) -> MDFG:
        return self.variants[0]

    def by_name(self, variant: str) -> MDFG:
        for m in self.variants:
            if m.variant == variant:
                return m
        raise KeyError(f"no variant {variant!r} for {self.workload.name}")


def unroll_candidates(workload: Workload) -> List[int]:
    """Powers of two up to the datapath/trip-count limit."""
    limit = max_unroll(workload)
    factors = []
    u = 1
    while u <= limit:
        factors.append(u)
        u *= 2
    return factors


@lru_cache(maxsize=VARIANT_MEMO_SIZE)
def generate_variants(workload: Workload) -> VariantSet:
    """Pre-compile every useful (unroll, recurrence) combination.

    Memoized per process on the frozen ``workload`` value, which is all
    the lowering reads: equal bodies share one family, a repeat call emits
    no span, and a :class:`LoweringError` is raised again on every call.
    """
    with span("compiler.variants", workload=workload.name):
        reuse = analyze_workload(workload)
        # The -rmw form is lowered only when some statement would take the
        # recurrence engine: without one both forms run the same lowering,
        # so the rmw form could only come out identical and be dropped.
        inner_var = workload.innermost.var
        rmw_differs = any(
            takes_recurrence_engine(s, inner_var, reuse)
            for s in workload.statements
        )
        forms = (True, False) if rmw_differs else (True,)
        variants: List[MDFG] = []
        for unroll in unroll_candidates(workload):
            for use_rec in forms:
                try:
                    mdfg = _lower(workload, unroll, use_rec, reuse)
                except LoweringError:
                    continue
                # Keep an rmw form only if its streams differ from the
                # recurrence form's.
                if not use_rec and any(
                    _same_structure(mdfg, other) for other in variants
                ):
                    continue
                variants.append(mdfg)
        if not variants:
            raise LoweringError(f"{workload.name}: no lowerable variants")
        return VariantSet(workload=workload, variants=variants)


def _same_structure(a: MDFG, b: MDFG) -> bool:
    """Cheap structural equivalence: same unroll and stream signature."""
    if a.unroll != b.unroll:
        return False
    sig_a = sorted((s.kind.value, s.array or "", s.lanes) for s in a.streams)
    sig_b = sorted((s.kind.value, s.array or "", s.lanes) for s in b.streams)
    return sig_a == sig_b


def uses_recurrence_engine(mdfg: MDFG) -> bool:
    """Whether any stream of ``mdfg`` needs the recurrence engine."""
    return any(s.kind is StreamKind.RECURRENCE for s in mdfg.streams)
