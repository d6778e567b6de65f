"""Workload container: arrays, loop nests, statements, pragmas.

A :class:`Workload` is the IR-level equivalent of one ``#pragma dsa config``
region of C code in the paper: a perfect (or near-perfect) loop nest whose
innermost body reads and writes restrict-qualified arrays through affine (or
single-level indirect) index expressions.

Workloads are built through the fluent :class:`WorkloadBuilder` API::

    wb = WorkloadBuilder("fir", suite="dsp", dtype=F64)
    a = wb.array("a", 255)
    b = wb.array("b", 128)
    c = wb.array("c", 128)
    io = wb.loop("io", 4)
    j = wb.loop("j", 128)
    ii = wb.loop("ii", 32)
    wb.assign(c[io * 32 + ii], c[io * 32 + ii] + a[io * 32 + ii + j] * b[j])
    fir = wb.build()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .dtypes import DType
from .expr import (
    Affine,
    BinOp,
    Expr,
    IndexExpr,
    IndirectIndex,
    Load,
    LoopVar,
    as_affine,
    as_expr,
    count_ops,
    loads_in,
)
from .ops import Op


class WorkloadError(ValueError):
    """Raised when a workload fails validation."""


@dataclass(frozen=True)
class Loop:
    """One loop level of the nest (outermost first in the workload).

    Attributes:
        var: induction-variable name.
        trip: trip count.  For variable-trip loops this is the *maximum*
            trip count; ``variable_trip`` marks the loop as data-dependent,
            which matters for the HLS baseline (Table IV) but not for the
            decoupled-spatial ISA, which supports them natively.
        parallel: whether iterations are independent (safe to unroll /
            partition across tiles).
    """

    var: str
    trip: int
    variable_trip: bool = False
    parallel: bool = True

    @property
    def effective_trip(self) -> float:
        """Average trip count; variable-trip loops run about half their max
        (triangular iteration spaces, the common case in cholesky/solver)."""
        return self.trip / 2.0 if self.variable_trip else float(self.trip)


@dataclass(frozen=True)
class ArrayDecl:
    """A named array operand of the workload.

    Attributes:
        name: array identifier.
        size: number of elements.
        dtype: element type (defaults to the workload dtype).
    """

    name: str
    size: int
    dtype: Optional[DType] = None

    def __getitem__(self, index) -> Load:
        return Load(self.name, _coerce_index(index))


def _coerce_index(index) -> IndexExpr:
    if isinstance(index, IndexExpr):
        return index
    if isinstance(index, Load):
        # a[b[i]] — the inner Load's own index must be affine.
        if not isinstance(index.index, Affine):
            raise WorkloadError("only one level of indirection is supported")
        return IndirectIndex(index.array, index.index)
    return as_affine(index)


@dataclass(frozen=True)
class Statement:
    """One assignment in the innermost loop body.

    ``reduction`` marks ``target op= expr`` updates whose target does not vary
    with the innermost loop — these need an accumulator, reduction tree, or
    the recurrence stream engine when vectorized.
    """

    target_array: str
    target_index: IndexExpr
    expr: Expr
    reduction_op: Optional[Op] = None

    @property
    def is_reduction(self) -> bool:
        return self.reduction_op is not None


@dataclass(frozen=True)
class Pragmas:
    """The ``#pragma dsa`` annotations of the region (Section II-B)."""

    config: bool = True
    decouple: bool = True


@dataclass(frozen=True)
class Workload:
    """A validated decoupled-spatial compilation region."""

    name: str
    suite: str
    dtype: DType
    loops: Tuple[Loop, ...]
    statements: Tuple[Statement, ...]
    arrays: Tuple[ArrayDecl, ...]
    pragmas: Pragmas = Pragmas()
    size_desc: str = ""

    # ------------------------------------------------------------------
    # Structure helpers
    # ------------------------------------------------------------------
    @property
    def innermost(self) -> Loop:
        return self.loops[-1]

    @property
    def loop_vars(self) -> Tuple[str, ...]:
        return tuple(l.var for l in self.loops)

    def loop(self, var: str) -> Loop:
        for l in self.loops:
            if l.var == var:
                return l
        raise KeyError(f"no loop {var!r} in workload {self.name}")

    def loop_depth(self, var: str) -> int:
        """Nest depth of ``var`` (0 = outermost)."""
        return self.loop_vars.index(var)

    def array(self, name: str) -> ArrayDecl:
        for a in self.arrays:
            if a.name == name:
                return a
        raise KeyError(f"no array {name!r} in workload {self.name}")

    def array_dtype(self, name: str) -> DType:
        decl = self.array(name)
        return decl.dtype if decl.dtype is not None else self.dtype

    @property
    def trip_product(self) -> int:
        result = 1
        for l in self.loops:
            result *= l.trip
        return result

    @property
    def effective_trip_product(self) -> float:
        result = 1.0
        for l in self.loops:
            result *= l.effective_trip
        return result

    @property
    def has_variable_trip(self) -> bool:
        return any(l.variable_trip for l in self.loops)

    # ------------------------------------------------------------------
    # Op accounting (Table II's "#m,a,d" columns come from the best DFG,
    # i.e. after unrolling; these are the per-iteration scalar counts.)
    # ------------------------------------------------------------------
    def op_counts(self) -> Dict[Op, int]:
        counts: Dict[Op, int] = {}
        for stmt in self.statements:
            for op, n in count_ops(stmt.expr).items():
                counts[op] = counts.get(op, 0) + n
        return counts

    def memory_op_count(self) -> int:
        """Loads + stores per innermost iteration."""
        loads = sum(len(loads_in(s.expr)) for s in self.statements)
        return loads + len(self.statements)

    # ------------------------------------------------------------------
    # Access helpers used by the reuse analyzer
    # ------------------------------------------------------------------
    def all_accesses(self) -> List[Tuple[str, IndexExpr, bool]]:
        """Every (array, index, is_write) access of the region."""
        out: List[Tuple[str, IndexExpr, bool]] = []
        for stmt in self.statements:
            for load in loads_in(stmt.expr):
                out.append((load.array, load.index, False))
                if isinstance(load.index, IndirectIndex):
                    out.append((load.index.index_array, load.index.index, False))
            out.append((stmt.target_array, stmt.target_index, True))
            if isinstance(stmt.target_index, IndirectIndex):
                out.append(
                    (stmt.target_index.index_array, stmt.target_index.index, False)
                )
        return out

    def footprint_bytes(self) -> int:
        """Total bytes of all declared arrays."""
        return sum(a.size * self.array_dtype(a.name).bytes for a in self.arrays)

    def validate(self) -> None:
        """Check internal consistency; raises :class:`WorkloadError`."""
        if not self.loops:
            raise WorkloadError(f"{self.name}: workload has no loops")
        if not self.statements:
            raise WorkloadError(f"{self.name}: workload has no statements")
        seen_vars = set()
        for l in self.loops:
            if l.trip <= 0:
                raise WorkloadError(f"{self.name}: loop {l.var} trip {l.trip} <= 0")
            if l.var in seen_vars:
                raise WorkloadError(f"{self.name}: duplicate loop var {l.var}")
            seen_vars.add(l.var)
        array_names = {a.name for a in self.arrays}
        if len(array_names) != len(self.arrays):
            raise WorkloadError(f"{self.name}: duplicate array declarations")
        for array, index, _ in self.all_accesses():
            if array not in array_names:
                raise WorkloadError(f"{self.name}: access to undeclared array {array}")
            affine = index.index if isinstance(index, IndirectIndex) else index
            if isinstance(affine, Affine):
                for var in affine.variables():
                    if var not in seen_vars:
                        raise WorkloadError(
                            f"{self.name}: index uses unknown loop var {var}"
                        )


class WorkloadBuilder:
    """Fluent builder producing validated :class:`Workload` objects."""

    def __init__(self, name: str, suite: str, dtype: DType, size_desc: str = ""):
        self._name = name
        self._suite = suite
        self._dtype = dtype
        self._size_desc = size_desc
        self._loops: List[Loop] = []
        self._arrays: List[ArrayDecl] = []
        self._statements: List[Statement] = []
        self._pragmas = Pragmas()

    def array(self, name: str, size: int, dtype: Optional[DType] = None) -> ArrayDecl:
        decl = ArrayDecl(name, size, dtype)
        self._arrays.append(decl)
        return decl

    def loop(
        self,
        var: str,
        trip: int,
        variable_trip: bool = False,
        parallel: bool = True,
    ) -> LoopVar:
        self._loops.append(Loop(var, trip, variable_trip, parallel))
        return LoopVar(var)

    def assign(self, target: Load, expr) -> "WorkloadBuilder":
        """Add ``target = expr``."""
        self._statements.append(
            Statement(target.array, target.index, as_expr(expr), None)
        )
        return self

    def accumulate(self, target: Load, expr, op: Op = Op.ADD) -> "WorkloadBuilder":
        """Add ``target op= expr`` (an explicit reduction update)."""
        reads_target = Load(target.array, target.index)
        reduction = op
        if op is Op.ADD:
            combined = reads_target + as_expr(expr)
        elif op is Op.SUB:
            # c -= x is still an additive reduction (accumulation of -x).
            combined = reads_target - as_expr(expr)
            reduction = Op.ADD
        elif op is Op.MUL:
            combined = reads_target * as_expr(expr)
        elif op in (Op.MAX, Op.MIN):
            combined = BinOp(op, reads_target, as_expr(expr))
        else:
            raise WorkloadError(f"unsupported reduction op {op}")
        self._statements.append(
            Statement(target.array, target.index, combined, reduction)
        )
        return self

    def pragmas(self, config: bool = True, decouple: bool = True) -> "WorkloadBuilder":
        self._pragmas = Pragmas(config, decouple)
        return self

    def build(self) -> Workload:
        w = Workload(
            name=self._name,
            suite=self._suite,
            dtype=self._dtype,
            loops=tuple(self._loops),
            statements=tuple(self._statements),
            arrays=tuple(self._arrays),
            pragmas=self._pragmas,
            size_desc=self._size_desc,
        )
        w.validate()
        return w
