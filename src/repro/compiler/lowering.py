"""Lowering a workload region to an mDFG at a chosen vectorization degree.

This implements the paper's *generic transformation* (Section II-B): the
innermost body is sliced into computational instructions (which become the
compute DFG) and memory accesses (which become streams + ports), then the
innermost loop is unrolled ``unroll`` times to widen the datapath.

Reduction/recurrence handling follows Section IV-B:

* a statement whose target does not vary with the innermost loop becomes a
  reduction tree + PE-resident accumulator (writes shrink to one per outer
  iteration);
* a read-modify-write whose index skips an outer loop may route through the
  recurrence engine (``use_recurrence=True``), eliding the per-iteration
  memory traffic, or fall back to memory read-modify-write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..dfg import MDFG, ArrayPlacement, StreamKind
from ..ir import (
    Affine,
    BinOp,
    Const,
    Expr,
    IndexExpr,
    IndirectIndex,
    IterValue,
    Load,
    Op,
    REDUCIBLE_OPS,
    Select,
    Statement,
    UnOp,
    Workload,
)
from ..profile.tracer import span
from .reuse import WorkloadReuse, analyze_workload

#: Widest datapath the generated PEs support (matches the paper's general
#: overlay, which uses maximum 512-bit vectorization).
MAX_VECTOR_BITS = 512

#: Arrays whose traffic/footprint ratio reaches this prefer the scratchpad.
SPAD_REUSE_THRESHOLD = 2.0


MEMORY_LINE_BYTES = 64


def stride_overfetch(index, inner_var: str, elem_bytes: int) -> float:
    """Line-granularity overfetch of a strided innermost access.

    A stream whose innermost stride is ``s`` elements touches roughly
    ``min(s, line/elem)`` line bytes per useful element; unit-stride,
    stationary, and indirect (modeled uniform) accesses fetch cleanly.
    """
    if not isinstance(index, Affine):
        return 1.0
    coeff = abs(index.coefficient(inner_var))
    if coeff <= 1:
        return 1.0
    return float(min(coeff, max(1, MEMORY_LINE_BYTES // elem_bytes)))


class LoweringError(ValueError):
    """Raised when a workload cannot be lowered at the requested settings."""


@dataclass
class _StreamRef:
    """Bookkeeping for a deduplicated read access."""

    stream_id: int
    port_id: int
    lanes: int


def max_unroll(workload: Workload) -> int:
    """Largest innermost unroll representable on the widest PE datapath."""
    by_width = MAX_VECTOR_BITS // workload.dtype.bits
    return max(1, min(by_width, workload.innermost.trip))


def tile_parallelism(workload: Workload, unroll: int) -> float:
    """Independent coarse-grain work items for multi-tile partitioning.

    The product of all parallel-loop trip counts, with the innermost loop
    discounted by the vectorization degree (its lanes are consumed by the
    datapath, not by tiles).
    """
    par = 1.0
    for loop in workload.loops[:-1]:
        if loop.parallel:
            par *= loop.trip
    inner = workload.innermost
    if inner.parallel:
        par *= max(1.0, inner.trip / unroll)
    return par


def takes_recurrence_engine(
    stmt: Statement, inner_var: str, reuse: WorkloadReuse
) -> bool:
    """Whether ``use_recurrence`` routes ``stmt`` through the recurrence engine.

    Only a reduction whose target varies with the innermost loop (an
    innermost reduction becomes an accumulator instead) over an array with
    an outer recurrence qualifies.  A workload with no such statement
    lowers to the same mDFG whatever ``use_recurrence`` says.
    """
    return (
        stmt.is_reduction
        and stmt.target_index.involves(inner_var)
        and reuse.recurrence_for(stmt.target_array) is not None
    )


def lower(
    workload: Workload,
    unroll: int = 1,
    use_recurrence: bool = True,
) -> MDFG:
    """Lower ``workload`` to an mDFG with the given innermost unroll factor.

    Raises:
        LoweringError: if the unroll factor exceeds what the datapath or
            the innermost trip count supports.
    """
    return _lower(workload, unroll, use_recurrence)


def _lower(
    workload: Workload,
    unroll: int,
    use_recurrence: bool,
    reuse: Optional[WorkloadReuse] = None,
) -> MDFG:
    """:func:`lower`, given the workload's reuse analysis when the caller
    holds it (a variant family analyses its workload once)."""
    with span("compiler.lower", workload=workload.name, unroll=unroll):
        if unroll < 1:
            raise LoweringError(f"unroll factor {unroll} < 1")
        if unroll > max_unroll(workload):
            raise LoweringError(
                f"{workload.name}: unroll {unroll} exceeds max "
                f"{max_unroll(workload)}"
            )
        if reuse is None:
            reuse = analyze_workload(workload)
        variant = f"u{unroll}" + ("" if use_recurrence else "-rmw")
        mdfg = MDFG(
            workload=workload.name,
            variant=variant,
            unroll=unroll,
            dtype=workload.dtype,
            iterations=workload.effective_trip_product,
            inner_trip=workload.innermost.trip,
            tile_parallelism=tile_parallelism(workload, unroll),
        )
        builder = _Lowerer(workload, reuse, mdfg, unroll, use_recurrence)
        builder.run()
        mdfg.validate()
        return mdfg


class _Lowerer:
    """Stateful helper carrying the maps built during one lowering."""

    def __init__(
        self,
        workload: Workload,
        reuse: WorkloadReuse,
        mdfg: MDFG,
        unroll: int,
        use_recurrence: bool,
    ):
        self.w = workload
        self.reuse = reuse
        self.mdfg = mdfg
        self.unroll = unroll
        self.use_recurrence = use_recurrence
        self.inner_var = workload.innermost.var
        self._written = frozenset(s.target_array for s in workload.statements)
        # Dedup maps
        self._read_streams: Dict[Tuple[str, IndexExpr], _StreamRef] = {}
        self._iter_streams: Dict[str, _StreamRef] = {}
        self._array_nodes: Dict[str, int] = {}
        self._array_stream_ids: Dict[str, List[int]] = {}
        # Statements whose target-read is satisfied without a memory stream.
        self._elided_target_reads: Dict[int, str] = {}

    # ------------------------------------------------------------------
    def run(self) -> None:
        for idx, stmt in enumerate(self.w.statements):
            self._lower_statement(idx, stmt)
        self._coalesce_adjacent_streams()
        self._materialize_arrays()

    def _coalesce_adjacent_streams(self) -> None:
        """Adjacent strided streams fetch whole lines cooperatively.

        Streams on the same array whose affine patterns differ only in the
        constant cover the stride between them (e.g. fft's ``x[2j]`` and
        ``x[2j+1]``), so together they consume every fetched line byte; the
        compiler coalesces their requests (Q2) and the overfetch vanishes.
        """
        groups: Dict[tuple, List[int]] = {}
        for (array, index), ref in self._read_streams.items():
            if not isinstance(index, Affine):
                continue
            stream = self.mdfg.node(ref.stream_id)
            if stream.stride_overfetch <= 1.0:
                continue
            groups.setdefault((array, index.coeffs), []).append(ref.stream_id)
        for (_array, coeffs), stream_ids in groups.items():
            if len(stream_ids) < 2:
                continue
            stride = abs(dict(coeffs).get(self.inner_var, 0))
            covered = min(stride, len(stream_ids))
            for sid in stream_ids:
                stream = self.mdfg.node(sid)
                stream.stride_overfetch = max(
                    1.0, stream.stride_overfetch / covered
                )

    # ------------------------------------------------------------------
    # Streams and ports
    # ------------------------------------------------------------------
    def _access_lanes(self, index: IndexExpr) -> int:
        """Vector lanes of a read access after unrolling the innermost loop."""
        if isinstance(index, IndirectIndex):
            return self.unroll if index.involves(self.inner_var) else 1
        assert isinstance(index, Affine)
        return self.unroll if index.involves(self.inner_var) else 1

    def _port_stationary(self, index: IndexExpr) -> int:
        """Firings each stationary value is held for, post-unroll."""
        involves = index.involves(self.inner_var)
        if involves:
            return 1
        return max(1, self.w.innermost.trip // self.unroll)

    def _needs_padding(self, lanes: int) -> bool:
        return lanes > 1 and self.w.innermost.trip % lanes != 0

    def _read_port(self, array: str, index: IndexExpr) -> _StreamRef:
        """Get-or-create the (stream, input port) pair for a read access."""
        key = (array, index)
        if key in self._read_streams:
            return self._read_streams[key]
        dtype = self.w.array_dtype(array)
        lanes = self._access_lanes(index)
        info = self.reuse.access(array, index, is_write=False)
        port = self.mdfg.add_input_port(
            width_bytes=lanes * dtype.bytes,
            stationary=self._port_stationary(index),
            needs_padding=self._needs_padding(lanes),
        )
        pattern = index.index if isinstance(index, IndirectIndex) else index
        stream = self.mdfg.add_stream(
            kind=StreamKind.MEMORY_READ,
            array=array,
            dtype=dtype,
            port=port,
            lanes=lanes,
            pattern=pattern if isinstance(pattern, Affine) else None,
            indirect=info.indirect,
            traffic=info.traffic,
            footprint=info.footprint,
            stationary_reuse=info.stationary_reuse,
            stride_overfetch=stride_overfetch(
                index, self.inner_var, dtype.bytes
            ),
        )
        ref = _StreamRef(stream, port, lanes)
        self._read_streams[key] = ref
        self._array_stream_ids.setdefault(array, []).append(stream)
        if isinstance(index, IndirectIndex):
            # The index stream itself is a separate affine read of the
            # index array (e.g. ``col[]`` in CRS spmv).
            self._read_port(index.index_array, index.index)
        return ref

    def _is_config_constant(self, load: Load) -> bool:
        """True for reads with a constant index from a read-only array."""
        if not isinstance(load.index, Affine) or load.index.variables():
            return False
        return load.array not in self._written

    def _iter_port(self, var: str) -> _StreamRef:
        """Get-or-create the generate-engine stream for a loop-var value."""
        if var in self._iter_streams:
            return self._iter_streams[var]
        dtype = self.w.dtype
        lanes = self.unroll if var == self.inner_var else 1
        port = self.mdfg.add_input_port(width_bytes=lanes * dtype.bytes)
        trips = int(round(self.w.effective_trip_product))
        stream = self.mdfg.add_stream(
            kind=StreamKind.GENERATE,
            array=None,
            dtype=dtype,
            port=port,
            lanes=lanes,
            traffic=trips,
            footprint=trips,
        )
        ref = _StreamRef(stream, port, lanes)
        self._iter_streams[var] = ref
        return ref

    # ------------------------------------------------------------------
    # Expression lowering
    # ------------------------------------------------------------------
    def _lower_expr(
        self, expr: Expr, lanes: int, skip_load: Optional[Load] = None
    ) -> Optional[int]:
        """Lower a value expression; returns the producing node id.

        Constants return ``None`` (they become PE immediates).  ``skip_load``
        suppresses the target re-read of reduction statements (the
        accumulator or recurrence engine supplies that value instead).
        """
        dtype = self.w.dtype
        if isinstance(expr, Const):
            return None
        if isinstance(expr, Load):
            if skip_load is not None and expr == skip_load:
                return None
            if self._is_config_constant(expr):
                # Loop-invariant scalars (filter taps, weights) are loaded
                # into PE constant registers at configuration time rather
                # than occupying a stream + vector port.
                return None
            return self._read_port(expr.array, expr.index).port_id
        if isinstance(expr, IterValue):
            return self._iter_port(expr.var).port_id
        if isinstance(expr, BinOp):
            if expr.op in REDUCIBLE_OPS:
                return self._lower_balanced_chain(expr, lanes, skip_load)
            lhs = self._lower_expr(expr.lhs, lanes, skip_load)
            rhs = self._lower_expr(expr.rhs, lanes, skip_load)
            operands = tuple(x for x in (lhs, rhs) if x is not None)
            return self.mdfg.add_compute(expr.op, dtype, lanes, operands)
        if isinstance(expr, UnOp):
            operand = self._lower_expr(expr.operand, lanes, skip_load)
            operands = tuple(x for x in (operand,) if x is not None)
            return self.mdfg.add_compute(expr.op, dtype, lanes, operands)
        if isinstance(expr, Select):
            parts = [
                self._lower_expr(e, lanes, skip_load)
                for e in (expr.pred, expr.then, expr.other)
            ]
            operands = tuple(x for x in parts if x is not None)
            return self.mdfg.add_compute(Op.SELECT, dtype, lanes, operands)
        raise LoweringError(f"cannot lower expression {expr!r}")

    def _reduction_body(self, stmt: Statement, target_read: Load):
        """The non-target part of a reduction expression.

        ``accumulate`` builds ``target (op) rest``; stripping the outer
        combine avoids emitting a redundant unary combine node (the
        accumulator or recurrence-combine supplies that operation).
        """
        expr = stmt.expr
        if isinstance(expr, BinOp) and expr.lhs == target_read:
            return expr.rhs
        if isinstance(expr, BinOp) and expr.rhs == target_read:
            return expr.lhs
        return expr

    def _lower_balanced_chain(
        self, expr: BinOp, lanes: int, skip_load: Optional[Load]
    ) -> Optional[int]:
        """Lower a chain of one associative op as a balanced tree.

        Linear chains like blur's ``(((a+b)+c)+d)...`` would otherwise
        create unbounded operand-arrival skew on the fabric; rebalancing
        keeps the pipeline depth logarithmic (a standard spatial-compiler
        transformation).
        """
        op = expr.op
        terms: List[Expr] = []

        def flatten(e: Expr) -> None:
            if isinstance(e, BinOp) and e.op == op:
                flatten(e.lhs)
                flatten(e.rhs)
            else:
                terms.append(e)

        flatten(expr)
        lowered = [self._lower_expr(t, lanes, skip_load) for t in terms]
        values = [v for v in lowered if v is not None]
        n_immediates = len(lowered) - len(values)
        if not values:
            return None
        if len(values) == 1:
            if n_immediates:
                # Fold the constants into one combining node.
                return self.mdfg.add_compute(op, self.w.dtype, lanes, tuple(values))
            return values[0]
        while len(values) > 1:
            nxt = []
            for i in range(0, len(values) - 1, 2):
                nxt.append(
                    self.mdfg.add_compute(
                        op, self.w.dtype, lanes, (values[i], values[i + 1])
                    )
                )
            if len(values) % 2:
                nxt.append(values[-1])
            values = nxt
        return values[0]

    def _reduction_tree(self, value: int, lanes: int, op: Op) -> int:
        """Collapse ``lanes`` down to one with a log-depth tree of ``op``."""
        dtype = self.w.dtype
        while lanes > 1:
            lanes //= 2
            value = self.mdfg.add_compute(op, dtype, lanes, (value,))
        return value

    # ------------------------------------------------------------------
    # Statement lowering
    # ------------------------------------------------------------------
    def _lower_statement(self, idx: int, stmt: Statement) -> None:
        target_read = Load(stmt.target_array, stmt.target_index)
        inner_reduction = (
            stmt.is_reduction
            and not stmt.target_index.involves(self.inner_var)
        )
        if inner_reduction:
            self._lower_inner_reduction(stmt, target_read)
        elif self.use_recurrence and takes_recurrence_engine(
            stmt, self.inner_var, self.reuse
        ):
            self._lower_recurrence(
                stmt, target_read, self.reuse.recurrence_for(stmt.target_array)
            )
        else:
            self._lower_plain(stmt)

    def _store_stream(
        self, stmt: Statement, value: int, lanes: int, traffic: int
    ) -> None:
        dtype = self.w.array_dtype(stmt.target_array)
        info = self.reuse.access(
            stmt.target_array, stmt.target_index, is_write=True
        )
        port = self.mdfg.add_output_port(width_bytes=lanes * dtype.bytes)
        self.mdfg.add_edge(value, port)
        pattern = stmt.target_index
        stream = self.mdfg.add_stream(
            kind=StreamKind.MEMORY_WRITE,
            array=stmt.target_array,
            dtype=dtype,
            port=port,
            lanes=lanes,
            pattern=pattern if isinstance(pattern, Affine) else None,
            indirect=isinstance(pattern, IndirectIndex),
            traffic=traffic,
            footprint=info.footprint,
            stride_overfetch=stride_overfetch(
                stmt.target_index, self.inner_var, dtype.bytes
            ),
        )
        self._array_stream_ids.setdefault(stmt.target_array, []).append(stream)

    def _lower_plain(self, stmt: Statement) -> None:
        """Straight-line statement: full-rate read streams and write stream."""
        value = self._lower_expr(stmt.expr, self.unroll)
        if value is None:
            raise LoweringError(
                f"{self.w.name}: statement computes a constant; nothing to map"
            )
        lanes = (
            self.unroll if stmt.target_index.involves(self.inner_var) else 1
        )
        self._store_stream(
            stmt, value, lanes, traffic=int(round(self.w.effective_trip_product))
        )

    def _lower_inner_reduction(self, stmt: Statement, target_read: Load) -> None:
        """Innermost reduction: tree + accumulator; one write per outer iter."""
        op = stmt.reduction_op
        assert op is not None
        body = self._reduction_body(stmt, target_read)
        value = self._lower_expr(body, self.unroll, skip_load=target_read)
        if value is None:
            raise LoweringError(f"{self.w.name}: empty reduction body")
        value = self._reduction_tree(value, self.unroll, op)
        acc = self.mdfg.add_compute(
            op, self.w.dtype, 1, (value,), accumulator=True
        )
        outer_iters = max(
            1, int(round(self.w.effective_trip_product / self.w.innermost.trip))
        )
        self._store_stream(stmt, acc, lanes=1, traffic=outer_iters)

    def _lower_recurrence(self, stmt, target_read, recurrence) -> None:
        """Outer recurrence via the recurrence stream engine (Fig. 5's c[]).

        The running values cycle out-port -> recurrence engine -> in-port;
        main memory sees only the initial load and final store (footprint,
        not traffic).
        """
        dtype = self.w.array_dtype(stmt.target_array)
        lanes = self.unroll if stmt.target_index.involves(self.inner_var) else 1
        in_port = self.mdfg.add_input_port(width_bytes=lanes * dtype.bytes)
        rec_in = self.mdfg.add_stream(
            kind=StreamKind.RECURRENCE,
            array=stmt.target_array,
            dtype=dtype,
            port=in_port,
            lanes=lanes,
            traffic=int(round(self.w.effective_trip_product)),
            footprint=recurrence.depth,
            recurrence_depth=recurrence.depth,
        )
        # Compute reads the recurring value from the recurrence in-port.
        body = self._reduction_body(stmt, target_read)
        value = self._lower_expr(body, self.unroll, skip_load=target_read)
        if value is None:
            raise LoweringError(f"{self.w.name}: empty recurrence body")
        combine_opnds = (in_port, value)
        op = stmt.reduction_op
        assert op is not None
        combined = self.mdfg.add_compute(op, self.w.dtype, self.unroll, combine_opnds)
        out_port = self.mdfg.add_output_port(width_bytes=lanes * dtype.bytes)
        self.mdfg.add_edge(combined, out_port)
        rec_out = self.mdfg.add_stream(
            kind=StreamKind.RECURRENCE,
            array=stmt.target_array,
            dtype=dtype,
            port=out_port,
            lanes=lanes,
            traffic=int(round(self.w.effective_trip_product)),
            footprint=recurrence.depth,
            recurrence_depth=recurrence.depth,
        )
        # Symmetric pairing (validated by MDFG.validate).
        in_node = self.mdfg.node(rec_in)
        out_node = self.mdfg.node(rec_out)
        in_node.recurrent_pair = rec_out
        out_node.recurrent_pair = rec_in
        self._array_stream_ids.setdefault(stmt.target_array, []).extend(
            [rec_in, rec_out]
        )
        self._elided_target_reads[id(stmt)] = stmt.target_array

    # ------------------------------------------------------------------
    # Array nodes
    # ------------------------------------------------------------------
    def _materialize_arrays(self) -> None:
        indirect_targets = {
            s.array
            for s in self.mdfg.streams
            if s.indirect and s.kind is StreamKind.MEMORY_READ
        }
        for array, stream_ids in sorted(self._array_stream_ids.items()):
            dtype = self.w.array_dtype(array)
            streams = [self.mdfg.node(sid) for sid in stream_ids]
            footprint_elems = max(
                (s.footprint for s in streams if s.is_memory), default=0
            )
            if footprint_elems == 0:
                # Recurrence-only arrays still occupy their full extent in
                # memory for the initial/final transfers.
                footprint_elems = self.w.array(array).size
            traffic_elems = sum(s.traffic for s in streams if s.is_memory)
            if traffic_elems == 0:
                # Recurrence-only array: memory sees one load + one store.
                traffic_elems = 2 * self.w.array(array).size
            reuse_ratio = traffic_elems / max(1, footprint_elems)
            is_indirect_target = array in indirect_targets
            prefer_spad = (
                reuse_ratio >= SPAD_REUSE_THRESHOLD or is_indirect_target
            )
            parallel_vars = {l.var for l in self.w.loops if l.parallel}
            partitionable = any(
                s.pattern is not None
                and any(s.pattern.involves(v) for v in parallel_vars)
                for sid in stream_ids
                for s in [self.mdfg.node(sid)]
                if s.is_memory
            )
            footprint_bytes = footprint_elems * dtype.bytes
            if prefer_spad:
                footprint_bytes *= 2  # double-buffering headroom
            node = self.mdfg.add_array(
                array=array,
                dtype=dtype,
                size_elems=self.w.array(array).size,
                footprint_bytes=footprint_bytes,
                traffic_bytes=traffic_elems * dtype.bytes,
                preferred=(
                    ArrayPlacement.SPAD if prefer_spad else ArrayPlacement.DRAM
                ),
                indirect_target=is_indirect_target,
                partitionable=partitionable,
            )
            self.mdfg.attach_streams(node, tuple(stream_ids))
