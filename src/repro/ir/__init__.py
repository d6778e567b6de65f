"""Workload intermediate representation.

The IR captures exactly the program facts the OverGen compiler consumes: a
loop nest, restrict-qualified array accesses with affine (or single-indirect)
index expressions, the compute expression per statement, and the ``dsa``
pragmas.  See :mod:`repro.ir.workload` for the builder API.
"""

from .dtypes import (
    ALL_DTYPES,
    DType,
    F32,
    F32X2,
    F64,
    I8,
    I16,
    I32,
    I64,
    dtype_from_name,
)
from .expr import (
    Affine,
    BinOp,
    Const,
    Expr,
    IndexExpr,
    IndirectIndex,
    IterValue,
    Load,
    LoopVar,
    Select,
    UnOp,
    as_affine,
    as_expr,
    compare,
    count_ops,
    loads_in,
    sqrt,
    vmax,
    vmin,
    walk,
)
from .ops import (
    BINARY_OPS,
    FLOAT_ONLY_OPS,
    INT_ONLY_OPS,
    Op,
    OP_LATENCY,
    REDUCIBLE_OPS,
    TERNARY_OPS,
    UNARY_OPS,
    arity,
    op_latency,
)
from .workload import (
    ArrayDecl,
    Loop,
    Pragmas,
    Statement,
    Workload,
    WorkloadBuilder,
    WorkloadError,
)
