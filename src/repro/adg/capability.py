"""Functional-unit capabilities of processing elements.

A capability names one operation on one scalar datatype class, e.g.
"64-bit integer multiply" or "double-precision divide".  Table III of the
paper specifies overlays by exactly these counts (``Int +/x/÷``,
``Flt. +/x/÷/sqrt``), so capabilities are the unit of specialization the
DSE adds and prunes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterable, Set

from ..ir import (
    DType,
    FLOAT_ONLY_OPS,
    INT_ONLY_OPS,
    Op,
)


@dataclass(frozen=True)
class FuCap:
    """One functional-unit capability: ``op`` on a scalar class.

    Attributes:
        op: the operation.
        is_float: floating-point (True) or integer (False) datapath.
        bits: scalar width in bits (8/16/32/64).
    """

    op: Op
    is_float: bool
    bits: int

    def __post_init__(self) -> None:
        if self.is_float and self.op in INT_ONLY_OPS:
            raise ValueError(f"{self.op} has no floating-point variant")
        if not self.is_float and self.op in FLOAT_ONLY_OPS:
            raise ValueError(f"{self.op} has no integer variant")
        if self.bits not in (8, 16, 32, 64):
            raise ValueError(f"unsupported FU width {self.bits}")

    @property
    def name(self) -> str:
        prefix = "f" if self.is_float else "i"
        return f"{prefix}{self.bits}.{self.op.value}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@lru_cache(maxsize=None)
def cap_for(op: Op, dtype: DType) -> FuCap:
    """The capability required to execute ``op`` on one lane of ``dtype``.

    Packed types (``f32x2``) execute on their scalar lane width.  Memoised:
    both arguments and the result are immutable, and the domain is finite.
    """
    return FuCap(op, dtype.is_float, dtype.scalar_bits)


def caps_for_dtype(dtype: DType, ops: Iterable[Op]) -> FrozenSet[FuCap]:
    """Capabilities covering ``ops`` at ``dtype``'s scalar width."""
    out: Set[FuCap] = set()
    for op in ops:
        if dtype.is_float and op in INT_ONLY_OPS:
            continue
        if not dtype.is_float and op in FLOAT_ONLY_OPS:
            continue
        out.add(FuCap(op, dtype.is_float, dtype.scalar_bits))
    return frozenset(out)


#: The full general-purpose capability set (the paper's General overlay
#: provisions every integer and floating-point FU at every width).
def universal_caps() -> FrozenSet[FuCap]:
    caps: Set[FuCap] = set()
    for op in Op:
        for bits in (8, 16, 32, 64):
            if op not in FLOAT_ONLY_OPS:
                caps.add(FuCap(op, False, bits))
            if op not in INT_ONLY_OPS and bits in (32, 64):
                caps.add(FuCap(op, True, bits))
    return frozenset(caps)
