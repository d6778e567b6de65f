"""Expression trees for the workload IR.

Two expression families exist:

* **Index expressions** (:class:`Affine`, :class:`IndirectIndex`) describe
  *where* in an array an access lands, as a function of loop variables.  The
  compiler's reuse analysis (Section IV-B of the paper) operates entirely on
  these.
* **Value expressions** (:class:`Load`, :class:`Const`, :class:`BinOp`,
  :class:`UnOp`, :class:`Select`, :class:`IterValue`) describe *what* is
  computed.  The compiler slices these into streams plus a compute dataflow
  graph.

Affine expressions support natural construction via operator overloading on
:class:`LoopVar`:  ``a[i * 32 + j + 1]`` builds ``Affine({i:32, j:1}, 1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, Union

from .ops import Op, arity


class IndexExpr:
    """Base class for array index expressions."""


@dataclass(frozen=True)
class Affine(IndexExpr):
    """A linear combination of loop variables plus a constant.

    Attributes:
        coeffs: mapping from loop-variable name to integer coefficient.
            Variables with coefficient 0 are dropped at construction.
        const: the constant offset.
    """

    coeffs: Tuple[Tuple[str, int], ...]
    const: int = 0

    @staticmethod
    def of(coeffs: Mapping[str, int], const: int = 0) -> "Affine":
        items = tuple(sorted((v, c) for v, c in coeffs.items() if c != 0))
        return Affine(items, const)

    @property
    def coeff_map(self) -> Dict[str, int]:
        return dict(self.coeffs)

    def variables(self) -> Tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    def involves(self, var: str) -> bool:
        return any(v == var for v, _ in self.coeffs)

    def coefficient(self, var: str) -> int:
        return self.coeff_map.get(var, 0)

    def shift(self, delta: int) -> "Affine":
        """Return this expression with ``delta`` added to the constant."""
        return Affine(self.coeffs, self.const + delta)

    def substitute(self, var: str, value: int) -> "Affine":
        """Fix ``var`` to a constant ``value`` and fold it into the offset."""
        coeffs = self.coeff_map
        c = coeffs.pop(var, 0)
        return Affine.of(coeffs, self.const + c * value)

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate under a full assignment of loop variables."""
        return self.const + sum(c * env[v] for v, c in self.coeffs)

    def __add__(self, other: Union["Affine", "LoopVar", int]) -> "Affine":
        if isinstance(other, int):
            return self.shift(other)
        if isinstance(other, LoopVar):
            other = as_affine(other)
        if isinstance(other, Affine):
            merged = self.coeff_map
            for v, c in other.coeffs:
                merged[v] = merged.get(v, 0) + c
            return Affine.of(merged, self.const + other.const)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: Union["Affine", "LoopVar", int]) -> "Affine":
        if isinstance(other, int):
            return self.shift(-other)
        if isinstance(other, LoopVar):
            other = as_affine(other)
        if isinstance(other, Affine):
            return self + (other * -1)
        return NotImplemented

    def __mul__(self, factor: int) -> "Affine":
        if not isinstance(factor, int):
            return NotImplemented
        return Affine.of({v: c * factor for v, c in self.coeffs}, self.const * factor)

    __rmul__ = __mul__

    def __str__(self) -> str:
        parts = [f"{c}*{v}" if c != 1 else v for v, c in self.coeffs]
        if self.const or not parts:
            parts.append(str(self.const))
        return "+".join(parts)


@dataclass(frozen=True)
class IndirectIndex(IndexExpr):
    """An indirect index ``base_array[affine]`` used as ``a[b[i]]``.

    Per the paper's simplifying assumptions the index stream ``b`` is linear
    (analyzable with affine techniques) and the indirected accesses are
    treated as uniformly distributed over the target array.
    """

    index_array: str
    index: Affine

    def variables(self) -> Tuple[str, ...]:
        return self.index.variables()

    def involves(self, var: str) -> bool:
        return self.index.involves(var)

    def __str__(self) -> str:
        return f"{self.index_array}[{self.index}]"


def as_affine(value: Union["LoopVar", Affine, int]) -> Affine:
    """Coerce a loop variable or integer into an :class:`Affine`."""
    if isinstance(value, Affine):
        return value
    if isinstance(value, LoopVar):
        return Affine.of({value.name: 1})
    if isinstance(value, int):
        return Affine.of({}, value)
    raise TypeError(f"cannot treat {value!r} as an affine index expression")


class Expr:
    """Base class for value expressions; supports operator overloading."""

    def _binop(self, op: Op, other: "ExprLike", swap: bool = False) -> "BinOp":
        rhs = as_expr(other)
        return BinOp(op, rhs, self) if swap else BinOp(op, self, rhs)

    def __add__(self, other: "ExprLike") -> "BinOp":
        return self._binop(Op.ADD, other)

    def __radd__(self, other: "ExprLike") -> "BinOp":
        return self._binop(Op.ADD, other, swap=True)

    def __sub__(self, other: "ExprLike") -> "BinOp":
        return self._binop(Op.SUB, other)

    def __rsub__(self, other: "ExprLike") -> "BinOp":
        return self._binop(Op.SUB, other, swap=True)

    def __mul__(self, other: "ExprLike") -> "BinOp":
        return self._binop(Op.MUL, other)

    def __rmul__(self, other: "ExprLike") -> "BinOp":
        return self._binop(Op.MUL, other, swap=True)

    def __truediv__(self, other: "ExprLike") -> "BinOp":
        return self._binop(Op.DIV, other)

    def __rtruediv__(self, other: "ExprLike") -> "BinOp":
        return self._binop(Op.DIV, other, swap=True)

    def __rshift__(self, other: "ExprLike") -> "BinOp":
        return self._binop(Op.SHR, other)

    def __lshift__(self, other: "ExprLike") -> "BinOp":
        return self._binop(Op.SHL, other)


ExprLike = Union[Expr, int, float]


def as_expr(value: ExprLike) -> Expr:
    """Coerce numbers to :class:`Const`; pass expressions through."""
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, float)):
        return Const(value)
    raise TypeError(f"cannot treat {value!r} as a value expression")


@dataclass(frozen=True)
class Const(Expr):
    """A literal constant operand."""

    value: float

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class IterValue(Expr):
    """A loop-variable used as a *value* (maps to the Generate engine)."""

    var: str

    def __str__(self) -> str:
        return f"iter({self.var})"


@dataclass(frozen=True)
class Load(Expr):
    """A read of ``array[index]``; becomes a read stream + input port."""

    array: str
    index: IndexExpr

    def __str__(self) -> str:
        return f"{self.array}[{self.index}]"


@dataclass(frozen=True)
class BinOp(Expr):
    op: Op
    lhs: Expr
    rhs: Expr

    def __str__(self) -> str:
        return f"({self.lhs} {self.op} {self.rhs})"


@dataclass(frozen=True)
class UnOp(Expr):
    op: Op
    operand: Expr

    def __str__(self) -> str:
        return f"{self.op}({self.operand})"


@dataclass(frozen=True)
class Select(Expr):
    """Predicated selection ``pred ? then : other`` (dataflow if-conversion)."""

    pred: Expr
    then: Expr
    other: Expr

    def __str__(self) -> str:
        return f"select({self.pred}, {self.then}, {self.other})"


def sqrt(value: ExprLike) -> UnOp:
    return UnOp(Op.SQRT, as_expr(value))


def vmax(a: ExprLike, b: ExprLike) -> BinOp:
    return BinOp(Op.MAX, as_expr(a), as_expr(b))


def vmin(a: ExprLike, b: ExprLike) -> BinOp:
    return BinOp(Op.MIN, as_expr(a), as_expr(b))


def compare(a: ExprLike, b: ExprLike) -> BinOp:
    return BinOp(Op.CMP, as_expr(a), as_expr(b))


@dataclass(frozen=True)
class LoopVar:
    """A loop induction variable, usable to build affine index expressions."""

    name: str

    def __add__(self, other) -> Affine:
        return as_affine(self) + as_affine(other)

    __radd__ = __add__

    def __sub__(self, other) -> Affine:
        return as_affine(self) - as_affine(other)

    def __mul__(self, factor: int) -> Affine:
        return as_affine(self) * factor

    __rmul__ = __mul__

    def __str__(self) -> str:
        return self.name


def walk(expr: Expr):
    """Yield every node of a value expression tree, pre-order."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk(expr.lhs)
        yield from walk(expr.rhs)
    elif isinstance(expr, UnOp):
        yield from walk(expr.operand)
    elif isinstance(expr, Select):
        yield from walk(expr.pred)
        yield from walk(expr.then)
        yield from walk(expr.other)


def loads_in(expr: Expr) -> Tuple[Load, ...]:
    """All :class:`Load` leaves of ``expr`` in deterministic order."""
    return tuple(node for node in walk(expr) if isinstance(node, Load))


def count_ops(expr: Expr) -> Dict[Op, int]:
    """Histogram of operations used by ``expr``."""
    counts: Dict[Op, int] = {}
    for node in walk(expr):
        if isinstance(node, BinOp):
            counts[node.op] = counts.get(node.op, 0) + 1
        elif isinstance(node, UnOp):
            counts[node.op] = counts.get(node.op, 0) + 1
        elif isinstance(node, Select):
            counts[Op.SELECT] = counts.get(Op.SELECT, 0) + 1
    return counts
