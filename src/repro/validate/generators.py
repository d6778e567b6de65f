"""Property-based generators for differential validation.

Two generator families feed the fuzzer:

* :func:`random_program` draws a random-but-legal affine loop-nest program
  as a :class:`ProgramSpec` — a pure-data description that builds a real
  :class:`~repro.ir.Workload` on demand and round-trips through JSON, so
  failing cases can be persisted, shrunk, and replayed bit-identically.
* :func:`random_case` pairs a program with a mutated-but-well-formed ADG
  (reusing the DSE's own :mod:`repro.dse.transforms` mutation operators)
  plus random system parameters, producing a complete :class:`FuzzCase`.

All randomness flows through an explicit ``random.Random`` instance; the
same seed always yields the same case stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..adg import ADG, AdgError, SystemParams, adg_from_dict, adg_to_dict
from ..adg.builders import seed_for_workloads
from ..compiler import LoweringError, generate_variants
from ..dse.transforms import TransformFailed, apply_random_transform
from ..ir import (
    Affine,
    BinOp,
    Const,
    Op,
    Select,
    Workload,
    WorkloadBuilder,
    WorkloadError,
    compare,
    dtype_from_name,
)

#: Datatypes the generator draws from (one float, two integer widths —
#: enough to cover the float/int capability split without exploding the
#: per-case search space).
GENERATOR_DTYPES = ("f64", "i64", "i16")

#: Scenario families the program generator draws from, mirroring the
#: workload suites: plain affine nests, predicated control-dominated
#: statements (fsm), deep mul-add chains (tdm), and data-dependent
#: trip counts (irregular).  Affine stays the most common draw.
PROGRAM_FAMILIES = ("affine", "fsm", "tdm", "irregular")

_FAMILY_DRAW = ("affine", "affine", "affine", "fsm", "tdm", "irregular")

#: Binary operators usable between expression terms.
TERM_OPS = ("add", "sub", "mul", "max", "min")

#: Operators legal as explicit reductions (``target op= expr``).
REDUCTION_OPS = ("add", "mul", "max")

_OP_BY_NAME = {
    "add": Op.ADD,
    "sub": Op.SUB,
    "mul": Op.MUL,
    "max": Op.MAX,
    "min": Op.MIN,
}


class GeneratorError(ValueError):
    """Raised when a spec cannot be rebuilt (corrupt corpus entry)."""


# ----------------------------------------------------------------------
# Program specs (pure data, JSON round-trippable)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TermSpec:
    """One leaf of a statement expression: an array load or a constant."""

    kind: str                                    # "load" | "const"
    array: str = ""
    coeffs: Tuple[Tuple[str, int], ...] = ()
    const: int = 0
    value: float = 1.0

    def to_dict(self) -> Dict[str, Any]:
        if self.kind == "const":
            return {"kind": "const", "value": self.value}
        return {
            "kind": "load",
            "array": self.array,
            "coeffs": [list(c) for c in self.coeffs],
            "const": self.const,
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "TermSpec":
        if doc["kind"] == "const":
            return TermSpec(kind="const", value=float(doc["value"]))
        return TermSpec(
            kind="load",
            array=doc["array"],
            coeffs=tuple((v, int(c)) for v, c in doc["coeffs"]),
            const=int(doc["const"]),
        )


@dataclass(frozen=True)
class StatementSpec:
    """One innermost-loop statement as a flat term/operator chain.

    ``reduction`` names an explicit ``target op= expr`` accumulation; when
    None the statement is a plain assignment.
    """

    target_array: str
    target_coeffs: Tuple[Tuple[str, int], ...]
    target_const: int
    terms: Tuple[TermSpec, ...]
    ops: Tuple[str, ...]                         # len(terms) - 1 entries
    reduction: Optional[str] = None
    #: fsm-family predication: when set, the statement's value is
    #: ``pred > 0 ? expr : 0`` (if-converted to ``CMP`` + ``SELECT``).
    predicate: Optional[TermSpec] = None

    def to_dict(self) -> Dict[str, Any]:
        doc = {
            "target_array": self.target_array,
            "target_coeffs": [list(c) for c in self.target_coeffs],
            "target_const": self.target_const,
            "terms": [t.to_dict() for t in self.terms],
            "ops": list(self.ops),
            "reduction": self.reduction,
        }
        # Emitted only when set, so pre-family corpus entries (and their
        # content-addressed fingerprints) are byte-identical.
        if self.predicate is not None:
            doc["predicate"] = self.predicate.to_dict()
        return doc

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "StatementSpec":
        predicate = doc.get("predicate")
        return StatementSpec(
            target_array=doc["target_array"],
            target_coeffs=tuple((v, int(c)) for v, c in doc["target_coeffs"]),
            target_const=int(doc["target_const"]),
            terms=tuple(TermSpec.from_dict(t) for t in doc["terms"]),
            ops=tuple(doc["ops"]),
            reduction=doc.get("reduction"),
            predicate=(
                TermSpec.from_dict(predicate) if predicate is not None else None
            ),
        )


@dataclass(frozen=True)
class ProgramSpec:
    """A serializable affine loop-nest program.

    Arrays are *not* stored with explicit sizes: sizes are derived from the
    maximum index each array can be touched at (coefficients are
    non-negative by construction), so shrinking a trip count automatically
    shrinks the footprint and the spec can never describe an out-of-bounds
    access.
    """

    name: str
    dtype: str
    loops: Tuple[Tuple[str, int], ...]           # (var, trip), outer first
    statement: StatementSpec
    #: irregular-family loops whose trip count is data-dependent at
    #: runtime (the model/sim use the halved effective trip).
    variable_trips: Tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def loop_vars(self) -> Tuple[str, ...]:
        return tuple(v for v, _ in self.loops)

    def _all_terms(self) -> Tuple[TermSpec, ...]:
        terms = self.statement.terms
        if self.statement.predicate is not None:
            terms = terms + (self.statement.predicate,)
        return terms

    def array_names(self) -> Tuple[str, ...]:
        """Referenced arrays, target first, deterministic order."""
        names: List[str] = [self.statement.target_array]
        for term in self._all_terms():
            if term.kind == "load" and term.array not in names:
                names.append(term.array)
        return tuple(names)

    def _max_index(self, coeffs, const) -> int:
        trips = dict(self.loops)
        return const + sum(
            max(0, c) * (trips.get(v, 1) - 1) for v, c in coeffs
        )

    def array_size(self, name: str) -> int:
        """Smallest size covering every access of ``name`` (min 1)."""
        top = 0
        stmt = self.statement
        if stmt.target_array == name:
            top = max(top, self._max_index(stmt.target_coeffs, stmt.target_const))
        for term in self._all_terms():
            if term.kind == "load" and term.array == name:
                top = max(top, self._max_index(term.coeffs, term.const))
        return top + 1

    # ------------------------------------------------------------------
    def build(self) -> Workload:
        """Materialize the spec as a validated :class:`Workload`."""
        try:
            dtype = dtype_from_name(self.dtype)
        except KeyError as exc:
            raise GeneratorError(f"unknown dtype {self.dtype!r}") from exc
        wb = WorkloadBuilder(self.name, suite="fuzz", dtype=dtype)
        declared = {}
        for name in self.array_names():
            declared[name] = wb.array(name, self.array_size(name))
        for var, trip in self.loops:
            if var in self.variable_trips:
                # Data-dependent trip counts serialize the loop (the
                # stream length is only known at runtime), matching how
                # every hand-written irregular workload declares them.
                wb.loop(var, trip, variable_trip=True, parallel=False)
            else:
                wb.loop(var, trip)
        stmt = self.statement
        expr = self._term_expr(declared, stmt.terms[0])
        for op_name, term in zip(stmt.ops, stmt.terms[1:]):
            op = _OP_BY_NAME.get(op_name)
            if op is None:
                raise GeneratorError(f"unknown operator {op_name!r}")
            expr = BinOp(op, expr, self._term_expr(declared, term))
        if stmt.predicate is not None:
            pred = self._term_expr(declared, stmt.predicate)
            expr = Select(compare(pred, Const(0.0)), expr, Const(0.0))
        target = declared[stmt.target_array][
            Affine.of(dict(stmt.target_coeffs), stmt.target_const)
        ]
        try:
            if stmt.reduction is not None:
                op = _OP_BY_NAME.get(stmt.reduction)
                if op is None:
                    raise GeneratorError(
                        f"unknown reduction {stmt.reduction!r}"
                    )
                wb.accumulate(target, expr, op=op)
            else:
                wb.assign(target, expr)
            return wb.build()
        except WorkloadError as exc:
            raise GeneratorError(str(exc)) from exc

    def _term_expr(self, declared, term: TermSpec):
        if term.kind == "const":
            return Const(term.value)
        if term.array not in declared:
            raise GeneratorError(f"term references unknown array {term.array}")
        return declared[term.array][
            Affine.of(dict(term.coeffs), term.const)
        ]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        doc = {
            "name": self.name,
            "dtype": self.dtype,
            "loops": [list(l) for l in self.loops],
            "statement": self.statement.to_dict(),
        }
        # Emitted only when set (see StatementSpec.to_dict).
        if self.variable_trips:
            doc["variable_trips"] = list(self.variable_trips)
        return doc

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "ProgramSpec":
        return ProgramSpec(
            name=doc["name"],
            dtype=doc["dtype"],
            loops=tuple((v, int(t)) for v, t in doc["loops"]),
            statement=StatementSpec.from_dict(doc["statement"]),
            variable_trips=tuple(doc.get("variable_trips", ())),
        )


# ----------------------------------------------------------------------
# Complete fuzz cases
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FuzzCase:
    """One differential test point: a program, an ADG, system parameters."""

    program: ProgramSpec
    adg_doc: Dict[str, Any]
    params: Dict[str, Any] = field(default_factory=dict)
    origin: str = ""                             # seed string that made it

    def adg(self) -> ADG:
        return adg_from_dict(self.adg_doc)

    def system_params(self) -> SystemParams:
        return SystemParams(**self.params) if self.params else SystemParams()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "program": self.program.to_dict(),
            "adg": self.adg_doc,
            "params": dict(self.params),
            "origin": self.origin,
        }

    @staticmethod
    def from_dict(doc: Dict[str, Any]) -> "FuzzCase":
        return FuzzCase(
            program=ProgramSpec.from_dict(doc["program"]),
            adg_doc=doc["adg"],
            params=dict(doc.get("params", {})),
            origin=doc.get("origin", ""),
        )


def case_size(case: FuzzCase) -> int:
    """Rough complexity measure of a case.

    The shrinker only accepts reductions that lower it, and the corpus /
    soak merge use it to pick the most minimal repro among several that
    hit the same failure key — so "smaller" means the same thing
    everywhere a repro competes with another.
    """
    program = case.program
    return (
        len(program.loops) * 64
        + sum(t for _, t in program.loops)
        + len(program.statement.terms) * 16
        + (16 if program.statement.reduction else 0)
        + (16 if program.statement.predicate else 0)
        + len(program.variable_trips) * 8
        + len(case.adg_doc.get("nodes", ())) * 4
        + (8 if case.params else 0)
    )


# ----------------------------------------------------------------------
# Random draws
# ----------------------------------------------------------------------
def _random_index(
    rng: random.Random, loop_vars: Tuple[str, ...]
) -> Tuple[Tuple[Tuple[str, int], ...], int]:
    """A random non-negative affine index over a subset of loop vars.

    The innermost variable is always included with a small coefficient so
    accesses stream (rather than degenerate to per-region constants), and
    outer variables get row-major-style strides.
    """
    coeffs: Dict[str, int] = {}
    inner = loop_vars[-1]
    coeffs[inner] = rng.choice((1, 1, 1, 2))
    stride = 1
    for var in reversed(loop_vars[:-1]):
        if rng.random() < 0.7:
            stride *= rng.choice((4, 8, 16))
            coeffs[var] = stride
    const = rng.choice((0, 0, 0, 1, 2))
    return tuple(sorted(coeffs.items())), const


def random_program(
    rng: random.Random,
    name: str = "fuzz",
    family: Optional[str] = None,
) -> ProgramSpec:
    """Draw one random-but-legal loop-nest program.

    ``family`` picks a scenario family (:data:`PROGRAM_FAMILIES`); by
    default one is drawn from the stream, with plain affine nests the
    most common.  Trip products are capped (≤ ~1k innermost iterations)
    so the cycle-level simulation of every generated case stays fast.
    """
    if family is None:
        family = rng.choice(_FAMILY_DRAW)
    if family not in PROGRAM_FAMILIES:
        raise GeneratorError(f"unknown program family {family!r}")
    dtype = rng.choice(GENERATOR_DTYPES)
    depth = rng.choice((1, 2, 2, 3))
    if family == "irregular" and depth == 1:
        depth = 2  # the variable-trip loop needs an outer accumulator loop
    trips = [rng.choice((4, 8, 16)) for _ in range(depth)]
    while _product(trips) > 1024:
        trips[0] = max(2, trips[0] // 2)
    loops = tuple((f"v{i}", trips[i]) for i in range(depth))
    loop_vars = tuple(v for v, _ in loops)
    variable_trips: Tuple[str, ...] = ()
    if family == "irregular":
        # The innermost trip is data-dependent, like every hand-written
        # irregular workload (crs, ragged-rows, hash-probe, ...).
        variable_trips = (loop_vars[-1],)

    if family == "tdm":
        n_terms = rng.choice((4, 5, 6))  # deep shared-MAC chains
    else:
        n_terms = rng.choice((1, 2, 2, 3))
    n_source_arrays = rng.choice((1, 2))
    sources = [f"a{i}" for i in range(n_source_arrays)]
    terms: List[TermSpec] = []
    for i in range(n_terms):
        if i > 0 and rng.random() < 0.2:
            terms.append(
                TermSpec(kind="const", value=float(rng.choice((2, 3, 5))))
            )
            continue
        coeffs, const = _random_index(rng, loop_vars)
        terms.append(
            TermSpec(
                kind="load",
                array=rng.choice(sources),
                coeffs=coeffs,
                const=const,
            )
        )
    if not any(t.kind == "load" for t in terms):
        coeffs, const = _random_index(rng, loop_vars)
        terms[0] = TermSpec(
            kind="load", array=sources[0], coeffs=coeffs, const=const
        )
    if family == "tdm":
        # Multiply-accumulate texture: alternating mul/add chains.
        ops = tuple(
            ("mul" if i % 2 == 0 else rng.choice(("add", "add", "sub")))
            for i in range(len(terms) - 1)
        )
    else:
        ops = tuple(rng.choice(TERM_OPS) for _ in range(len(terms) - 1))

    predicate: Optional[TermSpec] = None
    if family == "fsm":
        coeffs, const = _random_index(rng, loop_vars)
        predicate = TermSpec(
            kind="load",
            array=rng.choice(sources),
            coeffs=coeffs,
            const=const,
        )

    reduction: Optional[str] = None
    if family == "irregular" or (
        family != "fsm" and rng.random() < 0.3 and depth >= 2
    ):
        # Reduce over the innermost loop: target indexed by outer vars only,
        # row-major so each outer iteration owns a distinct accumulator.
        reduction = rng.choice(REDUCTION_OPS)
        stride = 1
        coeffs = {}
        for var in reversed(loop_vars[:-1]):
            coeffs[var] = stride
            stride *= dict(loops)[var]
        target_coeffs = tuple(sorted(coeffs.items()))
        target_const = 0
    else:
        # Plain assignment: row-major identity over all loops, so every
        # iteration writes a distinct element.
        stride = 1
        coeffs = {}
        for var in reversed(loop_vars):
            coeffs[var] = stride
            stride *= dict(loops)[var]
        target_coeffs = tuple(sorted(coeffs.items()))
        target_const = 0

    statement = StatementSpec(
        target_array="out",
        target_coeffs=target_coeffs,
        target_const=target_const,
        terms=tuple(terms),
        ops=ops,
        reduction=reduction,
        predicate=predicate,
    )
    return ProgramSpec(
        name=name,
        dtype=dtype,
        loops=loops,
        statement=statement,
        variable_trips=variable_trips,
    )


def _product(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


def random_params(rng: random.Random) -> Dict[str, Any]:
    """Random-but-legal system parameters (JSON form)."""
    return {
        "num_tiles": rng.choice((1, 2, 4)),
        "l2_banks": rng.choice((2, 4, 8)),
        "noc_bytes_per_cycle": rng.choice((16, 32)),
    }


def random_adg_doc(
    rng: random.Random,
    workload: Workload,
    max_mutations: int = 6,
) -> Dict[str, Any]:
    """A serialized ADG: a workload-sized seed plus random DSE mutations.

    The seed is guaranteed to schedule the workload's least aggressive
    variant; mutations may (legitimately) break schedulability — the
    oracle records those cases as unschedulable rather than divergent.
    Mutated graphs failing :meth:`ADG.validate` are an invariant
    violation the caller will flag.
    """
    adg = seed_for_workloads([workload], width_bits=rng.choice((128, 256, 512)))
    for _ in range(rng.randint(0, max_mutations)):
        try:
            apply_random_transform(adg, rng)
        except (TransformFailed, AdgError):
            continue
    return adg_to_dict(adg)


def random_case(
    seed: str,
    max_mutations: int = 6,
    name: str = "fuzz",
    family: Optional[str] = None,
) -> FuzzCase:
    """Draw one complete fuzz case from a string seed (fully deterministic).

    Programs that happen not to lower (e.g. a term chain the lowerer cannot
    slice) are redrawn from the same stream, so every returned case is at
    least compilable.  ``family`` pins the program's scenario family; by
    default each redraw picks its own.
    """
    rng = random.Random(seed)
    for _ in range(16):
        program = random_program(rng, name=name, family=family)
        try:
            workload = program.build()
            generate_variants(workload)
        except (GeneratorError, LoweringError):
            continue
        adg_doc = random_adg_doc(rng, workload, max_mutations=max_mutations)
        return FuzzCase(
            program=program,
            adg_doc=adg_doc,
            params=random_params(rng),
            origin=seed,
        )
    raise GeneratorError(f"seed {seed!r}: no lowerable program in 16 draws")
