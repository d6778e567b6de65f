"""Failing-case minimization (greedy delta debugging).

Given a failing :class:`~repro.validate.generators.FuzzCase` and a
*failure key* function (e.g. "the oracle still reports ``divergence``" or
"invariant ``adg`` still fires"), the shrinker applies a fixed menu of
reductions and keeps any that preserve the failure key:

* drop a whole loop level (the dropped induction variable is pinned to 0),
* halve a trip count,
* drop expression terms (and the reduction marker),
* drop the statement predicate / variable-trip markers (family features),
* prune ADG nodes one at a time,
* reset system parameters to their defaults.

Reductions repeat to a fixpoint under a hard evaluation budget, so
shrinking always terminates even on flaky predicates.  The result is a
minimal repro that still round-trips through JSON — exactly what the
divergence corpus stores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

from ..adg import adg_to_dict
from .generators import FuzzCase, ProgramSpec, case_size

#: Returns a stable failure identifier, or None when the case passes.
FailureKey = Callable[[FuzzCase], Optional[str]]


@dataclass
class ShrinkResult:
    """Outcome of one shrink run."""

    case: FuzzCase               # the minimal repro
    key: str                     # the preserved failure key
    steps: int                   # accepted reductions
    evaluations: int             # predicate calls spent


# ----------------------------------------------------------------------
# Program reductions (each yields candidate smaller specs)
# ----------------------------------------------------------------------
def _without_var(coeffs, var: str):
    return tuple((v, c) for v, c in coeffs if v != var)


def _drop_loops(program: ProgramSpec) -> Iterator[ProgramSpec]:
    if len(program.loops) <= 1:
        return
    for i in range(len(program.loops)):
        var = program.loops[i][0]
        loops = program.loops[:i] + program.loops[i + 1:]
        stmt = program.statement
        new_stmt = replace(
            stmt,
            target_coeffs=_without_var(stmt.target_coeffs, var),
            terms=tuple(
                t if t.kind == "const"
                else replace(t, coeffs=_without_var(t.coeffs, var))
                for t in stmt.terms
            ),
            predicate=(
                None
                if stmt.predicate is None or stmt.predicate.kind == "const"
                else replace(
                    stmt.predicate,
                    coeffs=_without_var(stmt.predicate.coeffs, var),
                )
            ),
            # A reduction over a now-single-level nest may be illegal;
            # keep it only while more than one loop remains.
            reduction=stmt.reduction if len(loops) > 1 else None,
        )
        yield replace(
            program,
            loops=loops,
            statement=new_stmt,
            variable_trips=tuple(
                v for v in program.variable_trips if v != var
            ),
        )


def _halve_trips(program: ProgramSpec) -> Iterator[ProgramSpec]:
    for i, (var, trip) in enumerate(program.loops):
        if trip <= 2:
            continue
        loops = (
            program.loops[:i]
            + ((var, max(2, trip // 2)),)
            + program.loops[i + 1:]
        )
        yield replace(program, loops=loops)


def _drop_terms(program: ProgramSpec) -> Iterator[ProgramSpec]:
    stmt = program.statement
    if len(stmt.terms) <= 1:
        if stmt.reduction is not None:
            yield replace(program, statement=replace(stmt, reduction=None))
        return
    for i in range(len(stmt.terms)):
        terms = stmt.terms[:i] + stmt.terms[i + 1:]
        if not any(t.kind == "load" for t in terms):
            continue
        # Removing term i also removes the operator joining it leftward
        # (term 0 loses the operator to its right instead).
        ops = stmt.ops[1:] if i == 0 else stmt.ops[: i - 1] + stmt.ops[i:]
        yield replace(program, statement=replace(stmt, terms=terms, ops=ops))


def _drop_family_features(program: ProgramSpec) -> Iterator[ProgramSpec]:
    """Strip fsm/irregular family markers: predication, variable trips."""
    if program.statement.predicate is not None:
        yield replace(
            program, statement=replace(program.statement, predicate=None)
        )
    if program.variable_trips:
        yield replace(program, variable_trips=())


_PROGRAM_REDUCTIONS = (
    _drop_family_features,
    _drop_loops,
    _halve_trips,
    _drop_terms,
)


# ----------------------------------------------------------------------
# Case-level reductions
# ----------------------------------------------------------------------
def _program_candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    for reduce_fn in _PROGRAM_REDUCTIONS:
        for program in reduce_fn(case.program):
            yield FuzzCase(
                program=program,
                adg_doc=case.adg_doc,
                params=case.params,
                origin=case.origin,
            )


def _adg_candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    try:
        base = case.adg()
    except Exception:
        return
    for node_id in sorted(base.node_ids()):
        adg = base.clone()
        try:
            adg.remove_node(node_id)
            doc = adg_to_dict(adg)
        except Exception:
            continue
        yield FuzzCase(
            program=case.program,
            adg_doc=doc,
            params=case.params,
            origin=case.origin,
        )


def _param_candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    if case.params:
        yield FuzzCase(
            program=case.program,
            adg_doc=case.adg_doc,
            params={},
            origin=case.origin,
        )


def _candidates(case: FuzzCase) -> Iterator[FuzzCase]:
    yield from _program_candidates(case)
    yield from _param_candidates(case)
    yield from _adg_candidates(case)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def shrink(
    case: FuzzCase,
    failure_key: FailureKey,
    max_evaluations: int = 200,
) -> ShrinkResult:
    """Minimize ``case`` while ``failure_key`` keeps returning the same key.

    The original case must fail (``failure_key(case)`` not None); raises
    ValueError otherwise.
    """
    key = failure_key(case)
    if key is None:
        raise ValueError("shrink() called on a passing case")
    evaluations = 1
    steps = 0
    current = case
    improved = True
    while improved and evaluations < max_evaluations:
        improved = False
        for candidate in _candidates(current):
            if evaluations >= max_evaluations:
                break
            if case_size(candidate) >= case_size(current):
                continue
            evaluations += 1
            if failure_key(candidate) == key:
                current = candidate
                steps += 1
                improved = True
                break                      # restart from the smaller case
    return ShrinkResult(
        case=current, key=key, steps=steps, evaluations=evaluations
    )
