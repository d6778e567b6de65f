"""The shard body of a fuzz campaign.

:func:`fuzz_run` draws ``budget`` cases from a seed, pushes each through
the differential oracle and the invariant checkers, shrinks every failure
to a minimal repro, and aggregates :class:`FuzzStats` (max/mean relative
error and pass rate per bottleneck class).  It is pure — no store, no
events: :mod:`repro.validate.soak` runs it once per shard (``repro fuzz``
is the one-shard campaign), merges, and records.  All randomness derives
from the seed and nothing it returns holds a wall-clock value, so
identical seeds reproduce identical reports byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..profile.tracer import span
from .generators import FuzzCase, GeneratorError, random_case
from .invariants import Violation, check_case
from .oracle import OracleResult, ToleranceBands, run_oracle
from .shrinker import shrink

#: Outcomes that contribute a row to the per-class accuracy table.
_CLASSED_OUTCOMES = ("ok", "divergence", "nonfinite")


#: Aggregated per-bottleneck-class accuracy.
@dataclass
class ClassStats:
    cases: int = 0
    passed: int = 0
    nonfinite: int = 0
    max_rel_error: float = 0.0
    _rel_error_sum: float = 0.0

    def record(self, rel_error: float, passed: bool) -> None:
        self.cases += 1
        if not math.isfinite(rel_error):
            # An infinite/NaN relative error carries no accuracy signal;
            # folding it into the sum/max would poison the aggregates
            # (and round(inf) later emits non-strict JSON).
            self.nonfinite += 1
            return
        self.passed += int(passed)
        self.max_rel_error = max(self.max_rel_error, rel_error)
        self._rel_error_sum += rel_error

    @property
    def mean_rel_error(self) -> float:
        finite = self.cases - self.nonfinite
        return self._rel_error_sum / finite if finite else 0.0

    @property
    def pass_rate(self) -> float:
        return self.passed / self.cases if self.cases else 1.0


@dataclass
class Failure:
    """One failing case, after shrinking."""

    failure_key: str
    case: FuzzCase
    shrink_steps: int = 0
    violations: List[str] = field(default_factory=list)
    summary: Dict = field(default_factory=dict)


@dataclass(frozen=True)
class CaseRecord:
    """One case's verdict, keyed by its global case index.

    A sharded campaign replays these records in index order to rebuild
    the exact aggregate a serial run would have produced — including the
    float accumulation order, so merged reports are byte-identical
    regardless of how the seed range was split.
    """

    index: int
    outcome: str
    klass: str
    rel_error: float
    violations: int


@dataclass
class FuzzStats:
    """Everything one fuzz run learned."""

    budget: int
    seed: int
    start: int = 0
    outcomes: Dict[str, int] = field(default_factory=dict)
    by_class: Dict[str, ClassStats] = field(default_factory=dict)
    invariant_violations: int = 0
    failures: List[Failure] = field(default_factory=list)
    records: List[CaseRecord] = field(default_factory=list)

    def count(self, outcome: str) -> None:
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1

    def observe(
        self,
        index: int,
        outcome: str,
        klass: str,
        rel_error: float,
        violations: int,
    ) -> None:
        """Fold one case verdict into the aggregates and keep its record
        (the single code path shared by the live fuzz loop and the soak
        shard merge)."""
        self.count(outcome)
        self.invariant_violations += violations
        if outcome in _CLASSED_OUTCOMES:
            self.by_class.setdefault(klass, ClassStats()).record(
                rel_error, outcome == "ok"
            )
        self.records.append(
            CaseRecord(
                index=index,
                outcome=outcome,
                klass=klass,
                rel_error=rel_error,
                violations=violations,
            )
        )

    @property
    def compared(self) -> int:
        return self.outcomes.get("ok", 0) + self.outcomes.get("divergence", 0)

    def stats_doc(self) -> Dict:
        return {
            "budget": self.budget,
            "seed": self.seed,
            "start": self.start,
            "outcomes": dict(sorted(self.outcomes.items())),
            "invariant_violations": self.invariant_violations,
            "by_class": {
                name: {
                    "cases": s.cases,
                    "pass_rate": round(s.pass_rate, 4),
                    "nonfinite": s.nonfinite,
                    "max_rel_error": round(s.max_rel_error, 4),
                    "mean_rel_error": round(s.mean_rel_error, 4),
                }
                for name, s in sorted(self.by_class.items())
            },
        }


# ----------------------------------------------------------------------
# Failure-key computation (shared by fuzz and shrinking)
# ----------------------------------------------------------------------
def _evaluate(
    case: FuzzCase, bands: ToleranceBands
) -> "tuple[OracleResult, List[Violation]]":
    result = run_oracle(case, bands)
    violations = (
        check_case(result.adg, result.schedule)
        if result.adg is not None
        else []
    )
    return result, violations


def failure_key_of(
    result: OracleResult, violations: List[Violation]
) -> Optional[str]:
    """Stable identifier of what went wrong (None = case passes)."""
    if violations:
        return f"invariant:{violations[0].invariant}"
    if result.outcome == "divergence":
        return f"divergence:{result.bottleneck_class}"
    if result.outcome == "nonfinite":
        return f"nonfinite:{result.bottleneck_class}"
    if result.outcome == "sim_error":
        return "sim_error"
    return None


def make_failure_key(bands: ToleranceBands):
    """A shrinker predicate closed over the tolerance bands."""

    def predicate(case: FuzzCase) -> Optional[str]:
        try:
            result, violations = _evaluate(case, bands)
        except Exception:
            return None                     # a crash is a different failure
        return failure_key_of(result, violations)

    return predicate


# ----------------------------------------------------------------------
# Fuzz driver
# ----------------------------------------------------------------------
def fuzz_run(
    budget: int,
    seed: int,
    bands: Optional[ToleranceBands] = None,
    max_mutations: int = 6,
    shrink_budget: int = 120,
    start: int = 0,
) -> FuzzStats:
    """Generate/check/shrink ``budget`` cases from ``seed``.

    ``start`` offsets the global case index: case ``i`` always derives
    from the seed string ``"{seed}:{i}"``, so a sharded campaign running
    ``(start=0, budget=5)`` and ``(start=5, budget=5)`` draws exactly the
    cases a serial ``(start=0, budget=10)`` run would.
    """
    bands = bands or ToleranceBands()
    stats = FuzzStats(budget=budget, seed=seed, start=start)
    predicate = make_failure_key(bands)

    for i in range(start, start + budget):
        try:
            case = random_case(f"{seed}:{i}", max_mutations=max_mutations)
        except GeneratorError:
            stats.observe(i, "generator_exhausted", "", 0.0, 0)
            continue
        result, violations = _evaluate(case, bands)
        stats.observe(
            i,
            result.outcome,
            result.bottleneck_class,
            result.rel_error,
            len(violations),
        )

        key = failure_key_of(result, violations)
        if key is None:
            continue
        with span("fuzz.shrink", failure_key=key):
            shrunk = shrink(case, predicate, max_evaluations=shrink_budget)
        stats.failures.append(
            Failure(
                failure_key=key,
                case=shrunk.case,
                shrink_steps=shrunk.steps,
                violations=[str(v) for v in violations],
                summary=result.stats_doc(),
            )
        )
    return stats
