"""Invariant checker suite.

Each checker inspects one structural property the rest of the stack relies
on and returns a list of :class:`Violation` records (empty = clean):

* :func:`check_adg` — the architecture graph passes its own
  well-formedness validation.
* :func:`check_roundtrip` — serialize → deserialize → serialize is the
  identity on the document form (what the DSE cache and the divergence
  corpus both depend on).
* :func:`check_schedule` — the schedule is legal on its ADG, by the
  scheduler's one rule (:func:`repro.scheduler.schedule_violations`):
  placed hardware exists and is capable and wide enough, every route link
  exists, routes start and end on the placements and hop only through
  switches, links carry one value each, PEs hold one node each.
* :func:`check_resources` — the analytic resource estimate is finite and
  non-negative in every column.

:func:`check_case` bundles them for one fuzz case; the fuzz runner and
``repro validate`` both call into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..adg import ADG, AdgError, adg_from_dict, adg_to_dict
from ..model.resource import AnalyticEstimator
from ..scheduler import Schedule, schedule_violations


@dataclass(frozen=True)
class Violation:
    """One failed invariant."""

    invariant: str               # "adg" | "roundtrip" | "schedule" | "resources"
    detail: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"[{self.invariant}] {self.detail}"


# ----------------------------------------------------------------------
# Individual checkers
# ----------------------------------------------------------------------
def check_adg(adg: ADG) -> List[Violation]:
    """The graph satisfies its own structural validation."""
    try:
        adg.validate()
    except AdgError as exc:
        return [Violation("adg", str(exc))]
    return []


def check_roundtrip(adg: ADG) -> List[Violation]:
    """serialize ∘ deserialize is the identity on the document form."""
    try:
        doc = adg_to_dict(adg)
        again = adg_to_dict(adg_from_dict(doc))
    except (AdgError, KeyError, TypeError, ValueError) as exc:
        return [Violation("roundtrip", f"serialization failed: {exc}")]
    if doc != again:
        return [Violation("roundtrip", "adg_to_dict(adg_from_dict(d)) != d")]
    return []


def check_schedule(schedule: Schedule, adg: ADG) -> List[Violation]:
    """Every :func:`~repro.scheduler.schedule_violations` finding."""
    return [
        Violation("schedule", str(f)) for f in schedule_violations(schedule, adg)
    ]


def check_resources(adg: ADG) -> List[Violation]:
    """The analytic per-tile resource estimate is finite and non-negative."""
    try:
        res = AnalyticEstimator().tile(adg)
    except Exception as exc:  # estimator crash is itself a violation
        return [Violation("resources", f"estimator raised: {exc}")]
    out: List[Violation] = []
    for column in ("lut", "ff", "bram", "dsp"):
        value = getattr(res, column)
        if not (value >= 0) or value != value or value == float("inf"):
            out.append(
                Violation("resources", f"{column} estimate is {value!r}")
            )
    return out


# ----------------------------------------------------------------------
# Bundled entry point
# ----------------------------------------------------------------------
def check_case(
    adg: ADG, schedule: Optional[Schedule] = None
) -> List[Violation]:
    """All structural invariants for one case.

    ``schedule`` may be None (unschedulable cases still get their ADG
    checked).
    """
    out = check_adg(adg)
    out += check_roundtrip(adg)
    out += check_resources(adg)
    if schedule is not None:
        out += check_schedule(schedule, adg)
    return out
