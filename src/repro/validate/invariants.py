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
* :func:`check_edit_scope` — after a DSE move that removes or replaces
  something (one per case) on a clone of the ADG, rung 0's walk of only
  what the edit touched finds what the full walk finds, and rung 0
  accepts exactly when the full walk finds nothing.
* :func:`check_resources` — the analytic resource estimate is finite and
  non-negative in every column.

:func:`check_case` bundles them for one fuzz case; the fuzz runner and
``repro validate`` both call into it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..adg import ADG, AdgError, SystemParams, adg_from_dict, adg_to_dict
from ..dse.transforms import (
    RANDOM_TRANSFORMS,
    TransformFailed,
    collapse_random_switch,
    prune_capabilities,
)
from ..model.resource import AnalyticEstimator
from ..scheduler import Schedule, hardware_violations, revalidate_schedule
from ..scheduler import schedule_violations
from ..scheduler.legality import Finding


@dataclass(frozen=True)
class Violation:
    """One failed invariant."""

    invariant: str  # "adg"|"roundtrip"|"schedule"|"edit_scope"|"resources"
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


#: The DSE's moves, by name: every random transform, then the two
#: schedule-preserving ones (a collapse rewrites the schedule it keeps).
SCOPE_MOVES: Dict[str, Callable[[ADG, Schedule, random.Random], object]] = {
    **{op.__name__: lambda adg, s, rng, op=op: op(adg, rng)
       for op in RANDOM_TRANSFORMS},
    "collapse_random_switch":
        lambda adg, s, rng: collapse_random_switch(adg, [s], rng),
    "prune_capabilities": lambda adg, s, rng: prune_capabilities(adg, [s]),
}
#: The moves that can take something away (remove or replace a node,
#: remove a link): all but the four that only add, which a footprint
#: never records.
TAKING_MOVES = tuple(
    name for name in SCOPE_MOVES
    if name not in ("add_pe", "add_switch", "add_fabric_link", "add_port")
)
#: The :func:`edit_scope_outcomes` where the scoped walk is wrong.
DISAGREEMENTS = ("false_accept", "false_reject", "mismatch")


def edit_scope_outcomes(
    schedule: Schedule, adg: ADG, seed: object = 0, moves: Sequence[str] = ()
) -> Iterator[Tuple[str, str]]:
    """``(move, outcome)`` for each of ``moves`` (default: every one of
    :data:`SCOPE_MOVES`), applied once (seeded by ``seed`` and its name) to
    a clone of ``adg`` and a clone of ``schedule`` found clean on it.  The
    scoped findings equal the full walk's and rung 0 accepts exactly when
    the full walk finds nothing: ``kept`` (nothing found) or ``broken``;
    else ``false_accept``, ``false_reject`` or ``mismatch``;
    ``inapplicable`` when the move does not apply.  Nothing when
    ``schedule`` is not clean on ``adg``."""
    params = SystemParams()
    clean = schedule.clone()
    if next(hardware_violations(clean, adg), None) is not None:
        return
    clean.clean_at = adg.stamp
    for name in moves or SCOPE_MOVES:
        edited, probe = adg.clone(), clean.clone()
        try:
            SCOPE_MOVES[name](edited, probe, random.Random(f"{seed}/{name}"))
        except (TransformFailed, AdgError):
            yield name, "inapplicable"
            continue
        full = list(hardware_violations(probe, edited))
        scoped: List[Finding] = []
        kept = revalidate_schedule(probe, edited, params, scoped) is not None
        if kept == bool(full):
            yield name, "false_accept" if kept else "false_reject"
        elif scoped != full:
            yield name, "mismatch"
        else:
            yield name, "kept" if kept else "broken"


def check_edit_scope(schedule: Schedule, adg: ADG) -> List[Violation]:
    """The disagreement, if any, of :func:`edit_scope_outcomes` for one
    :data:`TAKING_MOVES` move that applies: the ADG's edit count picks
    where the rotation through them starts, and the seed."""
    start = adg.version % len(TAKING_MOVES)
    moves = TAKING_MOVES[start:] + TAKING_MOVES[:start]
    for move, outcome in edit_scope_outcomes(schedule, adg, adg.version, moves):
        if outcome in DISAGREEMENTS:
            return [Violation("edit_scope", f"{move}: {outcome}")]
        if outcome != "inapplicable":
            break
    return []


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
        out += check_edit_scope(schedule, adg)
    return out
