"""Persistent multi-objective studies over evaluated DSE points.

A :class:`Study` is the durable record of one search run: every evaluated
point — objective, modeled seconds, the full LUT/FF/BRAM/DSP vector, the
seed, and the transform lineage that produced it — in global evaluation
order.  Studies are stored content-addressed in the engine's
:class:`~repro.engine.store.ArtifactStore` under a key derived from
(workloads, config, strategy, seed, batch) — worker count is deliberately
excluded, so a pool run and a serial run land on the *same* artifact and
must produce byte-identical contents (the runner guarantees they do).

Alongside the study the store keeps the strategy's snapshot, so an
interrupted run resumes exactly where it stopped and finishes
bit-identical to a run that never stopped.  That pair is the *only*
checkpoint a DSE run has: ``repro dse`` keeps one study per seed here,
whatever the strategy, and ``repro study`` lists them.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..engine.hashing import CODE_SCHEMA_VERSION, canonicalize, fingerprint
from .pareto import (
    DEFAULT_AXES,
    Axis,
    default_reference,
    hypervolume,
    non_dominated,
)

#: Bump when the Trial/Study layout or the export JSON schema changes.
SEARCH_SCHEMA = 1


@dataclass
class Trial:
    """One evaluated search point (scalars only; exported to JSON)."""

    index: int                       # global evaluation order within the study
    strategy: str
    kind: str                        # candidate | genome | params
    lineage: Any                     # JSON-able provenance (genes, params, ...)
    seed: int
    feasible: bool
    objective: Optional[float]
    modeled_seconds: float
    lut: float = 0.0
    ff: float = 0.0
    bram: float = 0.0
    dsp: float = 0.0
    bottleneck: str = ""
    #: In-memory only: the evaluated SystemChoice, handed to the strategy's
    #: ``tell`` and stripped before the trial is persisted/exported.
    choice: Any = field(default=None, repr=False, compare=False)

    def stripped(self) -> "Trial":
        """Copy with the non-serializable payload removed (for the study)."""
        return replace(self, choice=None)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "strategy": self.strategy,
            "kind": self.kind,
            "lineage": self.lineage,
            "seed": self.seed,
            "feasible": self.feasible,
            "objective": self.objective,
            "modeled_seconds": self.modeled_seconds,
            "lut": self.lut,
            "ff": self.ff,
            "bram": self.bram,
            "dsp": self.dsp,
            "bottleneck": self.bottleneck,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, Any]) -> "Trial":
        return cls(**{k: doc[k] for k in cls.__dataclass_fields__ if k in doc})


@dataclass
class Study:
    """The persistent record of one search run."""

    key: str
    strategy: str
    seed: int
    batch: int
    workloads: List[str]
    config_fingerprint: str
    trials: List[Trial] = field(default_factory=list)
    schema: int = SEARCH_SCHEMA

    def feasible_trials(self) -> List[Trial]:
        return [
            t for t in self.trials if t.feasible and t.objective is not None
        ]

    def best_trial(self) -> Optional[Trial]:
        feasible = self.feasible_trials()
        if not feasible:
            return None
        return max(feasible, key=lambda t: (t.objective, -t.index))

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema": self.schema,
            "key": self.key,
            "strategy": self.strategy,
            "seed": self.seed,
            "batch": self.batch,
            "workloads": list(self.workloads),
            "config_fingerprint": self.config_fingerprint,
            "trials": [t.as_dict() for t in self.trials],
        }


def study_key(
    workloads: Sequence[Any],
    config: Any,
    strategy: str,
    seed: int,
    batch: int,
) -> str:
    """Content address of one study.

    Worker/shard counts are excluded on purpose: parallelism layout must
    never change which artifact a study lands on (or its bytes).
    """
    return fingerprint(
        {
            "schema": [CODE_SCHEMA_VERSION, SEARCH_SCHEMA],
            "workloads": [canonicalize(w) for w in workloads],
            "config": canonicalize(config),
            "strategy": strategy,
            "seed": int(seed),
            "batch": int(batch),
        }
    )


# ----------------------------------------------------------------------
# Store persistence
# ----------------------------------------------------------------------
def save_study(store: Any, study: Study, strategy_state: Any = None) -> None:
    """Persist the study plus the strategy snapshot under the study key.

    The payload is normalized through one pickle round-trip first (the
    :class:`~repro.jobs.Checkpointing` idiom) so serial and pool runs of
    the same study write byte-identical artifacts.
    """
    payload = {"study": study, "strategy_state": strategy_state}
    payload = pickle.loads(pickle.dumps(payload))
    store.put(
        study.key,
        payload,
        meta={
            "kind": "study",
            "strategy": study.strategy,
            "seed": study.seed,
            "batch": study.batch,
            "workloads": list(study.workloads),
            "trials": len(study.trials),
            "schema": study.schema,
        },
    )


def load_study(store: Any, key: str) -> Tuple[Optional[Study], Any]:
    """The stored (study, strategy snapshot) for ``key``, or (None, None)."""
    payload = store.get(key)
    if not isinstance(payload, dict) or "study" not in payload:
        return None, None
    study = payload["study"]
    if not isinstance(study, Study) or study.schema != SEARCH_SCHEMA:
        return None, None
    return study, payload.get("strategy_state")


def list_studies(store: Any) -> List[Dict[str, Any]]:
    """Meta rows of every study artifact in the store, sorted by key."""
    rows = []
    for key in store.keys():
        meta = store.meta(key)
        if meta and meta.get("kind") == "study":
            rows.append({"key": key, **meta})
    return sorted(rows, key=lambda r: r["key"])


# ----------------------------------------------------------------------
# Frontier + export
# ----------------------------------------------------------------------
def trial_vector(trial: Trial, axes: Sequence[Axis]) -> List[float]:
    return [float(getattr(trial, axis.name)) for axis in axes]


def frontier_doc(
    study: Study, axes: Sequence[Axis] = DEFAULT_AXES
) -> Dict[str, Any]:
    """The deterministic Pareto-frontier document for a study."""
    senses = [a.sense for a in axes]
    feasible = study.feasible_trials()
    points = [trial_vector(t, axes) for t in feasible]
    front = non_dominated(points, senses)
    reference = default_reference(points, senses)
    front_points = [points[i] for i in front]
    return {
        "schema": SEARCH_SCHEMA,
        "axes": [str(a) for a in axes],
        "reference": reference,
        "hypervolume": hypervolume(front_points, senses, reference),
        "points": [
            {
                "trial": feasible[i].index,
                **{axis.name: points[i][k] for k, axis in enumerate(axes)},
            }
            for i in front
        ],
    }


def export_study(study: Study, axes: Sequence[Axis] = DEFAULT_AXES) -> str:
    """Canonical JSON of the full study plus its Pareto frontier."""
    doc = study.as_dict()
    doc["pareto"] = frontier_doc(study, axes)
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def export_frontier(study: Study, axes: Sequence[Axis] = DEFAULT_AXES) -> str:
    """Canonical JSON of just the Pareto frontier."""
    return json.dumps(frontier_doc(study, axes), sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------------
# Merge
# ----------------------------------------------------------------------
def _trial_content_key(trial: Trial) -> str:
    doc = trial.as_dict()
    doc.pop("index")
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def merge_studies(studies: Sequence[Study]) -> Study:
    """Union of several studies as a new study; deterministic and deduped.

    Input studies are ordered by key, trials are re-indexed in that order,
    and trials identical in everything but index collapse to their first
    occurrence — merging a study with itself is the identity.
    """
    if not studies:
        raise ValueError("nothing to merge")
    ordered = sorted(studies, key=lambda s: s.key)
    key = fingerprint(
        {
            "schema": [CODE_SCHEMA_VERSION, SEARCH_SCHEMA],
            "merged": [s.key for s in ordered],
        }
    )
    seen: Dict[str, bool] = {}
    trials: List[Trial] = []
    for study in ordered:
        for trial in study.trials:
            content = _trial_content_key(trial)
            if content in seen:
                continue
            seen[content] = True
            trials.append(replace(trial, index=len(trials)))
    workloads = sorted({w for s in ordered for w in s.workloads})
    fps = {s.config_fingerprint for s in ordered}
    return Study(
        key=key,
        strategy="merged",
        seed=ordered[0].seed,
        batch=0,
        workloads=workloads,
        config_fingerprint=fps.pop() if len(fps) == 1 else "",
        trials=trials,
    )
