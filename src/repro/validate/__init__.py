"""Differential model-vs-simulator validation (fuzzing, invariants, corpus).

The paper justifies its DSE objective by validating the bottleneck
performance model against cycle-level simulation; this package turns that
one-off validation into a regression-tested property:

* :mod:`generators` — seeded random affine programs + mutated ADGs,
* :mod:`invariants` — structural checks (ADG, round-trip, schedule legality,
  resource estimates),
* :mod:`oracle` — the model-vs-simulator differential comparison with
  per-bottleneck-class tolerance bands,
* :mod:`shrinker` — greedy minimization of failing cases,
* :mod:`corpus` — the one repro store: a JSON document per minimal repro
  (case + the bands it failed under), its smallest-witness order, its
  replay,
* :mod:`runner` — the pure shard body (``fuzz_run``) and the ``repro
  validate`` driver,
* :mod:`soak` — the one campaign loop: sharded, resumable (``repro soak``;
  ``repro fuzz`` is its one-shard, stateless case),
* :mod:`promote` — the store plus a generated pytest module
  (``--promote``).
"""

from .corpus import DivergenceCorpus, case_key, replay_promoted
from .generators import (
    PROGRAM_FAMILIES,
    FuzzCase,
    GeneratorError,
    ProgramSpec,
    StatementSpec,
    TermSpec,
    case_size,
    random_case,
    random_program,
)
from .invariants import (
    Violation,
    check_adg,
    check_case,
    check_resources,
    check_roundtrip,
    check_schedule,
)
from .oracle import (
    OracleResult,
    ToleranceBands,
    classify_bottleneck,
    run_oracle,
)
from .promote import promote_failures
from .runner import (
    CaseRecord,
    Failure,
    FuzzStats,
    ValidateReport,
    failure_key_of,
    fuzz_run,
    make_failure_key,
    validate_run,
)
from .shrinker import ShrinkResult, shrink
from .soak import CampaignConfig, SoakError, SoakReport, soak_run

__all__ = [
    "CampaignConfig",
    "CaseRecord",
    "DivergenceCorpus",
    "Failure",
    "FuzzCase",
    "FuzzStats",
    "GeneratorError",
    "OracleResult",
    "ProgramSpec",
    "ShrinkResult",
    "SoakError",
    "SoakReport",
    "StatementSpec",
    "TermSpec",
    "ToleranceBands",
    "ValidateReport",
    "Violation",
    "case_key",
    "case_size",
    "check_adg",
    "check_case",
    "check_resources",
    "check_roundtrip",
    "check_schedule",
    "classify_bottleneck",
    "failure_key_of",
    "fuzz_run",
    "make_failure_key",
    "promote_failures",
    "PROGRAM_FAMILIES",
    "random_case",
    "random_program",
    "replay_promoted",
    "run_oracle",
    "shrink",
    "soak_run",
    "validate_run",
]
