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
* :mod:`runner` — the pure shard body (``fuzz_run``),
* :mod:`corpus` — the one repro store: a JSON document per minimal repro
  (case + the bands it failed under), its smallest-witness order, its
  replay, and the ``repro validate`` driver (``validate_run``) over it,
* :mod:`soak` — the one campaign loop: sharded, resumable (``repro soak``;
  ``repro fuzz`` is its one-shard, stateless case),
* :mod:`promote` — the store plus a generated pytest module
  (``--promote``).
"""

from .corpus import (
    DivergenceCorpus,
    ValidateReport,
    case_key,
    replay_promoted,
    validate_run,
)
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
    failure_key_of,
    fuzz_run,
    make_failure_key,
)
from .shrinker import ShrinkResult, shrink
from .soak import CampaignConfig, SoakError, SoakReport, soak_run
