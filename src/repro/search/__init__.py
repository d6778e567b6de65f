"""repro.search — pluggable DSE strategies + persistent Pareto studies.

The annealer becomes one strategy among several behind a batched
``ask(n)/tell(trials)/snapshot()`` protocol (serial is just batch=1):

* :mod:`~repro.search.anneal` — a driver over the step API of
  :class:`repro.dse.Explorer`, byte-identical to ``Explorer.run``;
* :mod:`~repro.search.bottleneck` — greedy repair guided by the perf
  model's dominant bottleneck class;
* :mod:`~repro.search.evolutionary` — mutation + crossover over ADG
  transform-sequence genomes;
* :mod:`~repro.search.tpe` — a dependency-free tree-structured Parzen
  estimator over the parameter grid.

Every evaluated point lands in a persistent, resumable
:class:`~repro.search.study.Study` (content-addressed in the engine
store); :mod:`~repro.search.pareto` supplies the non-dominated frontier and
hypervolume on top, and :mod:`~repro.search.report` renders the
self-contained HTML report.  Proposals fan out through
:mod:`repro.jobs`, so pool and serial runs produce identical studies.
:func:`~repro.search.runner.shootout` runs every strategy on one trial
budget: the deterministic ``repro bench`` report, ``BENCH_search.json``.
:class:`~repro.search.seeds.DseEngine` runs one study per seed in
parallel, cached in the engine store (``repro dse``).
"""

from .pareto import (
    DEFAULT_AXES,
    Axis,
    default_reference,
    dominates,
    hypervolume,
    non_dominated,
    parse_axis,
)
from .report import render_html
from .strategy import (
    Proposal,
    SearchContext,
    SearchError,
    Strategy,
    make_strategy,
    register,
    stable_rng,
    strategy_names,
)
from .study import (
    SEARCH_SCHEMA,
    Study,
    Trial,
    export_frontier,
    export_study,
    frontier_doc,
    list_studies,
    load_study,
    merge_studies,
    save_study,
    study_key,
)

# Importing the strategy modules registers them.
from .anneal import AnnealStrategy
from .bottleneck import BottleneckStrategy
from .evolutionary import EvolutionaryStrategy
from .tpe import TpeStrategy
from .runner import SearchOutcome, SearchSettings, run_search, shootout
from .seeds import DseEngine, EngineError
