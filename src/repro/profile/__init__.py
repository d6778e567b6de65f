"""Profiling layer: span tracing, result memoization, benchmarking.

* :mod:`repro.profile.tracer` — hierarchical span tracer with a
  context-manager API, Chrome-trace export, and ``engine.metrics``
  integration; near-zero overhead when no tracer is installed.
* :mod:`repro.profile.memo` — config-scoped memoization of schedule
  results keyed by ADG content fingerprints.
* :mod:`repro.profile.bench` — the ``repro bench`` workloads: fixed-seed
  DSE + simulation benchmarks emitting ``BENCH_dse.json`` /
  ``BENCH_sim.json`` with a ``--compare`` regression mode.  Imported
  lazily by the CLI (it pulls in the DSE stack); import it as
  ``repro.profile.bench`` explicitly.
"""

from .memo import (
    MemoStats,
    ResultMemo,
    clear_memos,
    drop_memo,
    memo_for_config,
)
from .tracer import (
    NULL_SPAN,
    Span,
    SpanStat,
    Tracer,
    add_counter,
    current,
    install,
    span,
    tracing,
    uninstall,
)

__all__ = [
    "MemoStats",
    "NULL_SPAN",
    "ResultMemo",
    "Span",
    "SpanStat",
    "Tracer",
    "add_counter",
    "clear_memos",
    "current",
    "drop_memo",
    "install",
    "memo_for_config",
    "span",
    "tracing",
    "uninstall",
]
