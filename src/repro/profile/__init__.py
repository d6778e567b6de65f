"""Profiling layer: span tracing and benchmarking.

* :mod:`repro.profile.tracer` — hierarchical span tracer with a
  context-manager API, Chrome-trace export, and ``engine.metrics``
  integration; near-zero overhead when no tracer is installed.
* :mod:`repro.profile.bench` — the ``repro bench`` workloads: fixed-seed
  DSE, simulation and search benchmarks emitting one
  ``BENCH_<kind>.json`` each, with a ``--compare`` regression mode.
  Imported lazily by the CLI (it pulls in the DSE stack); import it as
  ``repro.profile.bench`` explicitly.
"""

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


def drop_memo(config_key: str) -> None:
    """No-op: an explorer holds no cross-run state to drop.

    Its one caller is ``bench/worker.py`` (before every study), which is
    frozen; the name goes with ROADMAP item 4's ``bench/`` debt list.
    """


__all__ = [
    "NULL_SPAN",
    "Span",
    "SpanStat",
    "Tracer",
    "add_counter",
    "current",
    "drop_memo",
    "install",
    "span",
    "tracing",
    "uninstall",
]
