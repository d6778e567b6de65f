"""Profiling layer: the span tracer.

:mod:`repro.profile.tracer` is a hierarchical span tracer with a
context-manager API and scalar counters; near-zero overhead when no
tracer is installed.  The one harness that measures host time is
``bench/`` (``python3 bench/run.py``), which records these spans in its
traced pass; its committed result is ``BENCH_pipeline.json``.
"""

from .tracer import (
    NULL_SPAN,
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
