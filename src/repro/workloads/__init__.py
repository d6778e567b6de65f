"""Evaluation workloads: the 19 of Table II plus post-paper families.

The ``dsp`` / ``machsuite`` / ``vision`` suites reproduce the paper's
Table II exactly (:data:`PAPER_SUITE_NAMES` — the harness pins its
tables and figures to these); the ``fsm`` / ``tdm`` / ``irregular``
suites add the scenario families the related work names —
control-dominated kernels, time-multiplexed DSP-block designs, and
data-dependent trip counts.

Every workload is a factory function returning a fresh :class:`~repro.ir.Workload`;
use :func:`get_workload` / :func:`get_suite` / :func:`all_workloads` for
registry-style access.  Lookup by name goes through a lazily-built index
that raises on duplicate workload names, so a new family cannot silently
shadow an existing kernel.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from ..ir import Workload
from .dsp import DSP_WORKLOADS, cholesky, fft, fir, mm, solver
from .fsm import FSM_WORKLOADS, debounce, edge_count, threshold_fsm
from .irregular import (
    IRREGULAR_WORKLOADS,
    frontier_gather,
    hash_probe,
    ragged_rows,
)
from .machsuite import (
    MACHSUITE_WORKLOADS,
    crs,
    ellpack,
    gemm,
    stencil_2d,
    stencil_3d,
)
from .tdm import TDM_WORKLOADS, biquad_cascade, horner, mac_bank
from .vision import (
    VISION_WORKLOADS,
    accumulate,
    accumulate_squared,
    accumulate_weighted,
    bgr2grey,
    blur,
    channel_extract,
    convert_bit,
    derivative,
    vecmax,
)

#: Suite name -> ordered factory tuple (order matches the paper's figures,
#: then the post-paper families in introduction order).
SUITES: Dict[str, Tuple[Callable[[], Workload], ...]] = {
    "dsp": DSP_WORKLOADS,
    "machsuite": MACHSUITE_WORKLOADS,
    "vision": VISION_WORKLOADS,
    "fsm": FSM_WORKLOADS,
    "tdm": TDM_WORKLOADS,
    "irregular": IRREGULAR_WORKLOADS,
}

SUITE_NAMES = tuple(SUITES)

#: The three suites of the paper's Table II; the experiment harness pins
#: its paper-vs-measured tables to these so new families never shift the
#: reproduced numbers.
PAPER_SUITE_NAMES = ("dsp", "machsuite", "vision")

#: Lazily-built name -> factory index (see :func:`_index`).
_WORKLOAD_INDEX: Dict[str, Callable[[], Workload]] = {}


def _index() -> Dict[str, Callable[[], Workload]]:
    """Build (once) the name index, guarding against duplicate names.

    A duplicate would make :func:`get_workload` silently return
    whichever factory registered first — with six suites that is a real
    hazard, so registration fails loudly instead.
    """
    if not _WORKLOAD_INDEX:
        for suite_name, factories in SUITES.items():
            for factory in factories:
                workload = factory()
                clash = _WORKLOAD_INDEX.get(workload.name)
                if clash is not None and clash is not factory:
                    _WORKLOAD_INDEX.clear()
                    raise ValueError(
                        f"duplicate workload name {workload.name!r} "
                        f"(suite {suite_name!r} collides with an earlier "
                        f"registration)"
                    )
                _WORKLOAD_INDEX[workload.name] = factory
    return _WORKLOAD_INDEX


def get_suite(name: str) -> List[Workload]:
    """Instantiate every workload of a suite, in figure order."""
    try:
        factories = SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; one of {SUITE_NAMES}") from None
    return [f() for f in factories]


def all_workloads() -> List[Workload]:
    """All workloads, suites in registry order (paper suites first)."""
    out: List[Workload] = []
    for name in SUITE_NAMES:
        out.extend(get_suite(name))
    return out


def get_workload(name: str) -> Workload:
    """Instantiate one workload by name (Table II or a new family).

    Only the requested factory runs; the name index is built once and
    cached, instead of instantiating every workload per lookup.
    """
    index = _index()
    try:
        factory = index[name]
    except KeyError:
        known = sorted(index)
        raise KeyError(
            f"unknown workload {name!r}; known: {known}"
        ) from None
    return factory()
