"""What the benchmark reports: ``BENCHMARK.json`` plus the end-to-end
metrics that only some workloads have.

``BENCHMARK.json`` (repository root) is the contract other tooling
reads: the run shape, the workloads with their reasons, the end-to-end
metrics every workload reports, and the per-layer metrics.  A metric that
does not apply to every workload (per-op latency needs ops that can be
timed one by one, a simulation rate needs simulate calls, ...) cannot be
listed there, so it is declared here with the workloads it applies to;
``run.py`` prints and stores both kinds and ``compare.py`` judges both.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Tuple

from inputs import ROOT

BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

_SIM = ("sim_long", "sim_batch_short")
_LATENCY = ("deploy_sweep", "serve_hot", "serve_cold")

#: End-to-end metrics that apply to some workloads only.  ``bound`` has
#: the meaning it has in ``BENCHMARK.json``; ``failed_share`` may not
#: rise at all.
PARTIAL_END_TO_END: List[Dict[str, Any]] = [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "workloads": _LATENCY},
    {"name": "op_p95_ms", "unit": "ms", "better": "lower", "bound": 0.25,
     "workloads": _LATENCY},
    {"name": "sim_cycles_per_s", "unit": "cycles/s", "better": "higher",
     "bound": 0.25, "workloads": _SIM},
    {"name": "overlay_objective", "unit": "IPC", "better": "higher",
     "bound": 0.01, "workloads": ("overlay_gen", "search_batch")},
    {"name": "geomean_sim_cycles", "unit": "cycles", "better": "lower",
     "bound": 0.01,
     "workloads": ("overlay_gen", "deploy_sweep") + _SIM},
    {"name": "failed_share", "unit": "share", "better": "lower",
     "bound": 0.0, "workloads": None},
]

#: Reps a run makes even when the time box is already over.
MIN_REPS = {"serve_cold": 2}
DEFAULT_MIN_REPS = 3


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_PATH) as f:
        return json.load(f)


def end_to_end_specs(benchmark: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Every end-to-end metric; ``workloads`` is None when all report it."""
    everywhere = [
        {**entry, "workloads": None} for entry in benchmark["end_to_end"]
    ]
    return everywhere + PARTIAL_END_TO_END


def applies(spec: Dict[str, Any], workload: str) -> bool:
    return spec["workloads"] is None or workload in spec["workloads"]


def workload_names(benchmark: Dict[str, Any]) -> Tuple[str, ...]:
    return tuple(w["name"] for w in benchmark["workloads"])
