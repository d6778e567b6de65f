"""``simulate_batch``: step many (schedule, overlay) pairs in one pass.

This is the shape the layers above the simulator actually consume:
``repro.serve``'s simulate op answers per-overlay workload sets, soak
campaigns replay thousands of fuzz regions, and DSE trial batches score
many candidates against the same workload list.  One batch call

* shares the compiled stepping kernel (``simulate_schedule`` compiles
  and ``dlopen``s it process-globally on first vector use, so the first
  region pays and the rest reuse it),
* answers a repeated (same overlay object, workload, variant) pair
  from the first stepped instance — an identity key, because
  fingerprinting overlay *content* costs ~35 ms per item, more than
  the 0.5–4 ms re-simulation it could save — and
* returns results byte-identical to N serial ``simulate_schedule``
  calls (golden-tested), so callers can swap loops for batches without
  re-validating anything.

``simulate_batch`` is the one batched-sim entry point: a batch of one is
the serial case, and a caller that wants processes shards its own work
through :mod:`repro.jobs` and calls this inside each job.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from .simulator import SimResult, simulate_schedule

__all__ = ["simulate_batch"]


def simulate_batch(
    items: Sequence[Tuple[Any, Any]],
    *,
    dedupe: bool = True,
    **options: Any,
) -> List[SimResult]:
    """Simulate ``[(schedule, sysadg), ...]`` pairs in one batched pass.

    ``options`` are :func:`simulate_schedule`'s keywords (its defaults
    are the only defaults); results are byte-identical to calling it on
    each pair serially with the same options.  ``dedupe=True`` (default)
    answers a repeated (same ``sysadg`` object, workload, variant) pair
    with the first stepped instance's result object.
    """
    results: List[SimResult] = []
    seen: Dict[Tuple[int, str, str], SimResult] = {}
    for schedule, sysadg in items:
        # ``items`` keeps every sysadg alive for the call, so ids are
        # unique; options are constant within it.
        key = (id(sysadg), schedule.mdfg.workload, schedule.mdfg.variant)
        result = seen.get(key) if dedupe else None
        if result is None:
            result = seen[key] = simulate_schedule(
                schedule, sysadg, **options
            )
        results.append(result)
    return results
