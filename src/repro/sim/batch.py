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

``simulate_workloads_jobs`` lifts the same API onto :mod:`repro.jobs`:
(overlay, workload-name) pairs are sharded with the deterministic
:class:`~repro.jobs.ShardPlan` and each shard worker rebuilds the
design once, schedules its names, and steps them with one
``simulate_batch`` call — the kernel build and design deserialization
amortize per shard instead of per region.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .simulator import SimResult, simulate_schedule

__all__ = ["simulate_batch", "simulate_workloads_jobs"]


def _options(
    onehot_bypass: bool,
    exact: bool,
    max_exact_cycles: int,
    measure_window: int,
    core: Optional[str],
) -> Dict[str, Any]:
    return {
        "onehot_bypass": onehot_bypass,
        "exact": exact,
        "max_exact_cycles": max_exact_cycles,
        "measure_window": measure_window,
        "core": core,
    }


def simulate_batch(
    items: Sequence[Tuple[Any, Any]],
    onehot_bypass: bool = True,
    exact: bool = False,
    max_exact_cycles: int = 200_000,
    measure_window: int = 4_000,
    core: Optional[str] = None,
    dedupe: bool = True,
) -> List[SimResult]:
    """Simulate ``[(schedule, sysadg), ...]`` pairs in one batched pass.

    Results are byte-identical to calling :func:`simulate_schedule` on
    each pair serially with the same options; ``dedupe=True`` (default)
    answers a repeated (same ``sysadg`` object, workload, variant) pair
    with the first stepped instance's result object.
    """
    opts = _options(
        onehot_bypass, exact, max_exact_cycles, measure_window, core
    )
    results: List[SimResult] = []
    seen: Dict[Tuple[int, str, str], SimResult] = {}
    for schedule, sysadg in items:
        # ``items`` keeps every sysadg alive for the call, so ids are
        # unique; options are constant within it.
        key = (id(sysadg), schedule.mdfg.workload, schedule.mdfg.variant)
        result = seen.get(key) if dedupe else None
        if result is None:
            result = seen[key] = simulate_schedule(schedule, sysadg, **opts)
        results.append(result)
    return results


@dataclass(frozen=True)
class _BatchShard:
    """One shard of a jobs-backed batch (module-level: pickles cleanly)."""

    index: int
    design_doc: Dict[str, Any]
    workloads: Tuple[str, ...]
    options: Tuple[Tuple[str, Any], ...]


def _run_batch_shard(job: _BatchShard) -> List[Optional[SimResult]]:
    """Worker entry: rebuild the design once, batch-step the shard."""
    from ..adg import sysadg_from_dict
    from ..compiler import generate_variants
    from ..scheduler import schedule_workload
    from ..workloads import get_workload

    sysadg = sysadg_from_dict(job.design_doc)
    opts = dict(job.options)
    items = []
    slots: List[Optional[int]] = []
    for name in job.workloads:
        schedule = schedule_workload(
            generate_variants(get_workload(name)), sysadg.adg, sysadg.params
        )
        if schedule is None:
            slots.append(None)
        else:
            slots.append(len(items))
            items.append((schedule, sysadg))
    stepped = simulate_batch(items, **opts)
    return [None if s is None else stepped[s] for s in slots]


def simulate_workloads_jobs(
    sysadg: Any,
    workloads: Sequence[str],
    workers: int = 1,
    shards: Optional[int] = None,
    onehot_bypass: bool = True,
    exact: bool = False,
    max_exact_cycles: int = 200_000,
    measure_window: int = 4_000,
    core: Optional[str] = None,
) -> List[Optional[SimResult]]:
    """Batch-simulate named workloads on one overlay via ``repro.jobs``.

    The workload list is split with the shard-count-invariant
    :class:`~repro.jobs.ShardPlan`; each shard runs as one job (serial
    in-process for ``workers=1``, else on the process pool with its
    serial-fallback rule) and amortizes design rebuild + kernel warm-up
    across its shard.  Returns one entry per input name, in input
    order; unmappable workloads yield ``None``.  Results are
    byte-identical for any (workers, shards) split.
    """
    from ..adg import sysadg_to_dict
    from ..jobs import (
        FaultPolicy,
        InProcessExecutor,
        JobRunner,
        ProcessPoolJobExecutor,
        ShardPlan,
    )

    names = list(workloads)
    if not names:
        return []
    shards_n = shards if shards is not None else max(1, int(workers))
    plan = ShardPlan(total=len(names), shards=min(shards_n, len(names)))
    design_doc = sysadg_to_dict(sysadg)
    options = tuple(
        sorted(
            _options(
                onehot_bypass, exact, max_exact_cycles, measure_window, core
            ).items()
        )
    )
    jobs = [
        _BatchShard(
            index=i,
            design_doc=design_doc,
            workloads=tuple(chunk),
            options=options,
        )
        for i, chunk in enumerate(plan.scatter(names))
        if chunk
    ]
    executor = (
        InProcessExecutor()
        if int(workers) <= 1
        else ProcessPoolJobExecutor(int(workers))
    )
    runner = JobRunner(
        executor=executor,
        policy=FaultPolicy(mode="fail"),
        name="sim.batch",
    )
    outcomes = runner.run(
        _run_batch_shard, jobs, label_fn=lambda job: job.index
    )
    results: List[Optional[SimResult]] = []
    for outcome in sorted(outcomes, key=lambda o: o.payload.index):
        results.extend(outcome.result)
    return results
