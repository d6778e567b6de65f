"""Regenerate ``bench/designs/*.json`` and ``bench/expected.json``.

The only writer of both.  Run from the repository root::

    python bench/make_fixtures.py

Designs: General from ``general_overlay()``, one ``explore`` (seed 2) per
suite.  Expected outputs: simulated cycles stepped by the *object* core
(the reference loop, ~100x slower than the vector core the benchmark
times), the chosen variant or the unmappable verdict per (overlay,
kernel), the objective of every study a ``--seed`` can select, and the
digest of the canonical ``serve.single_shot`` response per served key.
Takes a few minutes, nearly all of it in the object core.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

import inputs
from check import EXPECTED_PATH, UNMAPPABLE, response_digest

sys.path.insert(0, inputs.SRC)

from repro.adg import general_overlay, load_sysadg, save_sysadg  # noqa: E402
from repro.compiler import generate_variants  # noqa: E402
from repro.dse import DseConfig, explore  # noqa: E402
from repro.scheduler import schedule_workload  # noqa: E402
from repro.search import SearchSettings, run_search  # noqa: E402
from repro.serve import single_shot  # noqa: E402
from repro.sim import simulate_schedule  # noqa: E402
from repro.workloads import all_workloads, get_suite, get_workload  # noqa: E402


def reference_deploy(workload, sysadg, **sim_options):
    """``{variant, cycles}`` from the object core, or ``None`` (unmappable)."""
    schedule = schedule_workload(
        generate_variants(workload), sysadg.adg, sysadg.params
    )
    if schedule is None:
        return None
    result = simulate_schedule(schedule, sysadg, core="object", **sim_options)
    return {"variant": result.variant, "cycles": result.cycles}


def write_designs() -> None:
    os.makedirs(inputs.DESIGN_DIR, exist_ok=True)
    save_sysadg(
        replace(general_overlay(), name="general"),
        inputs.design_path("general"),
    )
    for suite in inputs.SUITES:
        config = DseConfig(
            iterations=inputs.FIXTURE_ITERATIONS, seed=inputs.DEFAULT_SEED
        )
        result = explore(get_suite(suite), config, name=suite)
        save_sysadg(result.sysadg, inputs.design_path(suite))
        print(f"design {suite}: objective {result.choice.objective:.4f}")


def build_expected() -> dict:
    kernels = all_workloads()
    designs = {d: load_sysadg(inputs.design_path(d)) for d in inputs.DESIGNS}
    general = designs["general"]

    deploy = {}
    for name, sysadg in designs.items():
        deploy[name] = {w.name: reference_deploy(w, sysadg) for w in kernels}
        print(f"deploy {name}: done")

    sim_long = {
        k: reference_deploy(get_workload(k), general, exact=True)
        for k in inputs.SIM_LONG_KERNELS
    }
    print("sim_long: done")

    overlay_gen, search_batch = {}, {}
    search_kernels = [get_workload(k) for k in inputs.SEARCH_KERNELS]
    for seed in range(inputs.STUDY_SEEDS):
        studies = {}
        for suite in inputs.SUITES:
            config = DseConfig(iterations=inputs.DSE_ITERATIONS, seed=seed)
            result = explore(get_suite(suite), config, name=suite)
            studies[suite] = {
                "objective": result.choice.objective,
                "kernels": {
                    w.name: reference_deploy(w, result.sysadg)
                    for w in get_suite(suite)
                },
            }
        overlay_gen[str(seed)] = studies
        strategies = {}
        for strategy in inputs.SEARCH_STRATEGIES:
            settings = SearchSettings(
                strategy=strategy,
                trials=inputs.SEARCH_TRIALS,
                batch=inputs.SEARCH_BATCH,
                seed=seed,
                workers=1,
            )
            outcome = run_search(
                search_kernels, DseConfig(seed=seed), settings, store=None
            )
            strategies[strategy] = {
                "objective": outcome.best_trial.objective,
                "feasible": len(outcome.study.feasible_trials()),
            }
        search_batch[str(seed)] = strategies
        print(f"studies for seed {seed}: done")

    responses = {}
    served = dict(designs)
    served[inputs.COLD_DESIGN] = inputs.cold_design(general)
    for name, sysadg in served.items():
        responses[name] = {}
        for w in kernels:
            docs = {}
            for op in inputs.SERVE_OPS:
                doc = single_shot(op, sysadg, w.name)
                docs[op] = UNMAPPABLE if doc is None else response_digest(doc)
            responses[name][w.name] = docs

    return {
        "schema": 1,
        "deploy": deploy,
        "sim_long": sim_long,
        "overlay_gen": overlay_gen,
        "search_batch": search_batch,
        "responses": responses,
    }


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Same interpreter settings as the benchmark's workload processes.
        env = {
            **os.environ,
            "PYTHONHASHSEED": "0",
            "REPRO_KERNEL_CACHE": os.path.join(inputs.HERE, "out", "kernel"),
        }
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    write_designs()
    expected = build_expected()
    with open(EXPECTED_PATH, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
