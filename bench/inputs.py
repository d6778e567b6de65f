"""Benchmark inputs: fixed sizes and everything derived from ``--seed``.

The program under test only ever receives what these functions return.
``--seed`` shuffles every plan and picks the DSE/search seed; the study
seed is folded into ``STUDY_SEEDS`` values so that ``expected.json`` can
hold the reference objective for every study a run can ask for.
"""

from __future__ import annotations

import os
import random
from dataclasses import replace
from typing import Any, Dict, List, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: The program under test; absent from a checkout that holds only the
#: benchmark, where ``run.py`` must refuse to run.
SRC = os.path.join(ROOT, "src")
DESIGN_DIR = os.path.join(HERE, "designs")

DEFAULT_SEED = 2
#: ``--seed`` maps onto this many distinct DSE / search seeds.
STUDY_SEEDS = 8

SUITES = ("dsp", "machsuite", "vision")
#: Committed overlays (file stems under ``designs/`` = served names).
DESIGNS = ("general", "dsp", "machsuite", "vision")
#: The second General tile count ``serve_cold`` derives at set-up.
COLD_TILES = 2
COLD_DESIGN = f"general-t{COLD_TILES}"

#: Iterations per suite study in ``overlay_gen`` (and for the fixtures).
DSE_ITERATIONS = 40
FIXTURE_ITERATIONS = 100

SEARCH_KERNELS = ("fir", "mm", "bgr2grey")
SEARCH_STRATEGIES = ("bottleneck", "evolutionary", "tpe")
SEARCH_TRIALS = 24
SEARCH_BATCH = 4

SIM_LONG_KERNELS = ("fir", "gemm", "stencil-3d")
#: ``sim_batch_short`` takes the regions shorter than this on General.
SHORT_CYCLES = 11_000
DUPLICATE_SHARE = 0.2
DEPLOY_CHUNKS = 8

SERVE_OPS = ("map", "estimate", "simulate")
#: Requests in one ``serve_cold`` pass: a seeded draw from the 168 keys
#: (General at two tile counts x 28 kernels x 3 ops), sized so that a
#: fresh server per rep still leaves room for three reps in the time box.
COLD_KEYS = 72
COLD_CHUNKS = 6


def study_seed(seed: int) -> int:
    return seed % STUDY_SEEDS


def design_path(name: str) -> str:
    return os.path.join(DESIGN_DIR, f"{name}.json")


def cold_design(general: Any) -> Any:
    """General at the second tile count ``serve_cold`` serves."""
    return replace(
        general,
        params=replace(general.params, num_tiles=COLD_TILES),
        name=COLD_DESIGN,
    )


def shuffled(seed: int, salt: str, items: Sequence[Any]) -> List[Any]:
    """``items`` in an order fixed by ``(seed, salt)``."""
    out = list(items)
    random.Random(f"{salt}:{seed}").shuffle(out)
    return out


def deploy_plan(seed: int, kernels: Sequence[str]) -> List[Tuple[str, str]]:
    """Every (design, kernel) pair once, shuffled."""
    return shuffled(
        seed, "deploy", [(d, k) for d in DESIGNS for k in kernels]
    )


def chunked(plan: Sequence[Any], chunks: int) -> List[List[Any]]:
    """Split a plan into ``chunks`` contiguous, near-equal parts."""
    size, extra = divmod(len(plan), chunks)
    out, at = [], 0
    for i in range(chunks):
        end = at + size + (1 if i < extra else 0)
        out.append(list(plan[at:end]))
        at = end
    return [c for c in out if c]


def short_kernels(expected: Dict[str, Any]) -> List[str]:
    """Kernels whose reference run on General is under ``SHORT_CYCLES``."""
    return [
        kernel
        for kernel, want in expected["deploy"]["general"].items()
        if want is not None and want["cycles"] < SHORT_CYCLES
    ]


def batch_plan(seed: int, kernels: Sequence[str]) -> List[str]:
    """The short kernels plus ``DUPLICATE_SHARE`` seeded repeats, shuffled."""
    rng = random.Random(f"batch:{seed}")
    repeats = rng.sample(
        list(kernels), max(1, round(DUPLICATE_SHARE * len(kernels)))
    )
    plan = list(kernels) + repeats
    rng.shuffle(plan)
    return plan


def serve_plan(
    seed: int, designs: Sequence[str], kernels: Sequence[str]
) -> List[Tuple[str, str, str]]:
    """Every (design, kernel, op) key once, shuffled."""
    return shuffled(
        seed,
        "serve",
        [(d, k, op) for d in designs for k in kernels for op in SERVE_OPS],
    )
