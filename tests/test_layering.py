"""Layering: core packages never import orchestration packages, and no
pipeline process imports numpy.

The core (IR → compiler → scheduler → models → simulator → DSE → RTL) is
what the orchestration tiers (engine, jobs, search, serve, cluster,
validate, harness, cli) are built *on*; an import the other way — even a
lazy one inside a function — makes the core unusable without them.

numpy is the ML resource model's (``model/resource/mlp.py`` and
``dataset.py``, which only the report builds): a process that runs the
pipeline, the CLI or the server never pays its ~14 MB.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CORE = (
    "ir", "dfg", "adg", "compiler", "scheduler", "model", "sim", "dse",
    "rtl", "hls", "workloads",
)
ORCHESTRATION = (
    "engine", "jobs", "search", "serve", "cluster", "validate", "harness",
    "cli",
)


def imported_modules(path: Path):
    """Absolute dotted name of every module ``path`` imports, at any
    nesting depth, as ``(lineno, name)``."""
    package = list(path.relative_to(SRC).with_suffix("").parts[:-1])
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = []
            if node.level:
                base = package[: len(package) - node.level + 1]
            if node.module:
                base = base + node.module.split(".")
            # ``from .. import engine`` names the module in the alias.
            for alias in node.names:
                yield node.lineno, ".".join(base + [alias.name])


def upward_imports(path: Path):
    upward = tuple(f"repro.{pkg}." for pkg in ORCHESTRATION)
    return [
        f"{path.relative_to(SRC)}:{lineno} imports {name}"
        for lineno, name in imported_modules(path)
        if f"{name}.".startswith(upward)
    ]


def test_core_packages_do_not_import_orchestration():
    files = [
        path
        for pkg in CORE
        for path in sorted((SRC / "repro" / pkg).rglob("*.py"))
    ]
    assert len(files) > 40  # the scan found the tree
    offenders = [line for path in files for line in upward_imports(path)]
    assert offenders == []


#: Imports every entry tier, then runs a DSE, a simulated batch and a
#: served op on General, in a fresh interpreter.
PIPELINE = """
import sys
import repro, repro.cli, repro.cluster, repro.jobs, repro.search, repro.serve
import repro.validate
from repro.adg import general_overlay
from repro.compiler import generate_variants
from repro.dse import DseConfig, explore
from repro.scheduler import schedule_workload
from repro.serve import ops
from repro.sim import simulate_batch
from repro.workloads import get_suite, get_workload

general = general_overlay()
explore(get_suite("dsp")[:2], DseConfig(iterations=5, seed=0))
fir = generate_variants(get_workload("fir"))
schedule = schedule_workload(fir, general.adg, general.params)
assert simulate_batch([(schedule, general)])[0].cycles > 0
assert ops.single_shot("simulate", general, "fir") is not None
print(sorted(m for m in sys.modules if m.partition(".")[0] == "numpy"))
"""


def test_the_pipeline_never_imports_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PIPELINE],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "[]"
