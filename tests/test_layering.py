"""Layering: the import graph runs one way, core packages never import
orchestration packages, and no pipeline process imports numpy.

The package graph is acyclic, in this layer order (a package imports only
packages before it):

    ir, profile → dfg, workloads, jobs → compiler → adg → model →
    scheduler → sim, rtl, hls → dse → engine → validate, serve, search →
    cluster → harness → cli

so the compiler builds variants without the ADG, the scheduler (and its
mapping advisor) maps them, the DSE edits the ADG, and ``engine`` is
persistence and telemetry (hashing, store, registry, metrics) under the
search, serve and cluster tiers.  The module graph is acyclic too, and
every ``repro`` import sits at its module's top: nothing needs a lazy
import, a ``TYPE_CHECKING`` block or a package ``__getattr__`` to load.
The CLI is the one exception: its command bodies import their tier
lazily, so ``repro <cmd>`` loads only what that command runs.

The core (IR → compiler → scheduler → models → simulator → DSE → RTL) is
what the orchestration tiers (engine, jobs, search, serve, cluster,
validate, harness, cli) are built *on*; an import the other way makes
the core unusable without them.

numpy is the ML resource model's (``model/resource/mlp.py`` and
``dataset.py``, which only the report builds): a process that runs the
pipeline, the CLI or the server never pays its ~14 MB.
"""

import ast
import os
import subprocess
import sys
from functools import lru_cache
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


@lru_cache(maxsize=None)
def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), str(path))


def imported_modules(path: Path):
    """Absolute dotted name of every module ``path`` imports, at any
    nesting depth, as ``(lineno, name)``."""
    package = list(path.relative_to(SRC).with_suffix("").parts[:-1])
    for node in ast.walk(parse(path)):
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



def module_graph():
    """``{module: the modules it imports}`` over ``src/repro``, every
    import at any depth counted.  Importing ``a.b.c`` imports ``a.b`` and
    ``a`` too (their ``__init__`` runs first), except the importer's own
    packages: they are already loading when it runs."""
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    graph = {}
    for name, path in modules.items():
        graph[name] = set()
        for _, imported in imported_modules(path):
            parts = imported.split(".")
            for end in range(1, len(parts) + 1):
                prefix = ".".join(parts[:end])
                if prefix in modules and not f"{name}.".startswith(
                    f"{prefix}."
                ):
                    graph[name].add(prefix)
    return graph


def package_graph(graph):
    """``graph`` collapsed onto the top-level ``repro`` packages."""
    packages = {}
    for name, imported in graph.items():
        if "." in name:
            package = name.split(".")[1]
            packages.setdefault(package, set()).update(
                other.split(".")[1]
                for other in imported
                if "." in other and other.split(".")[1] != package
            )
    return packages


def cycles(graph):
    """The strongly connected components of ``graph`` that hold a cycle,
    each as a sorted tuple."""
    reach = {}
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            node = todo.pop()
            if node not in seen:
                seen.add(node)
                todo.extend(graph.get(node, ()))
        reach[start] = seen
    return sorted({
        tuple(sorted(other for other in reach[node] if node in reach[other]))
        for node in graph
        if node in reach[node]
    })


def test_no_import_cycles():
    witness = {"a": {"b"}, "b": {"a", "c"}, "c": {"c.d"}, "c.d": set()}
    assert cycles(witness) == [("a", "b")]
    graph = module_graph()
    assert len(graph) > 100  # the scan found the tree
    # ``from ..engine.metrics import`` loads ``repro.engine`` first; the
    # importer's own package is already loading.
    imported = graph["repro.serve.server"]
    assert {"repro.engine", "repro.engine.metrics"} <= imported
    assert "repro.serve" not in imported
    assert cycles(graph) == []
    assert cycles(package_graph(graph)) == []


def late_imports(tree: ast.Module):
    """Line of every ``repro`` import that is not a statement of the
    module body, and of every ``TYPE_CHECKING`` block."""
    top = {id(node) for node in tree.body}
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.dump(node.test):
            yield node.lineno
        elif id(node) in top:
            continue
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("repro")
        ):
            yield node.lineno
        elif isinstance(node, ast.Import) and any(
            alias.name.partition(".")[0] == "repro" for alias in node.names
        ):
            yield node.lineno


def test_imports_are_at_module_top():
    """Outside ``cli/``: the CLI's command bodies keep their lazy imports,
    so ``repro <cmd>`` loads only its own tier."""
    witness = ast.parse(
        "from typing import TYPE_CHECKING\nfrom .a import b\n"
        "if TYPE_CHECKING:\n    from .c import d\n"
        "def f():\n    import json\n    import repro.e\n"
        "    from ..g import h\n"
    )
    assert sorted(late_imports(witness)) == [3, 4, 7, 8]
    cli = SRC / "repro" / "cli"
    files = [
        path
        for path in sorted((SRC / "repro").rglob("*.py"))
        if cli not in path.parents
    ]
    assert len(files) > 100  # the scan found the tree
    offenders = [
        f"{path.relative_to(SRC)}:{line}"
        for path in files
        for line in late_imports(parse(path))
    ]
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
