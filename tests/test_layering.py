"""Layering: core packages never import orchestration packages.

The core (IR → compiler → scheduler → models → simulator → DSE → RTL) is
what the orchestration tiers (engine, jobs, search, serve, cluster,
validate, harness, cli) are built *on*; an import the other way — even a
lazy one inside a function — makes the core unusable without them.
"""

import ast
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
