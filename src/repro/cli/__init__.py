"""Command-line interface: ``python -m repro <command>``.

``repro --help`` is the command list.  Each module in :data:`COMMAND_MODULES`
owns one subsystem's commands: its ``add_parsers(sub)`` declares their flags
next to the ``run_*`` handlers that read them; option groups that several
commands take are declared once in :mod:`repro.cli.common`.

Parallelism flag convention (backed by :mod:`repro.jobs`): every command
spells the worker-process count ``-w/--workers`` — an execution detail
that never changes results — and work *splitting* ``--shards`` (also
result-invariant: any shard count merges to identical output).

Expected user errors (unknown workload names, missing files) exit with a
clean one-line message and status 2; programming errors still traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from . import bench, design, dse, serve, validate
from .common import CliError

#: The command modules, in ``repro --help`` order.
COMMAND_MODULES = (design, dse, bench, validate, serve)


def build_parser() -> argparse.ArgumentParser:
    from .. import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="OverGen reproduction: domain-specific overlay generation",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for module in COMMAND_MODULES:
        module.add_parsers(sub)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
