"""Commands over the workload table and one saved design: ``workloads``,
``inspect``, ``map``, ``simulate``, ``rtl``, ``floorplan``, ``advise``,
``report``."""

from __future__ import annotations

import argparse
import sys

from ..workloads import all_workloads
from .common import CliError, load_design, print_design, resolve_workload


def run_workloads(args: argparse.Namespace) -> int:
    from ..ir import IndirectIndex

    for w in all_workloads():
        marks = []
        if w.has_variable_trip:
            marks.append("variable-trip")
        if any(isinstance(i, IndirectIndex) for _, i, _ in w.all_accesses()):
            marks.append("indirect")
        print(
            f"{w.name:12s} {w.suite:10s} {w.size_desc:10s} {w.dtype.name:6s} "
            f"{' '.join(marks)}"
        )
    return 0


def run_inspect(args: argparse.Namespace) -> int:
    from ..adg import render_sysadg

    sysadg = load_design(args.design)
    print_design(sysadg, render_sysadg(sysadg))
    return 0


def run_map(args: argparse.Namespace) -> int:
    """Both output forms render the document ``serve`` answers ``map`` with."""
    from ..serve import canonical_dumps, single_shot

    sysadg = load_design(args.design)
    doc = single_shot("map", sysadg, resolve_workload(args.workload).name)
    if doc is None:
        print(f"{args.workload} does NOT map onto {sysadg.name}")
        return 1
    if args.json:
        print(canonical_dumps(doc))
        return 0
    est = doc["estimate"]
    print(doc["summary"])
    print(f"projected IPC {est['ipc']:.1f}, bottleneck {est['bottleneck']}")
    print(f"configuration: {doc['config_words']} words")
    return 0


def run_simulate(args: argparse.Namespace) -> int:
    """``repro simulate <design> w1[,w2,...]`` — one batched stepping pass."""
    from ..serve import canonical_dumps, simulate_batch_op
    from ..serve.errors import BadRequestError
    from ..serve.ops import split_workloads

    if args.json and "," in args.workload:
        raise CliError("--json takes a single workload, not a list")
    sysadg = load_design(args.design)
    try:
        names = split_workloads(args.workload)
        docs = simulate_batch_op(sysadg, names)
    except BadRequestError as exc:
        raise CliError(str(exc)) from exc
    unmapped = 0
    for name, doc in zip(names, docs):
        if doc is None:
            print(f"{name} does NOT map onto {sysadg.name}")
            unmapped += 1
        elif args.json:
            print(canonical_dumps(doc))
        else:
            print(
                f"{name} on {sysadg.name}: {doc['cycles']:,.0f} cycles "
                f"({doc['seconds'] * 1e6:,.1f} us), IPC {doc['ipc']:.1f}, "
                f"{doc['tiles_used']} tiles used"
            )
    return 1 if unmapped else 0


def run_rtl(args: argparse.Namespace) -> int:
    from ..rtl import get_backend

    sysadg = load_design(args.design)
    try:
        backend = get_backend(args.backend)
    except KeyError as exc:
        raise CliError(str(exc.args[0]) if exc.args else str(exc)) from exc
    rtl = backend.emit_system(sysadg)
    if args.output:
        with open(args.output, "w") as f:
            f.write(rtl)
        print(
            f"wrote {args.output} ({rtl.count(chr(10))} lines, "
            f"backend {backend.name})"
        )
    else:
        sys.stdout.write(rtl)
    return 0


def run_floorplan(args: argparse.Namespace) -> int:
    from ..rtl import estimated_frequency, floorplan

    plan = floorplan(load_design(args.design))
    print(plan.ascii_art())
    print(f"estimated clock: {estimated_frequency(plan):.1f} MHz")
    if not plan.feasible:
        print(
            "error: overlay exceeds XCVU9P capacity (see SLR utilization)",
            file=sys.stderr,
        )
        return 1
    return 0


def run_advise(args: argparse.Namespace) -> int:
    from ..scheduler import advise

    sysadg = load_design(args.design)
    advice = advise(
        resolve_workload(args.workload), sysadg.adg, sysadg.params
    )
    print(advice.summary())
    return 0 if advice.best_mapped is not None else 1


def run_report(args: argparse.Namespace) -> int:
    from ..harness.report import write_report

    write_report(args.output)
    print(f"wrote {args.output}")
    return 0


_JSON_HELP = (
    "print the canonical result document (the byte-identity "
    "reference for served results)"
)


def add_parsers(sub) -> None:
    sub.add_parser("workloads", help="list the Table-II workloads").set_defaults(
        func=run_workloads
    )

    ins = sub.add_parser("inspect", help="render a saved design")
    ins.add_argument("design")
    ins.set_defaults(func=run_inspect)

    mp = sub.add_parser("map", help="schedule a workload onto a saved design")
    mp.add_argument("design")
    mp.add_argument("workload")
    mp.add_argument("--json", action="store_true", help=_JSON_HELP)
    mp.set_defaults(func=run_map)

    sim = sub.add_parser("simulate", help="simulate a workload on a design")
    sim.add_argument("design")
    sim.add_argument(
        "workload",
        help="workload name, or a comma-separated list for one batched "
             "stepping pass (list form is plain output only, not --json)",
    )
    sim.add_argument("--json", action="store_true", help=_JSON_HELP)
    sim.set_defaults(func=run_simulate)

    rtl = sub.add_parser("rtl", help="emit structural RTL")
    rtl.add_argument("design")
    rtl.add_argument("-o", "--output", default=None)
    rtl.add_argument(
        "--backend", default="verilog",
        help="RTL backend name: 'verilog' (golden-stable structural "
             "Verilog) or 'migen' (LiteX-flavoured structural Python)",
    )
    rtl.set_defaults(func=run_rtl)

    fp = sub.add_parser("floorplan", help="SLR floorplan + clock estimate")
    fp.add_argument("design")
    fp.set_defaults(func=run_floorplan)

    adv = sub.add_parser(
        "advise", help="explain how well a workload fits a saved design"
    )
    adv.add_argument("design")
    adv.add_argument("workload")
    adv.set_defaults(func=run_advise)

    rep = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    rep.add_argument("-o", "--output", default="EXPERIMENTS.md")
    rep.set_defaults(func=run_report)
