"""The service commands: ``serve``, ``submit``, ``registry``, ``cluster``."""

from __future__ import annotations

import argparse
import sys

from . import common
from .common import CliError


def run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from ..engine import MetricsLogger
    from ..serve import OverlayServer, ServeConfig, run_until_shutdown

    if not args.designs and not args.registry:
        raise CliError(
            "serve needs at least one design file or --registry DIR"
        )
    config = ServeConfig(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        queue_limit=args.queue_limit,
        workers=args.workers,
        default_timeout_s=args.default_timeout,
        drain_timeout_s=args.drain_timeout,
        cache_dir=args.cache_dir,
        registry_dir=args.registry,
    )
    server = OverlayServer(config, metrics=MetricsLogger(args.metrics))

    async def _run() -> None:
        for path in args.designs:
            name = server.add_overlay(common.load_design(path))
            print(
                f"loaded overlay {name!r} from {path} "
                f"(fingerprint {server.overlays[name].fingerprint[:16]})"
            )
        if args.registry:
            print(f"registry attached: {args.registry}")
        started = asyncio.get_running_loop().create_task(
            run_until_shutdown(server)
        )
        while server.endpoint is None and not started.done():
            await asyncio.sleep(0.01)
        if server.endpoint is not None:
            kind, where = server.endpoint
            print(f"serving on {kind} {where}", flush=True)
        await started

    asyncio.run(_run())
    c = server.counters
    print(
        f"drained: {c['requests']} requests "
        f"({c['responses_ok']} ok, {c['responses_error']} errors, "
        f"{c['computes']} compiles, {c['coalesced']} coalesced)"
    )
    return 0


def run_submit(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from ..serve import (
        COMPUTE_OPS,
        ServeClient,
        ServeConnectionError,
        ServeError,
        canonical_dumps,
        run_load_sharded,
    )

    if not args.socket and args.port == 0:
        raise CliError("submit needs --socket PATH or --host/--port")

    if args.op == "load":
        ops = tuple(o for o in args.ops.split(",") if o)
        bad = [o for o in ops if o not in COMPUTE_OPS]
        if bad or not ops:
            raise CliError(
                f"--ops must be a comma list from "
                f"{', '.join(COMPUTE_OPS)}; got {args.ops!r}"
            )
        workloads = tuple(w for w in args.load_workloads.split(",") if w)
        if not workloads:
            raise CliError("--workloads must name at least one workload")
        overlays = None
        if args.overlays:
            overlays = tuple(o for o in args.overlays.split(",") if o)
        elif args.overlay:
            overlays = (args.overlay,)
        if args.shards < 1:
            raise CliError("--shards must be >= 1")

        try:
            report = run_load_sharded(
                {"socket": args.socket, "host": args.host, "port": args.port},
                ops=ops,
                workloads=workloads,
                requests=args.requests,
                concurrency=args.concurrency,
                load_shards=args.shards,
                overlays=overlays,
                timeout_s=args.timeout,
                expect_errors=args.expect_errors,
                cluster=args.cluster,
            )
        except ServeConnectionError as exc:
            raise CliError(str(exc)) from exc
        except ServeError as exc:
            print(f"load failed: {exc}", file=sys.stderr)
            return 1
        print(report.render())
        if args.json:
            print(json.dumps(report.as_dict(), sort_keys=True))
        if report.mismatches:
            print("FAIL: duplicate requests returned divergent results")
            return 1
        computes = report.computes
        if (
            args.assert_coalescing
            and computes is not None
            and computes >= report.requests
        ):
            print(
                f"FAIL: no coalescing/caching observed "
                f"({computes} compiles for {report.requests} requests)"
            )
            return 1
        return 0

    if args.op in COMPUTE_OPS and not args.workload:
        raise CliError(f"op {args.op!r} requires a workload name")

    async def _one():
        async with ServeClient(
            socket_path=args.socket, host=args.host, port=args.port
        ) as client:
            return await client.request(
                args.op,
                workload=args.workload,
                overlay=args.overlay,
                timeout_s=args.timeout,
            )

    try:
        result = asyncio.run(_one())
    except ServeConnectionError as exc:
        raise CliError(str(exc)) from exc
    except ServeError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return 1
    if args.json or args.op in ("stats", "ping", "shutdown", "topology"):
        print(canonical_dumps(result))
    else:
        for key, value in sorted(result.items()):
            print(f"{key}: {value}")
    return 0


def run_registry(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from ..cluster import OverlayRegistry, RegistryError, split_spec
    from ..serve import canonical_dumps

    registry = OverlayRegistry(args.root)
    try:
        if args.registry_op == "publish":
            design_doc = json.loads(Path(args.design).read_text())
            entry = registry.publish(args.name, design_doc, note=args.note)
            print(
                f"published {entry.spec} "
                f"(fingerprint {entry.fingerprint[:16]})"
            )
            return 0
        if args.registry_op == "list":
            rows = registry.list_doc()
            if args.json:
                print(canonical_dumps(rows))
                return 0
            if not rows:
                print("registry is empty")
                return 0
            for row in rows:
                pin_note = (
                    f" (pinned v{row['pinned']})" if row["pinned"] else ""
                )
                print(
                    f"{row['name']}: {row['versions']} versions, "
                    f"latest v{row['latest']}{pin_note}"
                )
            return 0
        if args.registry_op == "show":
            name, _selector = split_spec(args.spec)
            pinned = registry.pinned(name)
            versions = registry.versions(name)
            if not versions:
                raise CliError(f"unknown overlay name {name!r}")
            for entry in versions:
                marker = " *" if pinned == entry.version else ""
                print(
                    f"{entry.spec}{marker}  {entry.fingerprint[:16]}  "
                    f"{entry.note or '-'}"
                )
            return 0
        if args.registry_op == "pin":
            name, selector = split_spec(args.spec)
            if selector is None:
                raise CliError("pin needs an explicit name@vN spec")
            entry = registry.pin(name, registry.lookup(args.spec).version)
            print(f"pinned {name} -> {entry.spec}")
            return 0
        if args.registry_op == "unpin":
            registry.unpin(args.name)
            print(f"unpinned {args.name} (bare name resolves to latest)")
            return 0
        if args.registry_op == "rollback":
            entry = registry.rollback(args.name, args.to_version)
            print(f"rolled back {args.name} -> {entry.spec}")
            return 0
    except (RegistryError, FileNotFoundError, ValueError) as exc:
        raise CliError(str(exc)) from exc
    raise CliError(f"unknown registry op {args.registry_op!r}")


def run_cluster(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from ..cluster import ClusterLauncher, LauncherConfig

    config = LauncherConfig(
        run_dir=args.run_dir,
        shards=args.shards,
        designs=[str(Path(p).resolve()) for p in args.designs],
        registry_dir=(
            str(Path(args.registry).resolve()) if args.registry else None
        ),
        cache_dir=(
            str(Path(args.cache_dir).resolve()) if args.cache_dir else None
        ),
        workers=args.workers,
        queue_limit=args.queue_limit,
        default_timeout_s=args.default_timeout,
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        health_interval_s=args.health_interval,
        failover_retries=args.failover_retries,
        metrics_path=args.metrics,
    )
    try:
        launcher = ClusterLauncher(config)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    async def _run() -> None:
        backends = await asyncio.get_running_loop().run_in_executor(
            None, launcher.spawn_shards
        )
        for spec in backends:
            print(f"shard {spec.index} up on {spec.describe()}")
        await launcher.run()

    try:
        asyncio.run(_run())
    except RuntimeError as exc:
        launcher.terminate()
        raise CliError(str(exc)) from exc
    router = launcher.router
    if router is not None:
        c = router.counters
        print(
            f"cluster drained: {c['requests']} requests routed "
            f"({c['retries']} retries, {c['failovers']} failovers)"
        )
    return 0


def add_parsers(sub) -> None:
    srv = sub.add_parser(
        "serve",
        parents=[common.endpoint, common.shard],
        help="serve map/estimate/simulate requests over loaded overlays "
             "(JSON-lines, coalescing, admission control, graceful drain)",
    )
    srv.add_argument(
        "designs", nargs="*",
        help="design JSON file(s) to serve (may be empty with --registry)",
    )
    srv.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="max seconds graceful drain waits for in-flight requests",
    )
    srv.set_defaults(func=run_serve)

    sb = sub.add_parser(
        "submit",
        parents=[common.endpoint],
        help="submit requests to a running 'repro serve' (one-shot or load)",
    )
    sb.add_argument(
        "op",
        choices=("map", "estimate", "simulate", "simulate_batch", "remap",
                 "ping", "stats", "topology", "shutdown", "load"),
    )
    sb.add_argument("workload", nargs="?", default=None)
    sb.add_argument(
        "--overlay", default=None,
        help="overlay name (optional when the server holds exactly one)",
    )
    sb.add_argument(
        "--timeout", type=float, default=None,
        help="per-request deadline in seconds",
    )
    sb.add_argument(
        "--json", action="store_true",
        help="print the canonical result document",
    )
    sb.add_argument(
        "--requests", type=int, default=64,
        help="[load] total requests to fire (default 64)",
    )
    sb.add_argument(
        "--concurrency", type=int, default=16,
        help="[load] concurrent connections (default 16)",
    )
    sb.add_argument(
        "--ops", default="map,estimate,simulate",
        help="[load] comma list of compute ops to mix",
    )
    sb.add_argument(
        "--workloads", dest="load_workloads", default="vecmax",
        help="[load] comma list of workload names to mix",
    )
    sb.add_argument(
        "--expect-errors", action="store_true",
        help="[load] do not fail the run when requests error "
             "(for admission-control experiments)",
    )
    sb.add_argument(
        "--assert-coalescing", action="store_true",
        help="[load] fail unless compiles < requests in server stats",
    )
    sb.add_argument(
        "--overlays", default=None,
        help="[load] comma list of overlay specs to mix (overrides "
             "--overlay; registry name@vN specs work here)",
    )
    sb.add_argument(
        "--cluster", action="store_true",
        help="[load] fetch the cluster topology and route each request "
             "directly to its owning shard (per-shard latency + balance)",
    )
    sb.add_argument(
        "--shards", type=int, default=1,
        help="[load] load-generator processes; the deterministic request "
             "plan is split across them and reports merge (default 1)",
    )
    sb.set_defaults(func=run_submit)

    reg = sub.add_parser(
        "registry",
        help="versioned overlay registry: publish/pin/rollback named "
             "overlay versions on an artifact store",
    )
    reg.add_argument(
        "--root", required=True,
        help="registry/store root directory (shards share it)",
    )
    regsub = reg.add_subparsers(dest="registry_op", required=True)
    rpub = regsub.add_parser(
        "publish", help="register a design JSON as the next version"
    )
    rpub.add_argument("name", help="overlay family name")
    rpub.add_argument("design", help="design JSON file")
    rpub.add_argument("--note", default=None)
    rlist = regsub.add_parser("list", help="list registered names")
    rlist.add_argument("--json", action="store_true")
    rshow = regsub.add_parser("show", help="list every version of a name")
    rshow.add_argument("spec", help="overlay name (or name@vN)")
    rpin = regsub.add_parser("pin", help="pin a name to one version")
    rpin.add_argument("spec", help="name@vN")
    runpin = regsub.add_parser("unpin", help="remove a name's pin")
    runpin.add_argument("name")
    rroll = regsub.add_parser(
        "rollback", help="move the pin to an earlier version"
    )
    rroll.add_argument("name")
    rroll.add_argument(
        "--to-version", type=int, default=None,
        help="explicit version (default: one before the active one)",
    )
    reg.set_defaults(func=run_registry)

    clu = sub.add_parser(
        "cluster",
        help="multi-shard serve: spawn N serve shards + the consistent-"
             "hash front-tier router as one unit",
    )
    clusub = clu.add_subparsers(dest="cluster_op", required=True)
    cserve = clusub.add_parser(
        "serve",
        parents=[common.endpoint, common.shard],
        help="spawn shards and route until shutdown",
    )
    cserve.add_argument(
        "designs", nargs="*",
        help="design JSON file(s) every shard preloads "
             "(may be empty with --registry)",
    )
    cserve.add_argument(
        "--run-dir", required=True,
        help="directory for shard sockets, logs, and metrics",
    )
    cserve.add_argument(
        "--shards", type=int, default=2,
        help="backend serve shard processes (default 2)",
    )
    cserve.add_argument(
        "--health-interval", type=float, default=2.0,
        help="seconds between router health sweeps (default 2)",
    )
    cserve.add_argument(
        "--failover-retries", type=int, default=2,
        help="bounded retries on overloaded/unreachable shards",
    )
    cserve.set_defaults(func=run_cluster)

