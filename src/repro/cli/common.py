"""What the command modules share: the user-error type, argument
resolution, the design block several commands end on, and the five option
groups more than one subparser takes (argparse ``parents=``)."""

from __future__ import annotations

import argparse
import os
from typing import Optional

from ..adg import load_sysadg, save_sysadg
from ..model.resource import XCVU9P, AnalyticEstimator
from ..workloads import SUITE_NAMES, all_workloads, get_suite, get_workload


class CliError(Exception):
    """A user-facing error: printed cleanly, exit status 2."""


def resolve_workload(name: str):
    try:
        return get_workload(name)
    except KeyError as exc:
        raise CliError(str(exc.args[0]) if exc.args else str(exc)) from exc


def resolve_workloads(spec: Optional[str]):
    if not spec:
        raise CliError(
            "missing workloads argument (suite name, 'all', or "
            "comma-separated names)"
        )
    if spec in SUITE_NAMES:
        return get_suite(spec)
    if spec == "all":
        return all_workloads()
    return [resolve_workload(name) for name in spec.split(",") if name]


def load_design(path: str):
    try:
        return load_sysadg(path)
    except FileNotFoundError as exc:
        raise CliError(f"no such design file: {path}") from exc
    except OSError as exc:
        raise CliError(f"cannot read design file {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, SerializationError, AdgError
        raise CliError(f"malformed design file {path}: {exc}") from exc


def cache_dir_for(args: argparse.Namespace) -> Optional[str]:
    """The persistent store directory, honoring --no-cache/--cache-dir."""
    if args.no_cache:
        return None
    return args.cache_dir or os.environ.get(
        "REPRO_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "repro-overgen"),
    )


def print_design(sysadg, text=None, *, note=None, output=None) -> None:
    """The block ``generate`` / ``dse`` / ``inspect`` end on: the design
    (``text``, default its one-line summary), its XCVU9P utilization, an
    optional ``note`` line, and — with ``output`` — the saved file."""
    print(sysadg.summary() if text is None else text)
    util = AnalyticEstimator().system(sysadg).utilization(XCVU9P)
    print("utilization: " + "  ".join(f"{k}={v:.0%}" for k, v in util.items()))
    if note:
        print(note)
    if output:
        save_sysadg(sysadg, output)
        print(f"saved design to {output}")


def _group() -> argparse.ArgumentParser:
    return argparse.ArgumentParser(add_help=False)


#: workloads/-o/-n/-s/--name for generate + dse.
dse_run = _group()
dse_run.add_argument(
    "workloads", nargs="?", default=None,
    help="suite name (dsp/machsuite/vision), 'all', or comma-separated names",
)
dse_run.add_argument("-o", "--output", default="overlay.json")
dse_run.add_argument("-n", "--iterations", type=int, default=150)
dse_run.add_argument("-s", "--seed", type=int, default=2)
dse_run.add_argument("--name", default=None)

#: --rel-tol/--abs-floor for fuzz + soak (a stored repro replays under the
#: bands recorded with it, so validate takes none).
bands = _group()
bands.add_argument(
    "--rel-tol", type=float, default=None,
    help="override every per-class relative tolerance (0 flags any "
         "model/sim gap beyond the absolute floor)",
)
bands.add_argument(
    "--abs-floor", type=float, default=None,
    help="absolute cycle gap always forgiven (default 64; 0 disables)",
)

#: --corpus/--max-mutations for fuzz + soak.
fuzzing = _group()
fuzzing.add_argument(
    "--corpus", default=None,
    help="divergence-corpus directory (minimal repros persist here)",
)
fuzzing.add_argument(
    "--max-mutations", type=int, default=6,
    help="max random ADG mutations per case",
)

#: --socket/--host/--port for serve + submit + cluster serve.
endpoint = _group()
endpoint.add_argument(
    "--socket", default=None,
    help="endpoint unix socket path (overrides --host/--port)",
)
endpoint.add_argument("--host", default="127.0.0.1")
endpoint.add_argument(
    "--port", type=int, default=0,
    help="TCP port (listeners: 0 picks a free one, printed at startup)",
)

#: Per-shard server options for serve + cluster serve.
shard = _group()
shard.add_argument(
    "--workers", type=int, default=2,
    help="compile worker processes per shard (0 = in-process threads)",
)
shard.add_argument(
    "--queue-limit", type=int, default=64,
    help="requests in service per shard before admission control "
         "sheds load with 'overloaded' (default 64)",
)
shard.add_argument(
    "--default-timeout", type=float, default=30.0,
    help="deadline for requests that carry no timeout_s (seconds)",
)
shard.add_argument(
    "--cache-dir", default=None,
    help="persist served results in this artifact store directory",
)
shard.add_argument(
    "--registry", default=None, metavar="DIR",
    help="overlay registry root; name@version specs resolve from it",
)
shard.add_argument(
    "--metrics", default=None,
    help="append serve events to this JSONL file (cluster: the "
         "router's; shards get per-shard files in --run-dir)",
)
