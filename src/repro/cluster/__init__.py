"""``repro.cluster`` — scale-out for the overlay-compilation service.

Three pieces turn the single-process ``repro.serve`` tier into the
many-users story OverGen argues for (one generated overlay family,
many applications compiling in milliseconds):

* :mod:`~repro.cluster.registry` — a versioned overlay registry on
  :class:`~repro.engine.store.ArtifactStore`: publish / pin / rollback
  named overlay versions, so clients address ``name@version`` instead
  of shipping design files.
* :mod:`~repro.cluster.topology` — deterministic request routing:
  ``(overlay fp, workload fp)`` hashed into a fixed slot space and
  assigned to shards with the same :class:`~repro.jobs.ShardPlan` math
  soak uses, so routing is shard-count-deterministic and any client
  holding the topology routes exactly like the router.
* :mod:`~repro.cluster.router` / :mod:`~repro.cluster.launcher` — the
  asyncio front tier proxying the JSON-lines protocol across N backend
  serve shards (health checks, bounded failover on ``overloaded``,
  aggregated stats), and the process launcher that spawns shards +
  router as one unit for ``repro cluster serve``.

``router``/``launcher`` import :mod:`repro.serve`, which itself imports
:mod:`repro.cluster.registry`; they are exposed lazily here so the
package has no import cycle.
"""

from .registry import (
    OverlayRegistry,
    OverlayVersion,
    RegistryError,
    ResolvedOverlay,
    split_spec,
    version_key,
)
from .topology import (
    SLOTS,
    BackendSpec,
    Topology,
    overlay_route_key,
    route_shard,
    route_slot,
    shard_of_slot,
)

_LAZY = {
    "ClusterRouter": "router",
    "RouterConfig": "router",
    "BackendState": "router",
    "ClusterLauncher": "launcher",
    "LauncherConfig": "launcher",
}

__all__ = [
    "BackendSpec",
    "BackendState",
    "ClusterLauncher",
    "ClusterRouter",
    "LauncherConfig",
    "OverlayRegistry",
    "OverlayVersion",
    "RegistryError",
    "ResolvedOverlay",
    "RouterConfig",
    "SLOTS",
    "Topology",
    "overlay_route_key",
    "route_shard",
    "route_slot",
    "shard_of_slot",
    "split_spec",
    "version_key",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    mod = importlib.import_module(f".{module}", __name__)
    value = getattr(mod, name)
    globals()[name] = value
    return value
