"""``repro.cluster`` — scale-out for the overlay-compilation service.

Two pieces turn the single-process ``repro.serve`` tier into the
many-users story OverGen argues for (one generated overlay family,
many applications compiling in milliseconds), with clients addressing
overlays as ``name@version`` in the :mod:`repro.engine.registry`:

* :mod:`~repro.cluster.topology` — deterministic request routing:
  ``(overlay fp, workload fp)`` hashed into a fixed slot space and
  assigned to shards with the same :class:`~repro.jobs.ShardPlan` math
  soak uses, so routing is shard-count-deterministic; the router is the
  one place that applies it.
* :mod:`~repro.cluster.router` / :mod:`~repro.cluster.launcher` — the
  asyncio front tier proxying the JSON-lines protocol across N backend
  serve shards (health checks, bounded failover on ``overloaded``,
  aggregated stats), and the process launcher that spawns shards +
  router as one unit for ``repro cluster serve``.

The cluster sits on :mod:`repro.serve`; the serve tier never imports it.
"""

from .launcher import ClusterLauncher, LauncherConfig
from .router import ClusterRouter, RouterConfig
from .topology import SLOTS, BackendSpec, route_shard, route_slot, shard_of_slot
