"""Deterministic request routing for the cluster front tier.

The router needs one rule for "which shard owns this request", and that
rule must be deterministic across processes, platforms, and hash
randomization — the same requirements :class:`~repro.jobs.ShardPlan`
already satisfies for work splitting.  So routing *reuses* the plan: a
request key is hashed into a fixed ``SLOTS``-sized slot space (SHA-256,
platform-stable), and ``ShardPlan(total=SLOTS, shards=N).shard_of(slot)``
assigns slots to shards in the same contiguous, shard-count-deterministic
way soak shards own case indices.

Two routing keys exist:

* compute ops route on ``(overlay fingerprint, workload fingerprint)``
  — identical requests always land on the same shard, so that shard's
  single-flight coalescing and memory cache see *all* duplicates;
* ``remap`` routes on ``(registry base name, workload fingerprint)`` —
  the overlay fingerprint changes on every published version, but the
  schedule being preserved lives on the shard that served the previous
  version, so version continuity (the whole point of remap) requires
  name-keyed routing.

:func:`overlay_route_key` is that rule's one implementation;
:class:`~repro.cluster.router.ClusterRouter` is its one caller, and its
``stats`` (``shards[i].routed``) is the one count of where requests went.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from ..engine.registry import split_spec
from ..jobs import ShardPlan

#: Fixed slot-space size.  Large enough that the contiguous ShardPlan
#: split balances well for any sane shard count.
SLOTS = 16384


def route_slot(overlay_key: str, workload_key: str) -> int:
    """Slot of one request; pure function of the two key strings."""
    blob = f"{overlay_key}\x00{workload_key}".encode("utf-8")
    return int.from_bytes(
        hashlib.sha256(blob).digest()[:8], "big"
    ) % SLOTS


def overlay_route_key(
    op: str,
    overlay: Optional[str],
    fingerprint_of: Callable[[str], Optional[str]],
) -> str:
    """The overlay half of one request's routing key.

    ``fingerprint_of`` maps a served overlay spec to its fingerprint (the
    router's live table); a spec it does not know routes on its own text.
    """
    if overlay is None:
        return ""
    if op == "remap":
        return split_spec(overlay)[0]
    return fingerprint_of(overlay) or overlay


def shard_of_slot(slot: int, shards: int) -> int:
    """Which of ``shards`` backends owns ``slot`` (ShardPlan math)."""
    return ShardPlan(total=SLOTS, shards=shards).shard_of(slot)


def route_shard(overlay_key: str, workload_key: str, shards: int) -> int:
    return shard_of_slot(route_slot(overlay_key, workload_key), shards)


@dataclass(frozen=True)
class BackendSpec:
    """How to reach one backend serve shard."""

    index: int
    socket_path: Optional[str] = None
    host: str = "127.0.0.1"
    port: int = 0

    def describe(self) -> str:
        return self.socket_path or f"{self.host}:{self.port}"
