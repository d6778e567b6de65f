"""Deterministic request routing for the cluster front tier.

The router (and any topology-aware client) must agree on one rule for
"which shard owns this request", and that rule must be deterministic
across processes, platforms, and hash randomization — the same
requirements :class:`~repro.jobs.ShardPlan` already satisfies for work
splitting.  So routing *reuses* the plan: a request key is hashed into
a fixed ``SLOTS``-sized slot space (SHA-256, platform-stable), and
``ShardPlan(total=SLOTS, shards=N).shard_of(slot)`` assigns slots to
shards in the same contiguous, shard-count-deterministic way soak
shards own case indices.

Two routing keys exist:

* compute ops route on ``(overlay fingerprint, workload fingerprint)``
  — identical requests always land on the same shard, so that shard's
  single-flight coalescing and memory cache see *all* duplicates;
* ``remap`` routes on ``(registry base name, workload fingerprint)`` —
  the overlay fingerprint changes on every published version, but the
  schedule being preserved lives on the shard that served the previous
  version, so version continuity (the whole point of remap) requires
  name-keyed routing.

:func:`overlay_route_key` is that rule's one implementation; the router
and the ``--cluster`` load client differ only in where they look a
fingerprint up.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..jobs import ShardPlan
from .registry import split_spec

#: Fixed slot-space size all routers and clients share.  Large enough
#: that the contiguous ShardPlan split balances well for any sane shard
#: count, small enough that a slot table is cheap to ship to clients.
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
    router's live table, a client's :attr:`Topology.overlays`); a spec it
    does not know routes on its own text.
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

    def as_doc(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"index": self.index}
        if self.socket_path:
            doc["socket"] = self.socket_path
        else:
            doc["host"] = self.host
            doc["port"] = self.port
        return doc

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "BackendSpec":
        return cls(
            index=int(doc.get("index", 0)),
            socket_path=doc.get("socket"),
            host=doc.get("host", "127.0.0.1"),
            port=int(doc.get("port", 0)),
        )

    def describe(self) -> str:
        return self.socket_path or f"{self.host}:{self.port}"


@dataclass
class Topology:
    """The cluster map a router hands to topology-aware clients.

    ``overlays`` maps every served overlay name to its fingerprint so a
    client can compute the same routing key the router would; a client
    holding a Topology routes *exactly* like the router (same slot
    hash, same ShardPlan), which is what lets the data path go direct
    to shards without losing per-shard cache affinity.
    """

    shards: List[BackendSpec]
    slots: int = SLOTS
    overlays: Dict[str, str] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.shards)

    def shard_for(self, overlay_key: str, workload_key: str) -> BackendSpec:
        return self.shards[
            route_shard(overlay_key, workload_key, self.count)
        ]

    def as_doc(self) -> Dict[str, Any]:
        return {
            "slots": self.slots,
            "shards": [s.as_doc() for s in self.shards],
            "overlays": dict(sorted(self.overlays.items())),
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "Topology":
        return cls(
            shards=[BackendSpec.from_doc(d) for d in doc.get("shards", [])],
            slots=int(doc.get("slots", SLOTS)),
            overlays=dict(doc.get("overlays", {})),
        )
