"""Stable content fingerprints for DSE jobs.

The persistent artifact store keys every overlay by *what produced it*: the
exact workload bodies, the full :class:`~repro.dse.DseConfig`, the seed
list, the search strategy with its trial budget and batch, and a
code-schema version.  Any change to any of those yields a new key, so
stale artifacts can never be returned — they are simply never looked up
again.

Fingerprints are SHA-256 over a canonical JSON form.  Canonicalization
recurses through dataclasses (field order is definition order, which is
part of the schema), maps enums to ``(type, name)`` pairs, and sorts sets
and dict keys, so the digest is independent of hash randomization, process,
and platform.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from operator import itemgetter
from typing import Any, Iterable, Optional, Sequence

from ..dse import DseConfig
from ..ir import Workload

#: Bump whenever the meaning of a stored artifact changes — new DseResult
#: layout, new serialize format, new objective definition — so every old
#: on-disk artifact silently misses instead of deserializing stale science.
#: v2: the schedule-preserving fast path skips repair and charges
#: ``TimeModel.revalidate``, so modeled seconds / stats in old artifacts
#: are stale.
#: v3: ``DseResult``/``ExplorerState`` grew ``points`` — the full
#: LUT/FF/BRAM/DSP resource vector for every accepted DSE point — which
#: the ``DseResult`` goldens hash; pre-v3 artifacts lack it.
#: v4: a failed repair is charged ``TimeModel.repair``, a no-op edit is
#: rejected unswept and uncharged, and ``DseStats`` grew
#: ``rejected_noop``, so modeled seconds / stats in old artifacts are
#: stale.
#: v5: an equal ``ADG.replace_node`` is no edit, so a draw of a node's
#: current value is rejected unswept and uncharged: modeled seconds /
#: stats in old artifacts are stale.
#: v6: ``DseStats`` grew ``seconds`` and ``moves``; a stored v5 result's
#: stats lack them, and reading them would raise ``AttributeError``.
CODE_SCHEMA_VERSION = 6


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to JSON-serializable data with deterministic order."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        doc = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            doc[f.name] = canonicalize(getattr(obj, f.name))
        return doc
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, obj.name]
    if isinstance(obj, dict):
        # Each key's canonical string is computed once: it is both the
        # sort key and the output key (a stable sort on it alone, so
        # values are never compared).
        keyed = [
            (json.dumps(canonicalize(k), sort_keys=True), v)
            for k, v in obj.items()
        ]
        keyed.sort(key=itemgetter(0))
        return {k: canonicalize(v) for k, v in keyed}
    if isinstance(obj, (set, frozenset)):
        items = [canonicalize(x) for x in obj]
        return sorted(items, key=lambda x: json.dumps(x, sort_keys=True))
    if isinstance(obj, (list, tuple)):
        return [canonicalize(x) for x in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def fingerprint(obj: Any) -> str:
    """SHA-256 hex digest of the canonical form of ``obj``."""
    blob = json.dumps(canonicalize(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def workload_fingerprint(workload: Workload) -> str:
    """Digest of one workload's full body (loops, arrays, statements)."""
    return fingerprint(workload)


def config_fingerprint(config: DseConfig) -> str:
    """Digest of a DSE configuration (including its time model)."""
    return fingerprint(config)


def job_key(
    workloads: Sequence[Workload],
    config: DseConfig,
    seeds: Iterable[int],
    strategy: str = "anneal",
    trials: Optional[int] = None,
    batch: int = 1,
) -> str:
    """Content address of one engine job: workload set + config + seeds
    + what searches them (default: the annealer for ``config.iterations``).

    The display name is deliberately excluded — two runs over identical
    inputs share an artifact regardless of what they were called.
    """
    return fingerprint(
        {
            "schema": CODE_SCHEMA_VERSION,
            "workloads": [canonicalize(w) for w in workloads],
            "config": canonicalize(config),
            "seeds": sorted(int(s) for s in seeds),
            "search": [
                strategy,
                config.iterations if trials is None else int(trials),
                int(batch),
            ],
        }
    )
