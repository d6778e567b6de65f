"""Persistent content-addressed artifact store.

Artifacts (``DseResult`` objects and anything picklable) live on disk under
``<root>/<key[:2]>/<key>.pkl`` with a small JSON sidecar describing what
produced them.  Keys come from :mod:`repro.engine.hashing`, so a key *is*
its inputs: a changed workload body, config field, or code-schema version
produces a different key and the old artifact is never consulted again.

Writes are atomic (temp file + rename) so a killed process never leaves a
half-written artifact behind; unreadable or corrupt entries are treated as
misses and dropped.

:class:`TieredCache` is the one memory → disk ladder in the repo: a
process-local dict over an *optional* :class:`ArtifactStore`.  The DSE
engine, the serve tier and the experiment harness (store-less) all reach
their caches through it.
"""

from __future__ import annotations

import json
import os
import pickle
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Hashable, Iterator, Optional, Tuple


_MISSING = object()


@dataclass
class StoreStats:
    """Hit/miss accounting for one store instance."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "corrupt": self.corrupt,
        }


class ArtifactStore:
    """On-disk pickle store addressed by content hash."""

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def _meta_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str, default: Any = None) -> Any:
        path = self._path(key)
        try:
            with open(path, "rb") as f:
                value = pickle.load(f)
        except FileNotFoundError:
            # Absent — or discarded by a concurrent process between our
            # lookup and open: a plain miss either way, never "corrupt".
            self.stats.misses += 1
            return default
        except Exception:
            # Truncated write, schema drift inside the pickle, bad disk —
            # all equivalent to "not cached"; drop the entry.
            self.stats.corrupt += 1
            self.stats.misses += 1
            self.discard(key)
            return default
        self.stats.hits += 1
        return value

    @staticmethod
    def _write_atomic(path: Path, writer) -> None:
        """Write via a temp file + ``os.replace`` so readers never see a
        torn file — only the old content or the complete new content."""
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, mode="wb") as f:
                writer(f)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def put(self, key: str, value: Any, meta: Optional[Dict[str, Any]] = None) -> None:
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._write_atomic(
            path,
            lambda f: pickle.dump(value, f, protocol=pickle.HIGHEST_PROTOCOL),
        )
        if meta is not None:
            blob = json.dumps(meta, indent=2, sort_keys=True).encode("utf-8")
            self._write_atomic(self._meta_path(key), lambda f: f.write(blob))
        self.stats.puts += 1

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def meta(self, key: str) -> Optional[Dict[str, Any]]:
        """The JSON sidecar, or ``None`` when absent or unreadable.

        A torn/unparseable sidecar (pre-atomic writers, bad disk) is
        treated exactly like a missing one: no ``hits``/``corrupt``
        accounting, no discard of the (independently valid) artifact.
        """
        path = self._meta_path(key)
        try:
            with open(path) as f:
                return json.load(f)
        except FileNotFoundError:
            return None
        except Exception:
            return None

    def discard(self, key: str) -> None:
        for path in (self._path(key), self._meta_path(key)):
            try:
                path.unlink()
            except OSError:
                pass

    def keys(self) -> Iterator[str]:
        for path in sorted(self.root.glob("*/*.pkl")):
            yield path.stem

    def size(self) -> int:
        return sum(1 for _ in self.keys())

    def clear(self) -> None:
        for key in list(self.keys()):
            self.discard(key)


class TieredCache:
    """Memory dict over an optional :class:`ArtifactStore`.

    ``get`` answers ``(value, tier)`` with tier ``"memory"``, ``"disk"``
    (promoted into memory on the way out) or ``"miss"``; any picklable
    value — ``None`` included — is a legitimate cached value, so callers
    branch on the tier, not on the value.
    """

    def __init__(self, store: Optional[ArtifactStore] = None) -> None:
        self.store = store
        self._memory: Dict[Hashable, Any] = {}
        self._lookups = {"memory": 0, "disk": 0, "miss": 0}

    def get(self, key: Hashable) -> Tuple[Any, str]:
        value, tier = None, "miss"
        if key in self._memory:
            value, tier = self._memory[key], "memory"
        elif self.store is not None:
            stored = self.store.get(key, _MISSING)
            if stored is not _MISSING:
                value, tier = stored, "disk"
                self._memory[key] = stored
        self._lookups[tier] += 1
        return value, tier

    def put(
        self,
        key: Hashable,
        value: Any,
        meta: Optional[Dict[str, Any]] = None,
        persist: bool = True,
    ) -> None:
        """Cache ``value``; ``persist=False`` keeps it out of the store."""
        self._memory[key] = value
        if persist and self.store is not None:
            self.store.put(key, value, meta=meta)

    def memoized(self, key: Hashable, builder: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it on first use."""
        value, tier = self.get(key)
        if tier == "miss":
            value = builder()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Empty the memory tier (the store, if any, is left alone)."""
        self._memory.clear()

    def stats(self) -> Dict[str, int]:
        """Entries held in memory plus lookups answered per tier."""
        return {"entries": len(self._memory), **self._lookups}
