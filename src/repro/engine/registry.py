"""Versioned overlay registry on :class:`~repro.engine.store.ArtifactStore`.

OverGen's reuse story (and Mbongue et al.'s pre-implemented overlay
flow) treats a generated overlay like a model checkpoint: published
once, addressed by name, reused by many applications.  This module
gives that story a home: clients say ``fir-family@v3`` (or just
``fir-family``) instead of shipping raw design files, and the serve
tier resolves the name to a content-addressed design document.

Layout under one store root (shared with the serve result cache and the
DSE engine, so one ``--cache-dir`` carries everything):

* ``<root>/<key[:2]>/<key>.pkl`` — the design document itself, stored
  through :class:`ArtifactStore` under a key derived from
  ``(name, design fingerprint)``.  Publishing the same design to the
  same name twice is **idempotent**: the key collides and the existing
  version is returned.  The JSON meta sidecar carries
  ``kind=overlay_version`` plus name/version/fingerprint, which makes
  every version independently discoverable.
* ``<root>/registry/<name>.json`` — the per-name *index*: the ordered
  version list plus the pin.  Written atomically (temp + rename).  The
  index is a **cache over the sidecars**: if it is ever torn or lost,
  :meth:`OverlayRegistry.versions` rebuilds it by scanning store
  sidecars, so ``publish``/``rollback`` keep working (the pin, which
  lives only in the index, falls back to "latest").
* ``<root>/registry/<name>.lock`` — an ``O_CREAT|O_EXCL`` lock file
  serializing read-modify-write of the index across processes.  Stale
  locks (a publisher killed mid-update) are broken after
  ``LOCK_STALE_S``.

Resolution is byte-stable: resolving the same ``name@version`` twice —
in the same process or different ones — yields design documents whose
canonical JSON dumps are identical, because the document is stored
once, content-addressed, and never rewritten.
"""

from __future__ import annotations

import errno
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .hashing import fingerprint
from .store import ArtifactStore

#: How long a lock file may sit before another process breaks it.
LOCK_STALE_S = 10.0

#: ``kind`` stamped into every published version's store sidecar.
VERSION_KIND = "overlay_version"


class RegistryError(Exception):
    """A user-facing registry failure (unknown name/version, bad spec)."""


@dataclass(frozen=True)
class OverlayVersion:
    """One published version of one named overlay."""

    name: str
    version: int
    #: Artifact-store key of the design document.
    key: str
    #: Content fingerprint of the design document itself.
    fingerprint: str
    note: Optional[str] = None
    published_at: float = 0.0

    @property
    def spec(self) -> str:
        return f"{self.name}@v{self.version}"

    def as_doc(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "key": self.key,
            "fingerprint": self.fingerprint,
            "note": self.note,
            "published_at": self.published_at,
        }


@dataclass
class ResolvedOverlay:
    """A fully resolved registry reference, design document included."""

    entry: OverlayVersion
    design_doc: Dict[str, Any] = field(repr=False, default_factory=dict)
    #: True when the spec named the version explicitly (``name@v3``),
    #: False when it went through the pin/latest default.
    explicit: bool = False

    @property
    def spec(self) -> str:
        return self.entry.spec


def split_spec(spec: str) -> Tuple[str, Optional[str]]:
    """``"name@v3"`` -> ``("name", "v3")``; bare names get ``None``."""
    name, sep, selector = spec.partition("@")
    if not name:
        raise RegistryError(f"empty overlay name in spec {spec!r}")
    return name, (selector if sep else None)


def version_key(name: str, design_fp: str) -> str:
    """Store key of one (name, design) pair — publish is content-keyed."""
    return fingerprint(
        {"kind": VERSION_KIND, "name": name, "design": design_fp}
    )


class _IndexLock:
    """Cross-process mutex via ``O_CREAT|O_EXCL``; breaks stale locks."""

    def __init__(self, path: Path, timeout_s: float = 5.0) -> None:
        self.path = path
        self.timeout_s = timeout_s

    def __enter__(self) -> "_IndexLock":
        deadline = time.monotonic() + self.timeout_s
        while True:
            try:
                fd = os.open(
                    self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
                os.write(fd, str(os.getpid()).encode("ascii"))
                os.close(fd)
                return self
            except OSError as exc:
                if exc.errno != errno.EEXIST:
                    raise
            try:
                age = time.time() - self.path.stat().st_mtime
                if age > LOCK_STALE_S:
                    self.path.unlink()
                    continue
            except OSError:
                continue  # holder released between stat and unlink
            if time.monotonic() > deadline:
                raise RegistryError(
                    f"registry lock {self.path} held for >{self.timeout_s}s"
                )
            time.sleep(0.005)

    def __exit__(self, *exc: Any) -> None:
        try:
            self.path.unlink()
        except OSError:
            pass


class OverlayRegistry:
    """Named, versioned overlay designs over an artifact store."""

    def __init__(self, root: os.PathLike) -> None:
        self.store = ArtifactStore(root)
        self.index_dir = self.store.root / "registry"
        self.index_dir.mkdir(parents=True, exist_ok=True)

    @property
    def root(self) -> Path:
        return self.store.root

    # -- index plumbing -------------------------------------------------
    def _index_path(self, name: str) -> Path:
        if "/" in name or name.startswith("."):
            raise RegistryError(f"invalid overlay name {name!r}")
        return self.index_dir / f"{name}.json"

    def _lock(self, name: str) -> _IndexLock:
        return _IndexLock(self.index_dir / f"{name}.lock")

    def _read_index(self, name: str) -> Optional[Dict[str, Any]]:
        """The on-disk index, or ``None`` when absent **or torn**."""
        try:
            with open(self._index_path(name)) as f:
                doc = json.load(f)
        except FileNotFoundError:
            return None
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(doc, dict) or not isinstance(
            doc.get("versions"), list
        ):
            return None
        return doc

    def _write_index(
        self,
        name: str,
        versions: List[OverlayVersion],
        pinned: Optional[int],
    ) -> None:
        doc = {
            "name": name,
            "versions": [v.as_doc() for v in versions],
            "pinned": pinned,
        }
        blob = json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")
        ArtifactStore._write_atomic(
            self._index_path(name), lambda f: f.write(blob)
        )

    def _rebuild_from_sidecars(self, name: str) -> List[OverlayVersion]:
        """Recover the version list by scanning store meta sidecars.

        Run when the index is missing or torn.  Every published version
        wrote a ``kind=overlay_version`` sidecar next to its artifact,
        so the ordered list (minus the pin, which only the index holds)
        is always reconstructible.
        """
        found: List[OverlayVersion] = []
        for key in self.store.keys():
            meta = self.store.meta(key)
            if (
                not meta
                or meta.get("kind") != VERSION_KIND
                or meta.get("name") != name
            ):
                continue
            try:
                found.append(
                    OverlayVersion(
                        name=name,
                        version=int(meta["version"]),
                        key=key,
                        fingerprint=str(meta["fingerprint"]),
                        note=meta.get("note"),
                        published_at=float(meta.get("published_at", 0.0)),
                    )
                )
            except (KeyError, TypeError, ValueError):
                continue
        return sorted(found, key=lambda v: v.version)

    def _load(self, name: str) -> Tuple[List[OverlayVersion], Optional[int]]:
        """(ordered versions, pinned) — recovering a torn/missing index."""
        doc = self._read_index(name)
        if doc is None:
            versions = self._rebuild_from_sidecars(name)
            return versions, None
        versions = []
        for row in doc["versions"]:
            try:
                versions.append(
                    OverlayVersion(
                        name=name,
                        version=int(row["version"]),
                        key=str(row["key"]),
                        fingerprint=str(row["fingerprint"]),
                        note=row.get("note"),
                        published_at=float(row.get("published_at", 0.0)),
                    )
                )
            except (KeyError, TypeError, ValueError):
                # One torn row poisons the cache, not the registry.
                return self._rebuild_from_sidecars(name), None
        pinned = doc.get("pinned")
        return (
            sorted(versions, key=lambda v: v.version),
            int(pinned) if pinned is not None else None,
        )

    # -- public API -----------------------------------------------------
    def names(self) -> List[str]:
        """Every registered overlay name, sorted."""
        names = {p.stem for p in self.index_dir.glob("*.json")}
        # Sidecar scan catches names whose index was lost entirely.
        for key in self.store.keys():
            meta = self.store.meta(key)
            if meta and meta.get("kind") == VERSION_KIND:
                names.add(str(meta.get("name")))
        return sorted(n for n in names if n)

    def versions(self, name: str) -> List[OverlayVersion]:
        return self._load(name)[0]

    def pinned(self, name: str) -> Optional[int]:
        versions, pinned = self._load(name)
        if pinned is not None and any(v.version == pinned for v in versions):
            return pinned
        return None

    def publish(
        self,
        name: str,
        design_doc: Dict[str, Any],
        note: Optional[str] = None,
    ) -> OverlayVersion:
        """Register ``design_doc`` as the next version of ``name``.

        Idempotent per content: republishing a design whose fingerprint
        already exists under this name returns the existing version.
        """
        design_fp = fingerprint(design_doc)
        with self._lock(name):
            versions, pinned = self._load(name)
            for existing in versions:
                if existing.fingerprint == design_fp:
                    return existing
            entry = OverlayVersion(
                name=name,
                version=(versions[-1].version + 1) if versions else 1,
                key=version_key(name, design_fp),
                fingerprint=design_fp,
                note=note,
                published_at=time.time(),
            )
            self.store.put(
                entry.key,
                design_doc,
                meta={
                    "kind": VERSION_KIND,
                    "name": name,
                    "version": entry.version,
                    "fingerprint": entry.fingerprint,
                    "note": note,
                    "published_at": entry.published_at,
                },
            )
            self._write_index(name, versions + [entry], pinned)
        return entry

    def pin(self, name: str, version: int) -> OverlayVersion:
        """Make ``version`` the default resolution for bare ``name``."""
        with self._lock(name):
            versions, _pinned = self._load(name)
            entry = self._pick(name, versions, version)
            self._write_index(name, versions, entry.version)
        return entry

    def unpin(self, name: str) -> None:
        with self._lock(name):
            versions, _pinned = self._load(name)
            if not versions:
                raise RegistryError(f"unknown overlay name {name!r}")
            self._write_index(name, versions, None)

    def rollback(
        self, name: str, to_version: Optional[int] = None
    ) -> OverlayVersion:
        """Point the pin back at a previous version (non-destructive).

        Without ``to_version`` the pin moves one version before the
        currently active one (pin if set, else latest).  The rolled-back
        version stays published — rollback is a pointer move, exactly
        like re-pinning a model checkpoint.
        """
        with self._lock(name):
            versions, pinned = self._load(name)
            if not versions:
                raise RegistryError(f"unknown overlay name {name!r}")
            if to_version is None:
                active = pinned if pinned is not None else versions[-1].version
                earlier = [v for v in versions if v.version < active]
                if not earlier:
                    raise RegistryError(
                        f"{name}@v{active} has no earlier version to "
                        "roll back to"
                    )
                entry = earlier[-1]
            else:
                entry = self._pick(name, versions, to_version)
            self._write_index(name, versions, entry.version)
        return entry

    @staticmethod
    def _pick(
        name: str, versions: List[OverlayVersion], version: int
    ) -> OverlayVersion:
        for v in versions:
            if v.version == version:
                return v
        known = ", ".join(f"v{v.version}" for v in versions) or "none"
        raise RegistryError(
            f"unknown version v{version} for overlay {name!r} "
            f"(published: {known})"
        )

    def lookup(self, spec: str) -> OverlayVersion:
        """Resolve a spec to its version entry without loading the design."""
        name, selector = split_spec(spec)
        versions, pinned = self._load(name)
        if not versions:
            raise RegistryError(
                f"unknown overlay name {name!r}; registered: "
                f"{', '.join(self.names()) or 'none'}"
            )
        if selector is None:
            if pinned is not None:
                return self._pick(name, versions, pinned)
            return versions[-1]
        if selector == "latest":
            return versions[-1]
        text = selector[1:] if selector.startswith("v") else selector
        try:
            want = int(text)
        except ValueError:
            raise RegistryError(
                f"bad version selector {selector!r} in {spec!r}; expected "
                "'vN', 'N', or 'latest'"
            ) from None
        return self._pick(name, versions, want)

    def resolve(self, spec: str) -> ResolvedOverlay:
        """Spec -> entry + design document (raises on a missing artifact)."""
        name, selector = split_spec(spec)
        entry = self.lookup(spec)
        doc = self.store.get(entry.key)
        if not isinstance(doc, dict):
            raise RegistryError(
                f"design artifact for {entry.spec} is missing or corrupt "
                f"(store key {entry.key[:16]})"
            )
        return ResolvedOverlay(
            entry=entry, design_doc=doc, explicit=selector is not None
        )

    def list_doc(self) -> List[Dict[str, Any]]:
        """Plain-JSON listing of every name (CLI / stats consumption)."""
        rows = []
        for name in self.names():
            versions, pinned = self._load(name)
            if not versions:
                continue
            rows.append(
                {
                    "name": name,
                    "versions": len(versions),
                    "latest": versions[-1].version,
                    "pinned": pinned,
                    "fingerprint": versions[-1].fingerprint,
                }
            )
        return rows
