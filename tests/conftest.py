"""Fixtures shared across test modules."""

import pytest

from repro.engine import ArtifactStore


class KilledStore(RuntimeError):
    """The store "process" died mid-run (see :func:`study_saves`)."""


class StudySaves(list):
    """Trial count of every study save, in order; with ``kill_after = k``
    the save after the k-th raises — the k-th is on disk, as after a
    ``kill -9``."""

    kill_after = None


@pytest.fixture
def study_saves(monkeypatch):
    saves, real = StudySaves(), ArtifactStore.put

    def put(self, key, value, meta=None):
        if (meta or {}).get("kind") == "study":
            if saves.kill_after is not None and len(saves) >= saves.kill_after:
                raise KilledStore("simulated kill -9")
            saves.append(meta["trials"])
        real(self, key, value, meta=meta)

    monkeypatch.setattr(ArtifactStore, "put", put)
    return saves
