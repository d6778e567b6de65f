"""Concurrent-access tests for the artifact store (ISSUE 4 satellite).

Two writer/reader processes hammer the *same* key; because every write
(pickle and meta JSON alike) goes through temp-file + ``os.replace``, a
reader must only ever observe a complete old value or a complete new
value — never a torn file — and ``discard`` races must be tolerated.
"""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.engine import ArtifactStore

KEY = "ab" * 32

_WORKER = r"""
import json, pickle, sys, time
from repro.engine import ArtifactStore

root, role, rounds = sys.argv[1], sys.argv[2], int(sys.argv[3])
store = ArtifactStore(root)
key = "ab" * 32
payload = {"blob": "x" * 4096}
bad = 0
for i in range(rounds):
    if role == "writer":
        store.put(key, {**payload, "i": i}, meta={"i": i, "pad": "y" * 2048})
    elif role == "reader":
        value = store.get(key, default=None)
        if value is not None and value.get("blob") != "x" * 4096:
            bad += 1
        meta = store.meta(key)
        if meta is not None and meta.get("pad") != "y" * 2048:
            bad += 1
    else:  # discarder
        store.discard(key)
        time.sleep(0.001)
print(json.dumps({
    "role": role, "bad": bad, "corrupt": store.stats.corrupt,
    "hits": store.stats.hits, "misses": store.stats.misses,
}))
"""


def _spawn(tmp_path, role, rounds):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    return subprocess.Popen(
        [sys.executable, "-c", _WORKER, str(tmp_path), role, str(rounds)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
    )


def _finish(proc):
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


class TestConcurrentAccess:
    def test_two_processes_put_and_get_same_key(self, tmp_path):
        writer = _spawn(tmp_path, "writer", 300)
        reader = _spawn(tmp_path, "reader", 300)
        w, r = _finish(writer), _finish(reader)
        assert w["corrupt"] == 0
        # The reader never saw a torn pickle or a torn meta sidecar, and
        # never booked a spurious corrupt-entry stat.
        assert r["bad"] == 0
        assert r["corrupt"] == 0
        assert r["hits"] + r["misses"] == 300  # meta() reads book no stats

    def test_writer_vs_writer_last_value_is_complete(self, tmp_path):
        a = _spawn(tmp_path, "writer", 200)
        b = _spawn(tmp_path, "writer", 200)
        _finish(a), _finish(b)
        store = ArtifactStore(tmp_path)
        value = store.get(KEY)
        assert value is not None and value["blob"] == "x" * 4096
        assert store.stats.corrupt == 0
        meta = store.meta(KEY)
        assert meta is not None and meta["pad"] == "y" * 2048

    def test_discard_races_are_tolerated(self, tmp_path):
        writer = _spawn(tmp_path, "writer", 200)
        discarder = _spawn(tmp_path, "discarder", 200)
        reader = _spawn(tmp_path, "reader", 200)
        w, d, r = _finish(writer), _finish(discarder), _finish(reader)
        assert w["corrupt"] == 0 and d["corrupt"] == 0
        assert r["bad"] == 0 and r["corrupt"] == 0

    def test_threaded_put_get_same_store_instance(self, tmp_path):
        """In-process version: one store object shared across threads."""
        store = ArtifactStore(tmp_path)
        errors = []

        def writer():
            for i in range(200):
                store.put(KEY, {"i": i, "blob": "x" * 1024}, meta={"i": i})

        def reader():
            for _ in range(200):
                value = store.get(KEY)
                if value is not None and value.get("blob") != "x" * 1024:
                    errors.append(value)
                store.meta(KEY)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        assert store.stats.corrupt == 0


class TestMetaAtomicity:
    def test_meta_written_atomically(self, tmp_path, monkeypatch):
        """A crash between temp-write and replace leaves no torn meta."""
        store = ArtifactStore(tmp_path)
        real_replace = os.replace
        calls = []

        def failing_replace(src, dst):
            calls.append(dst)
            if str(dst).endswith(".json"):
                raise RuntimeError("injected crash before meta replace")
            return real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(RuntimeError):
            store.put(KEY, {"v": 1}, meta={"m": 1})
        monkeypatch.undo()
        # The pickle landed; the meta never appeared even partially.
        assert store.get(KEY) == {"v": 1}
        assert store.meta(KEY) is None
        leftovers = list(tmp_path.glob("**/*.tmp"))
        assert leftovers == []

    def test_torn_meta_is_absent_not_corrupt(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, {"v": 1}, meta={"m": 1})
        store._meta_path(KEY).write_text('{"m": 1')  # torn JSON
        before = dict(store.stats.as_dict())
        assert store.meta(KEY) is None
        # No hits/misses/corrupt accounting moved, artifact untouched.
        assert store.stats.as_dict() == before
        assert store.get(KEY) == {"v": 1}

    def test_meta_survives_pickle_rewrite(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put(KEY, {"v": 1}, meta={"gen": 1})
        store.put(KEY, {"v": 2}, meta={"gen": 2})
        assert store.get(KEY) == {"v": 2}
        assert store.meta(KEY) == {"gen": 2}
