"""Registry satellite tests: concurrency, torn state, byte-stability.

The ISSUE's registry criteria live here: two *processes* publishing and
pinning the same name concurrently stay consistent, a torn index file
(the crash the atomic-rename discipline guards against) is recovered
from store sidecars, and pin resolution is byte-stable across
processes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import (
    OverlayRegistry,
    RegistryError,
    split_spec,
    version_key,
)


def doc_for(tag: str) -> dict:
    """A distinct 'design document' — registry never interprets it."""
    return {"version": 1, "name": "fam", "tag": tag, "payload": [1, 2, 3]}


class TestRegistryBasics:
    def test_publish_assigns_sequential_versions(self, tmp_path):
        reg = OverlayRegistry(str(tmp_path))
        specs = [reg.publish("fam", doc_for(f"d{i}")).spec for i in range(3)]
        assert specs == ["fam@v1", "fam@v2", "fam@v3"]
        assert [v.version for v in reg.versions("fam")] == [1, 2, 3]

    def test_publish_same_doc_is_idempotent(self, tmp_path):
        reg = OverlayRegistry(str(tmp_path))
        first = reg.publish("fam", doc_for("same"))
        again = reg.publish("fam", doc_for("same"))
        assert again.version == first.version
        assert len(reg.versions("fam")) == 1
        # ...but the same doc under another NAME is a fresh version 1.
        other = reg.publish("other", doc_for("same"))
        assert other.spec == "other@v1"

    def test_lookup_selectors(self, tmp_path):
        reg = OverlayRegistry(str(tmp_path))
        for i in range(3):
            reg.publish("fam", doc_for(f"d{i}"))
        assert reg.lookup("fam@v2").version == 2
        assert reg.lookup("fam@2").version == 2
        assert reg.lookup("fam@latest").version == 3
        assert reg.lookup("fam").version == 3  # no pin -> latest
        reg.pin("fam", 1)
        assert reg.lookup("fam").version == 1  # pin wins for bare names
        assert reg.lookup("fam@v3").version == 3  # explicit beats pin
        with pytest.raises(RegistryError):
            reg.lookup("fam@v9")
        with pytest.raises(RegistryError):
            reg.lookup("nope")

    def test_rollback_is_a_pointer_move(self, tmp_path):
        reg = OverlayRegistry(str(tmp_path))
        for i in range(3):
            reg.publish("fam", doc_for(f"d{i}"))
        entry = reg.rollback("fam")
        assert entry.version == 2  # one before latest
        assert reg.pinned("fam") == 2
        assert len(reg.versions("fam")) == 3  # nothing deleted
        entry = reg.rollback("fam")  # one before the active pin
        assert entry.version == 1
        entry = reg.rollback("fam", to_version=3)
        assert entry.version == 3
        with pytest.raises(RegistryError):
            reg.rollback("fam", to_version=1)
            reg.rollback("fam")  # v1 active: nothing earlier

    def test_split_spec(self):
        assert split_spec("fam@v3") == ("fam", "v3")
        assert split_spec("fam") == ("fam", None)
        with pytest.raises(RegistryError):
            split_spec("@v3")


class TestTornState:
    def test_torn_index_rebuilds_from_sidecars(self, tmp_path):
        reg = OverlayRegistry(str(tmp_path))
        for i in range(3):
            reg.publish("fam", doc_for(f"d{i}"))
        reg.pin("fam", 2)
        index = tmp_path / "registry" / "fam.json"
        # A torn write: half a JSON document.
        index.write_text(index.read_text()[: index.stat().st_size // 2])

        fresh = OverlayRegistry(str(tmp_path))
        versions = fresh.versions("fam")
        assert [v.version for v in versions] == [1, 2, 3]
        # The pin lives only in the index, so it is honestly lost...
        assert fresh.pinned("fam") is None
        assert fresh.lookup("fam").version == 3
        # ...and rollback after the torn index still works (the ISSUE's
        # "rollback after torn sidecar" case) and re-establishes a pin.
        entry = fresh.rollback("fam")
        assert entry.version == 2
        assert fresh.pinned("fam") == 2

    def test_publish_after_torn_index_continues_numbering(self, tmp_path):
        reg = OverlayRegistry(str(tmp_path))
        for i in range(2):
            reg.publish("fam", doc_for(f"d{i}"))
        (tmp_path / "registry" / "fam.json").write_text("{not json")
        entry = OverlayRegistry(str(tmp_path)).publish("fam", doc_for("d9"))
        assert entry.version == 3

    def test_resolved_docs_survive_index_loss(self, tmp_path):
        reg = OverlayRegistry(str(tmp_path))
        reg.publish("fam", doc_for("keep"))
        (tmp_path / "registry" / "fam.json").unlink()
        resolved = OverlayRegistry(str(tmp_path)).resolve("fam@v1")
        assert resolved.design_doc == doc_for("keep")


_PUBLISH_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from repro.engine import OverlayRegistry

reg = OverlayRegistry({root!r})
specs = []
for i in range({count}):
    entry = reg.publish("fam", {{"proc": {proc}, "i": i}})
    specs.append(entry.spec)
print(json.dumps(specs))
"""

_RESOLVE_SCRIPT = """
import sys
sys.path.insert(0, {src!r})
from repro.engine import OverlayRegistry
from repro.serve import canonical_dumps

resolved = OverlayRegistry({root!r}).resolve({spec!r})
print(resolved.entry.spec)
print(canonical_dumps(resolved.design_doc))
"""

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_py(script: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestCrossProcess:
    def test_two_processes_publish_same_name(self, tmp_path):
        """Concurrent publishers: every version lands exactly once."""
        count = 5
        procs = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    _PUBLISH_SCRIPT.format(
                        src=SRC, root=str(tmp_path), count=count, proc=p
                    ),
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for p in (0, 1)
        ]
        outs = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            outs.append(json.loads(out))

        reg = OverlayRegistry(str(tmp_path))
        versions = reg.versions("fam")
        assert len(versions) == 2 * count
        assert [v.version for v in versions] == list(
            range(1, 2 * count + 1)
        )
        # Every store key is unique and resolvable: no publish was lost
        # or overwritten by the concurrent writer.
        assert len({v.key for v in versions}) == 2 * count
        published = {spec for specs in outs for spec in specs}
        assert published == {v.spec for v in versions}
        docs = [reg.resolve(v.spec).design_doc for v in versions]
        assert len({(d["proc"], d["i"]) for d in docs}) == 2 * count

    def test_pin_resolution_is_byte_stable_across_processes(self, tmp_path):
        reg = OverlayRegistry(str(tmp_path))
        for i in range(3):
            reg.publish("fam", doc_for(f"d{i}"))
        reg.pin("fam", 2)
        outs = [
            run_py(
                _RESOLVE_SCRIPT.format(src=SRC, root=str(tmp_path), spec=spec)
            )
            for spec in ("fam", "fam@v2", "fam", "fam@2")
        ]
        # All four resolutions (bare-name pin and explicit, repeated in
        # fresh processes) give the same spec and identical bytes.
        assert len(set(outs)) == 1
        spec_line, doc_line = outs[0].splitlines()
        assert spec_line == "fam@v2"
        assert json.loads(doc_line) == doc_for("d1")

    def test_version_key_is_content_addressed(self):
        assert version_key("fam", "abc") == version_key("fam", "abc")
        assert version_key("fam", "abc") != version_key("fam", "abd")
        assert version_key("fam", "abc") != version_key("other", "abc")
