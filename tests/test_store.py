"""Tests for ``TieredCache``: the one memory → disk ladder."""

from repro.engine import ArtifactStore, TieredCache


class TestTieredCache:
    def test_miss_put_memory_hit(self):
        cache = TieredCache()
        assert cache.get("k") == (None, "miss")
        cache.put("k", {"v": 1})
        assert cache.get("k") == ({"v": 1}, "memory")

    def test_memoized_builds_once_per_key(self):
        cache = TieredCache()
        calls = []

        def builder():
            calls.append(1)
            return None  # a cached None is still a hit

        assert cache.memoized(("a", 1), builder) is None
        assert cache.memoized(("a", 1), builder) is None
        assert len(calls) == 1
        assert cache.memoized(("b",), lambda: 2) == 2
        assert cache.stats()["entries"] == 2

    def test_fresh_instance_hits_disk_then_memory(self, tmp_path):
        TieredCache(ArtifactStore(tmp_path)).put("ab12", [1, 2], meta={"x": 1})
        store = ArtifactStore(tmp_path)
        assert store.meta("ab12") == {"x": 1}
        warm = TieredCache(store)
        assert warm.get("ab12") == ([1, 2], "disk")
        assert warm.get("ab12") == ([1, 2], "memory")  # promoted
        assert store.stats.hits == 1

    def test_persist_false_never_touches_the_store(self, tmp_path):
        store = ArtifactStore(tmp_path)
        cache = TieredCache(store)
        cache.put("ab12", "memory-only", persist=False)
        assert cache.get("ab12") == ("memory-only", "memory")
        assert store.stats.puts == 0 and store.size() == 0
        assert TieredCache(store).get("ab12") == (None, "miss")

    def test_truncated_pickle_is_a_miss_and_discarded(self, tmp_path):
        store = ArtifactStore(tmp_path)
        TieredCache(store).put("ab12", list(range(100)))
        path = tmp_path / "ab" / "ab12.pkl"
        path.write_bytes(path.read_bytes()[:10])
        assert TieredCache(store).get("ab12") == (None, "miss")
        assert store.stats.corrupt == 1
        assert not path.exists()

    def test_clear_empties_memory_only(self, tmp_path):
        cache = TieredCache(ArtifactStore(tmp_path))
        cache.put("ab12", 7)
        cache.clear()
        assert cache.get("ab12") == (7, "disk")

    def test_stats_counts_lookups_per_tier(self, tmp_path):
        TieredCache(ArtifactStore(tmp_path)).put("ab12", 7)
        cache = TieredCache(ArtifactStore(tmp_path))
        cache.get("ab12")
        cache.get("ab12")
        cache.get("ab12")
        cache.get("zz99")
        assert cache.stats() == {
            "entries": 1, "memory": 2, "disk": 1, "miss": 1,
        }
