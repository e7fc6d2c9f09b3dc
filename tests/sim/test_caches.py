"""Unit tests for the set-associative cache and the prefetch cache."""

from types import SimpleNamespace

import pytest

from repro.sim.caches import PrefetchCache, SetAssociativeCache
from repro.sim.config import PrefetchCacheConfig, baseline_config
from repro.sim.core import Core


def make_cache(size=1024, assoc=2, line=64):
    return SetAssociativeCache(size, assoc, line)


class TestSetAssociativeCache:
    def test_insert_and_lookup(self):
        cache = make_cache()
        assert cache.lookup(0) is None
        cache.insert(0, "a")
        assert cache.lookup(0) == "a"

    def test_geometry(self):
        cache = make_cache(size=1024, assoc=2, line=64)
        assert cache.num_sets == 8

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 2)
        with pytest.raises(ValueError):
            SetAssociativeCache(1024, 0)

    def test_lru_eviction_order(self):
        cache = make_cache(size=128, assoc=2, line=64)  # 1 set, 2 ways
        cache.insert(0, "a")
        cache.insert(64, "b")
        # Touch "a" so "b" becomes LRU.
        assert cache.lookup(0) == "a"
        evicted = cache.insert(128, "c")
        assert evicted == "b"
        assert cache.lookup(0) == "a"
        assert cache.lookup(128) == "c"
        assert cache.lookup(64) is None

    def test_reinsert_updates_payload_without_eviction(self):
        cache = make_cache(size=128, assoc=2, line=64)
        cache.insert(0, "a")
        cache.insert(64, "b")
        assert cache.insert(0, "a2") is None
        assert cache.lookup(0) == "a2"

    def test_lines_map_to_distinct_sets(self):
        cache = make_cache(size=1024, assoc=2, line=64)
        # 8 sets: addresses 0 and 64*8 collide; 0 and 64 do not.
        cache.insert(0, "a")
        cache.insert(64, "b")
        cache.insert(64 * 8, "c")
        evicted = cache.insert(64 * 16, "d")
        assert evicted == "a"  # set 0 held a, c (2 ways) -> a was LRU
        assert cache.lookup(64) == "b"  # set 1 untouched

    def test_contains_does_not_touch_lru(self):
        cache = make_cache(size=128, assoc=2, line=64)
        cache.insert(0, "a")
        cache.insert(64, "b")
        assert cache.contains(0)
        # "a" is still LRU because contains() must not touch.
        evicted = cache.insert(128, "c")
        assert evicted == "a"

    def test_len(self):
        cache = make_cache()
        assert len(cache) == 0
        cache.insert(0, "a")
        cache.insert(64, "b")
        assert len(cache) == 2


class TestPrefetchCache:
    def make(self, size_bytes=1024, assoc=2):
        return PrefetchCache(
            PrefetchCacheConfig(size_bytes=size_bytes, associativity=assoc)
        )

    def test_miss_then_fill_then_hit(self):
        pc = self.make()
        assert not pc.demand_lookup(0)
        assert pc.total_misses == 1
        pc.fill(0)
        assert pc.demand_lookup(0)
        assert pc.total_hits == 1

    def test_first_use_counts_useful_once(self):
        pc = self.make()
        pc.fill(0)
        pc.demand_lookup(0)
        pc.demand_lookup(0)
        assert pc.total_useful == 1
        assert pc.total_hits == 2

    def test_late_prefetch_fill_counts_useful(self):
        pc = self.make()
        pc.fill(0, already_used=True)
        assert pc.total_useful == 1

    def test_early_eviction_detected(self):
        pc = self.make(size_bytes=128, assoc=1)  # 2 sets, 1 way
        pc.fill(0)          # set 0
        pc.fill(128)        # set 0 -> evicts unused line 0
        assert pc.total_early_evictions == 1

    def test_used_line_eviction_is_not_early(self):
        pc = self.make(size_bytes=128, assoc=1)
        pc.fill(0)
        pc.demand_lookup(0)
        pc.fill(128)
        assert pc.total_early_evictions == 0

    def test_window_snapshot_resets(self):
        """The core's throttle window reads this period's growth of the
        prefetch cache's run totals, the next window starts from zero, and
        the run totals persist."""
        core = Core(0, baseline_config())
        windows = []
        core.throttle = SimpleNamespace(
            enabled=True, update=lambda window, cycle: windows.append(window)
        )
        pc = core.pcache = self.make(size_bytes=128, assoc=1)
        pc.fill(0)
        pc.demand_lookup(0)
        pc.fill(128)
        pc.fill(256)  # evicts unused 128 -> early eviction
        core.periodic_update(1000)
        core.periodic_update(2000)
        assert [
            (w.useful_prefetches, w.early_evictions, w.prefetch_cache_hits)
            for w in windows
        ] == [(1, 1, 1), (0, 0, 0)]
        # Run totals persist.
        assert pc.total_useful == 1
        assert pc.total_early_evictions == 1
